"""Verification orchestration: substitution grids, independent two-sided
evaluation, derivation checks for direct lineages, and JSON reports.

Evaluation never consults the identity being checked (the engine has no
access to the catalog), so agreement of the two sides is genuine evidence.
Exact verification demands coefficientwise equality through the truncation
order; numeric verification compares at relative tolerance.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, fields
from fractions import Fraction

import mpmath

from . import numeric as num
from .dsl import IdentityRecord
from .engine import (
    ExactEnv,
    ExactEvaluator,
    NumericEnv,
    NumericEvaluator,
    eval_exact,
    eval_numeric,
)
from .errors import ConstraintViolation, LineageKindUnsupported, QsvError, UnknownId
from .exact import DEFAULT_ORDER, ParamValue, QSeries
from .expr import Mul, MultiSum, OmegaProd, StrideProd, canon, substitute, walk

#: exact parameter candidates: diverse signs and denominators catch
#: coefficient errors that an all-ones assignment would miss
EXACT_PARAM_POOL = (
    ParamValue(Fraction(1), 1),
    ParamValue(Fraction(-1), 1),
    ParamValue(Fraction(1, 2), 1),
    ParamValue(Fraction(2), 2),
    ParamValue(Fraction(-1, 3), 1),
)

#: index-vector records enumerate a simplex whose size is governed by the
#: q-power of the driving values; qpow-2 values keep it small
EXACT_PARAM_POOL_MULTI = (
    ParamValue(Fraction(2), 2),
    ParamValue(Fraction(-1), 2),
    ParamValue(Fraction(1, 2), 2),
    ParamValue(Fraction(-1, 3), 2),
    ParamValue(Fraction(1), 3),
)

#: (h, t) exponent pairs kept small so multibasic sums stay cheap
EXACT_EXP_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2))

#: target number of grid points per record with free slots
GRID_TARGET = 5
GRID_MIN = 3

NUMERIC_PARAM_POOL = (0.1, 0.2, 0.3, 0.25, 0.4)
NUMERIC_Q_POOL = (0.2, 0.35 * complex(mpmath.cos(mpmath.pi / 7),
                                      mpmath.sin(mpmath.pi / 7)))
NUMERIC_EXP_POOL = (1.5, 0.7, 1.0, complex(1.2, 0.3))
CONSTRAINT_MARGIN = 0.95


@dataclass
class GridPoint:
    params: dict
    exps: dict
    q: complex | None = None  # numeric backend only


@dataclass
class VerifyReport:
    id: str
    backend: str
    order: int | None
    tolerance: float | None
    subst: dict
    status: str  # pass | mismatch | error
    first_mismatch_order: int | None = None
    relative_diff: float | None = None
    lhs_digest: str | None = None
    rhs_digest: str | None = None
    wall_ms: int = 0
    error: str | None = None  # cause, not part of the JSON schema


def _error_report(record: IdentityRecord, backend: str, order: int, tol: float,
                  subst: dict, error: str | None = None) -> VerifyReport:
    """A report with status error, as `verify` starts one; of order and
    tolerance, the one the backend does not use is None."""
    exact = backend == "exact"
    return VerifyReport(record.id, backend, order if exact else None,
                        None if exact else tol, subst, "error", error=error)


def _nodes(record: IdentityRecord):
    for side in (record.lhs, record.rhs):
        for node, _ in walk(side):
            yield node


def _int_exp_symbols(record: IdentityRecord) -> set:
    """Exponent symbols that index root-of-unity or stride families must
    stay integers even on the numeric backend."""
    found = set()
    for node in _nodes(record):
        if isinstance(node, (OmegaProd, StrideProd)):
            found.update(node.h.symbols())
    return found & set(record.exps)


def _has_multisum(record: IdentityRecord) -> bool:
    return any(isinstance(node, MultiSum) for node in _nodes(record))


def _exp_assignments(record: IdentityRecord):
    """Deterministic stream of exponent assignments (exact backend).
    Index-vector records keep their per-index exponents at >= 2 so the
    enumeration simplex stays small."""
    names = list(record.exps)
    if not names:
        yield {}
        return
    omega_syms = _int_exp_symbols(record)
    multi = _has_multisum(record)

    def domain(name):
        if name in omega_syms:
            return (2, 3)
        if name == "v":
            return (0, 1, 2)
        if multi and name.startswith("h"):
            return (2, 3)
        return (1, 2, 3)

    if set(names) == {"h", "t"} and not multi:
        for h, t in EXACT_EXP_PAIRS:
            yield {"h": h, "t": t}
        return
    pools = [domain(n) for n in names]
    count = 0
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))
        count += 1
        if count >= (6 if multi else 24):
            return


def _param_assignments(record: IdentityRecord):
    names = list(record.params)
    if not names:
        yield {}
        return
    pool = EXACT_PARAM_POOL_MULTI if _has_multisum(record) else EXACT_PARAM_POOL
    for rot in range(len(pool)):
        yield {p: pool[(i + rot) % len(pool)] for i, p in enumerate(names)}
    # fall back to a wider deterministic search for records whose slots
    # need asymmetric q-powers (quotient arguments etc.)
    for combo in itertools.islice(itertools.product(pool, repeat=len(names)), 200):
        yield dict(zip(names, combo))


def exact_constraints_ok(record: IdentityRecord, env: ExactEnv) -> bool:
    """Formal reading of |expr| < bound: a monomial c*q^m with m >= 1 is
    q-adically small; for m = 0 the coefficient must satisfy the bound.
    A bound <= 0 holds for no value at all."""
    ev = ExactEvaluator(env)
    for constraint in record.constraints:
        if constraint.bound <= 0:
            return False
        try:
            m = ev.monomial(constraint.expr, env.exps)
        except QsvError:
            return False
        if m is None:
            continue
        if m.qpow == 0 and abs(m.coeff) >= constraint.bound:
            return False
    return True


def _admissible_exact(record: IdentityRecord, params, exps) -> bool:
    env = ExactEnv(order=8, params=params, exps=exps)
    if not exact_constraints_ok(record, env):
        return False
    try:
        eval_exact(record.lhs, env)
        eval_exact(record.rhs, env)
    except QsvError:
        return False
    except Exception:  # a fault of qsv itself: verify reports it with its cause
        return True
    return True


def default_exact_grid(record: IdentityRecord) -> list:
    """A small, deterministic, admissible set of substitution points:
    parameter rotations over the value pool zipped against the exponent
    stream, admissibility-filtered until the target is met, then topped up
    from a wider product search while fewer than GRID_MIN survive."""
    if not record.params and not record.exps:
        return [GridPoint({}, {})]
    exp_stream = list(_exp_assignments(record))
    param_stream = list(itertools.islice(_param_assignments(record), 250))
    target = GRID_MIN if _has_multisum(record) else GRID_TARGET
    n_params, n_exps = len(param_stream), len(exp_stream)
    primary = ((param_stream[i % n_params], exp_stream[i % n_exps], target)
               for i in range(max(n_exps, min(n_params, target))))
    top_up = ((params, exps, GRID_MIN) for params in param_stream for exps in exp_stream)
    points, seen = [], set()
    for params, exps, stop in itertools.chain(primary, top_up):
        if len(points) >= stop:
            break
        key = (tuple(sorted((k, (v.coeff, v.qpow)) for k, v in params.items())),
               tuple(sorted(exps.items())))
        if key in seen:
            continue
        seen.add(key)
        if _admissible_exact(record, params, exps):
            points.append(GridPoint(dict(params), dict(exps)))
    return points


@mpmath.workdps(num.WORK_DPS)
def numeric_constraints_ok(record: IdentityRecord, env: NumericEnv) -> bool:
    ev = NumericEvaluator(env)
    for constraint in record.constraints:
        try:
            value = ev.eval(constraint.expr)
        except QsvError:
            return False
        if abs(value) >= CONSTRAINT_MARGIN * float(constraint.bound):
            return False
    return True


def default_numeric_grid(record: IdentityRecord) -> list:
    omega_syms = _int_exp_symbols(record)
    points = []
    for qi, q in enumerate(NUMERIC_Q_POOL):
        params = {p: NUMERIC_PARAM_POOL[(i + qi) % len(NUMERIC_PARAM_POOL)]
                  for i, p in enumerate(record.params)}
        exps = {}
        for i, name in enumerate(record.exps):
            if name in omega_syms:
                exps[name] = 2
            elif name in ("u", "v", "s", "k", "n"):
                exps[name] = 1 + (i + qi) % 2
            else:
                exps[name] = NUMERIC_EXP_POOL[(i + qi) % len(NUMERIC_EXP_POOL)]
        env = NumericEnv(q=q, params=params, exps=exps)
        if numeric_constraints_ok(record, env):
            points.append(GridPoint(params, exps, q=q))
    return points


def render_subst(point: GridPoint, backend: str) -> dict:
    out = {}
    if backend == "numeric" and point.q is not None:
        out["q"] = format_cnum(point.q)
    for name, value in sorted(point.params.items()):
        out[name] = str(value) if backend == "exact" else format_cnum(value)
    for name, value in sorted(point.exps.items()):
        out[name] = str(value) if isinstance(value, int) else format_cnum(value)
    return out


def format_cnum(z) -> str:
    z = complex(z)
    re = f"{z.real:.15g}"
    im = f"{abs(z.imag):.15g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{im}i"


def series_digest(series: QSeries) -> str:
    body = ",".join(str(c) for c in series.coeffs)
    return hashlib.sha256(body.encode()).hexdigest()


def value_digest(z) -> str:
    return hashlib.sha256(format_cnum(z).encode()).hexdigest()


def verify(record: IdentityRecord, point: GridPoint, *, backend: str = "exact",
           order: int = DEFAULT_ORDER, tol: float = num.IDENTITY_TOL) -> VerifyReport:
    """Evaluate both sides independently at one grid point and compare;
    the check never rewrites one side into the other.  Any exception
    raised by evaluation, a qsv error or not, is reported as the point's
    error, `Type: message`."""
    t0 = time.perf_counter()
    exact = backend == "exact"
    report = _error_report(record, backend, order, tol, render_subst(point, backend))
    if exact:
        env = ExactEnv(order=order, params=point.params, exps=point.exps)
        evaluate, digest = eval_exact, series_digest
    else:
        env = NumericEnv(q=point.q if point.q is not None else num.DEFAULT_Q,
                         params=point.params, exps=point.exps, tol=tol)
        evaluate, digest = eval_numeric, value_digest
    try:
        if not exact and not numeric_constraints_ok(record, env):
            raise ConstraintViolation("magnitude constraints violated")
        lhs = evaluate(record.lhs, env)
        rhs = evaluate(record.rhs, env)
    except Exception as exc:  # a fault of qsv too: one point never ends a sweep
        report.error = f"{type(exc).__name__}: {exc}"
    else:
        report.lhs_digest, report.rhs_digest = digest(lhs), digest(rhs)
        if exact:
            report.status = "pass" if lhs == rhs else "mismatch"
            if lhs != rhs:
                report.first_mismatch_order = next(
                    i for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b)
        else:
            with mpmath.workdps(num.WORK_DPS):
                scale = max(abs(lhs), abs(rhs), mpmath.mpf(1e-30))
                report.relative_diff = float(abs(lhs - rhs) / scale)
            report.status = "pass" if report.relative_diff <= tol else "mismatch"
    report.wall_ms = int((time.perf_counter() - t0) * 1000)
    return report


def verify_record(record: IdentityRecord, *, backend: str = "exact",
                  order: int = DEFAULT_ORDER, tol: float = num.IDENTITY_TOL,
                  points: list | None = None) -> list:
    if points is None:
        points = (default_exact_grid(record) if backend == "exact"
                  else default_numeric_grid(record))
    if not points:
        return [_error_report(record, backend, order, tol, {}, "no admissible grid point")]
    return [verify(record, p, backend=backend, order=order, tol=tol)
            for p in points]


def derive_check(record: IdentityRecord, catalog: dict) -> bool:
    """Check a direct lineage: substitute into the parent, normalize, and
    compare structurally with the child, allowing a recorded cosmetic
    factor applied to both sides and an optional swap of sides."""
    lineage = record.lineage
    if lineage is None:
        raise LineageKindUnsupported(f"{record.id} has no lineage")
    if lineage.kind != "direct":
        raise LineageKindUnsupported(
            f"{record.id} lineage kind {lineage.kind!r} is metadata only")
    if lineage.parent not in catalog:
        raise UnknownId(f"lineage parent {lineage.parent!r} not in catalog")
    parent = catalog[lineage.parent]
    sub = dict(lineage.sub)
    p_lhs, p_rhs = (parent.rhs, parent.lhs) if lineage.swap else (parent.lhs, parent.rhs)
    s_lhs = substitute(p_lhs, sub, check_names=False)
    s_rhs = substitute(p_rhs, sub, check_names=False)
    if lineage.factor is not None:
        s_lhs = Mul(s_lhs, lineage.factor)
        s_rhs = Mul(s_rhs, lineage.factor)
    return canon(s_lhs) == canon(record.lhs) and canon(s_rhs) == canon(record.rhs)


def emit_report(reports: list) -> str:
    """Stable JSON document for a verification run."""
    passed = sum(1 for r in reports if r.status == "pass")
    failed = sum(1 for r in reports if r.status == "mismatch")
    errored = sum(1 for r in reports if r.status == "error")
    doc = {
        "summary": {
            "total": len(reports),
            "passed": passed,
            "failed": failed,
            "errored": errored,
        },
        "results": [{f.name: getattr(r, f.name) for f in fields(r) if f.name != "error"}
                    for r in reports],
    }
    return json.dumps(doc, indent=2)


def load_catalog_file(path: str) -> list:
    from .errors import CatalogLoadError
    from .dsl import parse_catalog

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CatalogLoadError(f"cannot read catalog {path!r}: {exc}") from exc
    return parse_catalog(text)


def default_catalog_path() -> str:
    import os

    return os.path.join(os.path.dirname(__file__), "catalog", "identities.qsv")
