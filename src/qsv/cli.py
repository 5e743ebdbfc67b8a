"""Command-line front end.

Commands: list, check <ID>, check-all, eval <EXPR>, lineage <ID>.
Exit codes: 0 all pass; 1 mathematical mismatch; 2 usage, parse, or
unknown-id errors; 3 precondition or convergence errors.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from fractions import Fraction

from . import numeric as num
from .dsl import parse_expr, render_expr, sub_value
from .engine import ExactEnv, ExactEvaluator, NumericEnv, eval_exact, eval_numeric
from .errors import CatalogLoadError, ParseError, QsvError, UnknownId
from .exact import DEFAULT_ORDER, ParamValue
from .expr import slot_names
from .verifier import (
    GridPoint,
    default_catalog_path,
    default_exact_grid,
    default_numeric_grid,
    derive_check,
    emit_report,
    format_cnum,
    load_catalog_file,
    verify_record,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def resolve_catalog_path(flag_value):
    if flag_value:
        return flag_value
    env = os.environ.get("QSV_CATALOG")
    if env:
        return env
    return default_catalog_path()


def load_records(flag_value):
    path = resolve_catalog_path(flag_value)
    return load_catalog_file(path)


def parse_numeric_value(text: str):
    """A finite float or complex number, written re+im i (the format_cnum form)."""
    t = text.strip().replace(" ", "")
    value = complex(t[:-1] + "j") if t.endswith("i") else float(t)
    if not cmath.isfinite(value):
        raise ValueError("not a finite number")
    return value


def parse_exact_value(text: str):
    """A DSL expression that is an integer (an exponent value, as in a
    lineage sub(...)) or a monomial c*q^m."""
    value = sub_value(parse_expr(text))
    m = value if isinstance(value, int) else ExactEvaluator(ExactEnv()).monomial(value, {})
    if m is None:
        raise ValueError("not a monomial c*q^m")
    return m


def bind_subst(text: str, backend: str, point, params, exps, owner: str):
    """Bind --subst k=v[,k=v...] into point, each name once.  Exact values
    are read by parse_exact_value, numeric ones by parse_numeric_value.
    A value goes to every slot its name fills: q (numeric backend), a
    parameter (an exact integer as c*q^0), an exponent symbol (an integer
    on the exact backend); a name that fills none is no slot of owner."""
    exact = backend == "exact"
    read = parse_exact_value if exact else parse_numeric_value
    seen = set()
    for item in text.split(","):
        if "=" not in item:
            raise ParseError(f"bad substitution item {item!r}")
        name, raw = (part.strip() for part in item.split("=", 1))
        if name in seen:
            raise ParseError(f"duplicate substitution name {name!r}")
        seen.add(name)
        try:
            value = read(raw)
        except (ValueError, QsvError) as exc:
            raise ParseError(f"bad value for {name!r}: {raw!r} ({exc})") from exc
        if name == "q" and not exact:
            point.q = value
        elif name not in params and name not in exps:
            raise UnknownId(f"{name!r} is not a slot of {owner}")
        if name in exps:
            if exact and not isinstance(value, int):
                raise ParseError(f"{name!r} needs an integer value")
            point.exps[name] = value
        if name in params:
            if exact and isinstance(value, int):
                value = ParamValue(Fraction(value), 0)
            point.params[name] = value


def find_record(records, rid):
    for record in records:
        if record.id == rid:
            return record
    raise UnknownId(f"unknown identity id {rid!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    records = load_records(args.catalog)
    shown = 0
    for record in records:
        if args.filter and args.filter not in record.id:
            continue
        slots = ", ".join(list(record.params) + list(record.exps)) or "-"
        kind = record.lineage.kind if record.lineage else "-"
        parent = record.lineage.parent if record.lineage else ""
        lineage = f"{kind}<-{parent}" if parent else kind
        print(f"{record.id:28s} {record.anchor:55s} slots: {slots:24s} "
              f"lineage: {lineage}")
        shown += 1
    print(f"{shown} identities")
    return EXIT_OK


def _point_with_overrides(record, backend):
    """A copy of the record's first default grid point, for --subst to fill."""
    exact = backend == "exact"
    grid = default_exact_grid(record) if exact else default_numeric_grid(record)
    base = grid[0] if grid else GridPoint({}, {}, q=None if exact else num.DEFAULT_Q)
    return GridPoint(dict(base.params), dict(base.exps), q=base.q)


def _run_checks(records, ids, backend, order, tol, subst_text):
    reports = []
    backends = ("exact", "numeric") if backend == "both" else (backend,)
    for rid in ids:
        record = find_record(records, rid)
        for be in backends:
            points = None
            if subst_text:
                point = _point_with_overrides(record, be)
                bind_subst(subst_text, be, point, record.params, record.exps,
                           record.id)
                points = [point]
            reports.extend(verify_record(record, backend=be, order=order,
                                         tol=tol, points=points))
    return reports


def _print_reports(reports, report_path):
    """One line per report, and the JSON report written to report_path
    when one is given."""
    for r in reports:
        subst = ",".join(f"{k}={v}" for k, v in r.subst.items()) or "-"
        if r.status == "pass":
            detail = ""
        elif r.status == "mismatch":
            detail = (f" first_mismatch_order={r.first_mismatch_order}"
                      if r.first_mismatch_order is not None
                      else f" relative_diff={r.relative_diff:.3e}")
        else:
            detail = f" ({r.error})"
        extra = ""
        if r.backend == "numeric" and r.relative_diff is not None:
            extra = f" rel={r.relative_diff:.2e}"
        print(f"{r.id:28s} [{r.backend}] {subst:48s} {r.status}{extra}{detail}")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(emit_report(reports))


def _summary_exit(reports) -> int:
    passed = sum(1 for r in reports if r.status == "pass")
    mismatched = [r for r in reports if r.status == "mismatch"]
    errored = [r for r in reports if r.status == "error"]
    print(f"summary: {passed} pass, {len(mismatched)} mismatch, "
          f"{len(errored)} error")
    if mismatched:
        return EXIT_MISMATCH
    if errored:
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_check(args) -> int:
    records = load_records(args.catalog)
    reports = _run_checks(records, [args.id], args.backend, args.order,
                          args.tolerance, args.subst)
    _print_reports(reports, args.report)
    return _summary_exit(reports)


def cmd_check_all(args) -> int:
    records = load_records(args.catalog)
    ids = [r.id for r in sorted(records, key=lambda r: r.id)
           if not args.filter or args.filter in r.id]
    reports = _run_checks(records, ids, args.backend, args.order,
                          args.tolerance, None)
    _print_reports(reports, args.report)
    return _summary_exit(reports)


def cmd_eval(args) -> int:
    expr = parse_expr(args.expr)
    params, exps = slot_names(expr)
    exact = args.backend == "exact"
    point = GridPoint({}, {}, q=None if exact else num.DEFAULT_Q)
    if args.subst:
        bind_subst(args.subst, args.backend, point, params, exps, "the expression")
    missing = (params - set(point.params)) | (exps - set(point.exps))
    if missing:
        raise ParseError(f"unbound names: {sorted(missing)}; bind with --subst")
    if exact:
        env = ExactEnv(order=args.order, params=point.params, exps=point.exps)
        series = eval_exact(expr, env)
        print(" ".join(str(c) for c in series.coeffs))
    else:
        env = NumericEnv(q=point.q, params=point.params, exps=point.exps,
                         tol=args.tolerance)
        value = eval_numeric(expr, env)
        print(f"{format_cnum(value)} (relative error <= {args.tolerance:g})")
    return EXIT_OK


def cmd_lineage(args) -> int:
    records = load_records(args.catalog)
    record = find_record(records, args.id)
    catalog = {r.id: r for r in records}
    if record.lineage is None:
        print(f"{record.id}: no recorded lineage")
        return EXIT_OK
    lin = record.lineage
    subs = ", ".join(
        f"{k}={v if isinstance(v, int) else render_expr(v)}"
        for k, v in lin.sub) or "-"
    print(f"{record.id}: parent={lin.parent} kind={lin.kind} sub({subs})"
          f"{' swap' if lin.swap else ''}")
    if lin.kind == "direct":
        ok = derive_check(record, catalog)
        print(f"derivation check: {'pass' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_MISMATCH
    print("derivation check: not applicable (metadata-only lineage)")
    return EXIT_OK


def truncation_order(text: str) -> int:
    """A truncation order: an integer >= 1."""
    order = int(text)
    if order < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {order}")
    return order


def tolerance(text: str) -> float:
    """A relative tolerance: a finite float > 0."""
    tol = float(text)
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsv",
        description="verify q-series transformation identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, catalog=True, backends=("exact", "numeric", "both")):
        p.add_argument("--order", type=truncation_order, default=DEFAULT_ORDER,
                       help="truncation order for the exact backend")
        p.add_argument("--backend", choices=backends, default="exact")
        p.add_argument("--tolerance", type=tolerance, default=num.IDENTITY_TOL,
                       help="relative tolerance for the numeric backend")
        if catalog:
            p.add_argument("--catalog", help="catalog file path "
                           "(QSV_CATALOG env var also honored)")

    p_list = sub.add_parser("list", help="list catalog identities")
    p_list.add_argument("--catalog")
    p_list.add_argument("--filter", help="substring filter on ids")
    p_list.set_defaults(fn=cmd_list)

    p_check = sub.add_parser("check", help="verify one identity")
    p_check.add_argument("id")
    common(p_check)
    p_check.add_argument("--subst", help="overrides k=v[,k=v...]")
    p_check.add_argument("--report", help="write a JSON report here")
    p_check.set_defaults(fn=cmd_check)

    p_all = sub.add_parser("check-all", help="verify the whole catalog")
    common(p_all)
    p_all.add_argument("--filter", help="substring filter on ids")
    p_all.add_argument("--report", help="write a JSON report here")
    p_all.set_defaults(fn=cmd_check_all)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr")
    common(p_eval, catalog=False, backends=("exact", "numeric"))
    p_eval.add_argument("--subst", help="bindings k=v[,k=v...]")
    p_eval.set_defaults(fn=cmd_eval)

    p_lin = sub.add_parser("lineage", help="show and check a lineage")
    p_lin.add_argument("id")
    p_lin.add_argument("--catalog")
    p_lin.set_defaults(fn=cmd_lineage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ParseError, UnknownId, CatalogLoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QsvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
