"""Command-line front end.

Commands: list, check <ID>, check-all, eval <EXPR>, lineage <ID>.
Exit codes: 0 all pass; 1 mathematical mismatch; 2 usage, parse, or
unknown-id errors; 3 precondition or convergence errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import numeric as num
from .dsl import parse_expr, render_expr
from .engine import ExactEnv, NumericEnv, eval_exact, eval_numeric
from .errors import (
    CatalogLoadError,
    ParseError,
    QsvError,
    UnknownId,
)
from .exact import DEFAULT_ORDER, ParamValue, parse_param_value
from .expr import free_names, param_names
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
    t = text.strip().replace(" ", "")
    if t.endswith("i"):
        body = t[:-1]
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part = body[:pos]
                im_part = body[pos:]
                return complex(float(re_part), float(im_part or "1"))
        return complex(0.0, float(body or "1"))
    return float(t)


def parse_subst(text: str, backend: str) -> dict:
    """--subst k=v[,k=v...]; exact values use the c*q^m grammar, numeric
    values are floats or re+im i forms; bare integers bind exponents."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ParseError(f"bad substitution item {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        value = value.strip()
        try:
            if backend == "exact":
                if value.lstrip("+-").isdigit() and "q" not in value:
                    out[name] = int(value)
                else:
                    out[name] = parse_param_value(value)
            else:
                out[name] = parse_numeric_value(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad value for {name!r}: {value!r} ({exc})") from exc
    return out


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
        backend = " [numeric]" if record.numeric_only else ""
        print(f"{record.id:28s} {record.anchor:55s} slots: {slots:24s} "
              f"lineage: {lineage}{backend}")
        shown += 1
    print(f"{shown} identities")
    return EXIT_OK


def _point_with_overrides(record, backend, overrides):
    if backend == "exact":
        grid = default_exact_grid(record)
        base = grid[0] if grid else GridPoint({}, {})
        params = dict(base.params)
        exps = dict(base.exps)
        for name, value in overrides.items():
            if name in record.params:
                if isinstance(value, int):
                    value = ParamValue(Fraction(value), 0)
                params[name] = value
            elif name in record.exps:
                if not isinstance(value, int):
                    raise ParseError(f"{name!r} needs an integer value")
                exps[name] = value
            else:
                raise UnknownId(f"{name!r} is not a slot of {record.id}")
        return [GridPoint(params, exps)]
    grid = default_numeric_grid(record)
    base = grid[0] if grid else GridPoint({}, {}, q=0.2)
    params = dict(base.params)
    exps = dict(base.exps)
    q = base.q
    for name, value in overrides.items():
        if name == "q":
            q = value
        elif name in record.params:
            params[name] = value
        elif name in record.exps:
            exps[name] = value
        else:
            raise UnknownId(f"{name!r} is not a slot of {record.id}")
    return [GridPoint(params, exps, q=q)]


def _run_checks(records, ids, backend, order, tol, subst_text):
    reports = []
    backends = ("exact", "numeric") if backend == "both" else (backend,)
    for rid in ids:
        record = find_record(records, rid)
        for be in backends:
            points = None
            # an exact check of a numeric-only record never reads --subst
            if subst_text and not (be == "exact" and record.numeric_only):
                points = _point_with_overrides(record, be,
                                               parse_subst(subst_text, be))
            reports.extend(verify_record(record, backend=be, order=order,
                                         tol=tol, points=points))
    return reports


def _print_reports(reports):
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


def _summary_exit(reports, *, skip_ineligible=True) -> int:
    passed = sum(1 for r in reports if r.status == "pass")
    mismatched = [r for r in reports if r.status == "mismatch"]
    errored = [r for r in reports if r.status == "error"]
    hard_errors = [r for r in errored
                   if not (skip_ineligible and r.error == "record is numeric-only")]
    print(f"summary: {passed} pass, {len(mismatched)} mismatch, "
          f"{len(errored)} error")
    if mismatched:
        return EXIT_MISMATCH
    if hard_errors:
        return EXIT_PRECONDITION
    return EXIT_OK


def cmd_check(args) -> int:
    records = load_records(args.catalog)
    reports = _run_checks(records, [args.id], args.backend, args.order,
                          args.tolerance, args.subst)
    _print_reports(reports)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(emit_report(reports))
    return _summary_exit(reports, skip_ineligible=False)


def cmd_check_all(args) -> int:
    records = load_records(args.catalog)
    ids = [r.id for r in sorted(records, key=lambda r: r.id)
           if not args.filter or args.filter in r.id]
    reports = _run_checks(records, ids, args.backend, args.order,
                          args.tolerance, None)
    _print_reports(reports)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(emit_report(reports))
    return _summary_exit(reports)


def cmd_eval(args) -> int:
    expr = parse_expr(args.expr)
    overrides = parse_subst(args.subst or "", args.backend)
    names = free_names(expr)
    if args.backend == "exact":
        in_param_position = param_names(expr)
        params, exps = {}, {}
        for k, v in overrides.items():
            if k in in_param_position:
                params[k] = v if isinstance(v, ParamValue) else ParamValue(Fraction(v), 0)
            elif isinstance(v, int):
                exps[k] = v
            else:
                params[k] = v
        missing = names - set(params) - set(exps)
        if missing:
            raise QsvError(f"unbound names: {sorted(missing)}; bind with --subst")
        env = ExactEnv(order=args.order, params=params, exps=exps)
        series = eval_exact(expr, env)
        print(" ".join(str(c) for c in series.coeffs))
    else:
        q = overrides.pop("q", 0.2)
        missing = names - set(overrides)
        if missing:
            raise QsvError(f"unbound names: {sorted(missing)}; bind with --subst")
        # a standalone expression does not declare slot roles, so bind every
        # name in both the parameter and the exponent environment
        env = NumericEnv(q=q, params=dict(overrides), exps=dict(overrides),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsv",
        description="verify q-series transformation identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, catalog=True):
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help="truncation order for the exact backend")
        p.add_argument("--backend", choices=("exact", "numeric", "both"),
                       default="exact")
        p.add_argument("--tolerance", type=float, default=num.IDENTITY_TOL,
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
    common(p_eval, catalog=False)
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
