"""Verification orchestration: grids, reports, derivation checks, and
mutation sensitivity."""

import json
import random
from fractions import Fraction as F

import pytest

from conftest import multibasic_record, perturb_record
from qsv.dsl import parse_catalog, parse_expr
from qsv.engine import ExactEnv, eval_exact
from qsv.errors import LineageKindUnsupported
from qsv.exact import ParamValue
from qsv.expr import canon
from qsv.verifier import (
    GridPoint,
    default_exact_grid,
    default_numeric_grid,
    derive_check,
    emit_report,
    exact_constraints_ok,
    verify,
    verify_record,
)


def pv(c, m):
    return ParamValue(F(c), m)


# -- grids ---------------------------------------------------------------------


def test_grids_have_enough_points(catalog_records):
    for record in catalog_records:
        points = default_exact_grid(record)
        if record.params or record.exps:
            assert len(points) >= 3, record.id
        else:
            assert len(points) == 1


def test_exact_constraint_filter():
    record = type("R", (), {})()
    record.constraints = (
        __import__("qsv.dsl", fromlist=["Constraint"]).Constraint(
            parse_expr("a/b"), F(1)),
    )
    env_ok = ExactEnv(order=8, params={"a": pv(2, 2), "b": pv(1, 1)})
    env_bad = ExactEnv(order=8, params={"a": pv(2, 1), "b": pv(1, 1)})
    assert exact_constraints_ok(record, env_ok)
    assert not exact_constraints_ok(record, env_bad)
    Constraint = __import__("qsv.dsl", fromlist=["Constraint"]).Constraint
    # exponent symbols are bound when a constraint is read
    record.constraints = (Constraint(parse_expr("q^(h*t)"), F(1)),)
    assert exact_constraints_ok(record, ExactEnv(order=8, exps={"h": 1, "t": 2}))
    # |x| < 0 holds for no x, however small its q-adic size
    record.constraints = (Constraint(parse_expr("a"), F(0)),)
    assert not exact_constraints_ok(record, env_ok)


def test_numeric_grid_constraints(catalog_records):
    for record in catalog_records:
        points = default_numeric_grid(record)
        assert points, record.id


# -- verify --------------------------------------------------------------------


def test_verify_no_slot_record(catalog):
    report = verify(catalog["1.4.10"], GridPoint({}, {}), order=64)
    assert report.status == "pass"
    assert report.lhs_digest == report.rhs_digest


def test_verify_pass_and_digests(catalog):
    record = catalog["1.6.6"]
    report = verify(record, GridPoint({}, {}), order=64)
    assert report.status == "pass"
    assert report.first_mismatch_order is None
    assert len(report.lhs_digest) == 64
    # and the product side is the triangular theta function
    from qsv.qkernel import ThetaKind, theta_series

    env = ExactEnv(order=64)
    assert eval_exact(record.rhs, env) == theta_series(ThetaKind.PSI, 64)


def test_verify_corrupted_rhs_mismatch(catalog):
    import dataclasses

    record = catalog["gb-sym-heine"]
    corrupted = dataclasses.replace(
        record,
        rhs=__import__("qsv.expr", fromlist=["substitute"]).substitute(
            record.rhs, {"b": parse_expr("b^2")}))
    point = default_exact_grid(record)[0]
    report = verify(corrupted, point, order=32)
    assert report.status == "mismatch"
    assert report.first_mismatch_order is not None
    assert report.first_mismatch_order < 16


def test_verify_numeric_backend(catalog):
    record = catalog["q-bin"]
    point = default_numeric_grid(record)[0]
    report = verify(record, point, backend="numeric", tol=1e-9)
    assert report.status == "pass"
    assert report.relative_diff is not None and report.relative_diff <= 1e-9


def test_verify_error_status(catalog):
    record = catalog["q-bin"]
    # z with qpow 0 is outside the formal domain: the sum driver stalls
    point = GridPoint({"a": pv(1, 1), "z": pv(F(1, 2), 0)}, {})
    report = verify(record, point, order=16)
    assert report.status == "error"
    assert "ValuationStall" in report.error


def test_verify_term_cap_error(catalog, monkeypatch):
    import qsv.engine

    # the sum needs about 16 terms at order 16; a cap of 3 stops it
    monkeypatch.setattr(qsv.engine, "MAX_EXACT_TERMS", 3)
    point = GridPoint({"a": pv(1, 1), "z": pv(1, 1)}, {})
    report = verify(catalog["q-bin"], point, order=16)
    assert report.status == "error"
    assert report.error.startswith("TermCapExceeded: ")


def test_dipping_sum_is_no_false_pass():
    # the terms' valuations fall from 400 to 0 at k = 20 and rise again:
    # a sum stopped before the dip would pass against 0
    record = parse_catalog("""
identity dip {
  anchor "t";
  lhs = sum(k=0..inf; q^(k*k - 40*k + 400));
  rhs = 0;
}
""")[0]
    [report] = verify_record(record, order=64)
    assert report.status == "mismatch" and report.first_mismatch_order == 0


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_any_exception_is_an_error_entry_and_check_all_goes_on(
        catalog, monkeypatch, capsys, backend):
    import qsv.verifier
    from qsv.cli import main

    def fault(e, env):
        raise RuntimeError("not a qsv error")

    monkeypatch.setattr(qsv.verifier, f"eval_{backend}", fault)
    grid = default_exact_grid if backend == "exact" else default_numeric_grid
    report = verify(catalog["q-bin"], grid(catalog["q-bin"])[0], backend=backend)
    assert (report.status, report.error) == ("error", "RuntimeError: not a qsv error")
    code = main(["check-all", "--backend", backend, "--filter", "1.6.6", "--order", "16"])
    out = capsys.readouterr().out
    assert code == 3
    rows = [line for line in out.splitlines() if "[" + backend + "]" in line]
    assert len(rows) > 5 and all(line.endswith("(RuntimeError: not a qsv error)")
                                 for line in rows)
    assert f"summary: 0 pass, 0 mismatch, {len(rows)} error" in out


def test_verify_numeric_constraint_violation(catalog):
    # |q^(h t)| too close to 1 violates the declared constraint margins
    record = catalog["gb-sym-heine"]
    point = GridPoint({"a": 0.1, "b": 0.2, "w": 0.3, "z": 0.25},
                      {"h": 0.1, "t": 0.1}, q=0.35)
    report = verify(record, point, backend="numeric")
    assert report.status == "error"
    assert "Constraint" in report.error


def test_fundamental_lemma_shift_1_passes_exactly(catalog):
    # its right side's prefactor y^(-1) has a negative q-power at every point
    reports = verify_record(catalog["andrews-fl-r2-s1"], backend="exact")
    assert [r.status for r in reports] == ["pass"] * 5


# -- derivation checks ------------------------------------------------------------


ACCEPTED_DIRECT = [
    ("1.4.1", "gb-1.4.1"),
    ("1.4.2", "gb-1.4.2-h"),
    ("1.4.5", "gb-1.4.5-t"),
    ("1.4.3", "gb-1.4.3-4"),
    ("1.4.4", "gb-1.4.3-4"),
    ("1.4.12", "gb-1.4.12"),
    ("1.4.18", "gb-1.4.18"),
    ("1.6.6", "gb-1.6.6"),
]


@pytest.mark.parametrize("child,parent", ACCEPTED_DIRECT)
def test_required_direct_lineages(catalog, child, parent):
    record = catalog[child]
    assert record.lineage.parent == parent
    assert derive_check(record, catalog) is True


def test_all_declared_direct_lineages_pass(catalog_records, catalog):
    for record in catalog_records:
        if record.lineage and record.lineage.kind == "direct":
            assert derive_check(record, catalog) is True, record.id


def test_derive_check_rejects_metadata_kinds(catalog):
    with pytest.raises(LineageKindUnsupported):
        derive_check(catalog["1.4.17"], catalog)  # rebase
    with pytest.raises(LineageKindUnsupported):
        derive_check(catalog["gb-1.4.12"], catalog)  # limit


def test_derive_check_detects_wrong_substitution(catalog):
    import dataclasses

    record = catalog["1.4.3"]
    wrong = dataclasses.replace(
        record, lineage=dataclasses.replace(record.lineage,
                                            sub=(("h", 1), ("t", 1))))
    assert derive_check(wrong, catalog) is False


# -- special structural invariants ---------------------------------------------------


def test_heine_b_equals_c_collapses_to_q_binomial(catalog):
    # with c = b (and x = 1) the transformed sum loses every positive-index
    # term and the record becomes the q-binomial theorem
    heine = catalog["heine-original"]
    qbin = catalog["q-bin"]
    params = {"a": pv(-1, 1), "b": pv(F(1, 2), 1), "c": pv(F(1, 2), 1),
              "x": pv(1, 0), "z": pv(1, 1)}
    env = ExactEnv(order=48, params=params)
    qbin_env = ExactEnv(order=48, params={"a": pv(-1, 1), "z": pv(1, 1)})
    assert eval_exact(heine.lhs, env) == eval_exact(qbin.lhs, qbin_env)
    assert eval_exact(heine.rhs, env) == eval_exact(qbin.rhs, qbin_env)
    # and the j >= 1 terms of the transformed side vanish identically
    rhs_sum = parse_expr(
        "sum(j=1..inf; poch(c/b; q)_j * poch(z; q)_j"
        " / (poch(q; q)_j * poch(a*z; q)_j) * (b*x)^j)")
    assert eval_exact(rhs_sum, env).is_zero()


def test_1_4_11_chain_verifies(catalog):
    for rid in ("1.4.11-chain-1", "1.4.11-chain-2", "1.4.11-chain-3", "1.4.11"):
        record = catalog[rid]
        env = ExactEnv(order=64)
        assert eval_exact(record.lhs, env) == eval_exact(record.rhs, env), rid


MUTATION_SAMPLE = ["q-bin", "gb-sym-heine", "gb-heine", "1.4.1", "gb-1.4.12",
                   "1.4.17", "gb-1.6.5", "gb-1.6.6", "gb-missing1", "1.4.9"]


def test_mutation_sensitivity(catalog):
    rng = random.Random(20260808)
    for rid in MUTATION_SAMPLE:
        record = catalog[rid]
        found_mismatch = False
        for _ in range(6):
            mutated = perturb_record(record, rng)
            if mutated is None:
                continue
            points = default_exact_grid(record)
            report = verify(mutated, points[0], order=64)
            if report.status == "mismatch":
                found_mismatch = True
                break
            # some perturbations break preconditions instead; that still
            # demonstrates the check is not vacuous, but prefer a mismatch
            if report.status == "error":
                found_mismatch = True
                break
        assert found_mismatch, rid


# -- the multibasic family past the catalog's m = 3 ----------------------------


def test_multibasic_generator_gives_the_catalog_record_at_m3(catalog):
    record, = parse_catalog(multibasic_record(3))
    m3 = catalog["gb-qlauricella-m3"]
    assert ((record.params, record.exps, record.constraints)
            == (m3.params, m3.exps, m3.constraints))
    assert canon(record.lhs) == canon(m3.lhs) and canon(record.rhs) == canon(m3.rhs)


def test_multibasic_m5_passes_at_its_first_grid_point():
    # an exact msum cap that counted every prefix of the walk broke m >= 4
    record, = parse_catalog(multibasic_record(5))
    point = default_exact_grid(record)[0]
    report = verify(record, point, order=32)
    assert (report.status, report.error) == ("pass", None)


# -- report emission -------------------------------------------------------------------


def test_emit_report_schema(catalog):
    reports = verify_record(catalog["1.6.6"], order=32)
    doc = json.loads(emit_report(reports))
    assert set(doc) == {"summary", "results"}
    assert set(doc["summary"]) == {"total", "passed", "failed", "errored"}
    assert doc["summary"]["total"] == len(reports)
    assert doc["summary"]["passed"] == len(reports)
    entry = doc["results"][0]
    assert list(entry) == ["id", "backend", "order", "tolerance", "subst",
                           "status", "first_mismatch_order", "relative_diff",
                           "lhs_digest", "rhs_digest", "wall_ms"]
    assert entry["status"] == "pass"
    assert entry["order"] == 32


@pytest.mark.parametrize("backend,order,tolerance", [("exact", 64, None),
                                                     ("numeric", None, 1e-9)])
def test_emit_report_no_admissible_grid_point(backend, order, tolerance):
    record, = parse_catalog("""
identity never { anchor "t"; params z; constraints abs(z) < 0; lhs = z; rhs = z; }
""")
    doc = json.loads(emit_report(verify_record(record, backend=backend)))
    assert doc["results"] == [{
        "id": "never", "backend": backend, "order": order, "tolerance": tolerance,
        "subst": {}, "status": "error", "first_mismatch_order": None,
        "relative_diff": None, "lhs_digest": None, "rhs_digest": None, "wall_ms": 0}]


def test_emit_report_mismatch_field(catalog):
    import dataclasses

    record = catalog["1.4.10"]
    mutated = dataclasses.replace(
        record, rhs=parse_expr("1 / poch(q; q)_inf^2 "
                               "* sum(k=0..inf; (-1)^k * q^(tri(k)+1))"))
    report = verify(mutated, GridPoint({}, {}), order=32)
    doc = json.loads(emit_report([report]))
    assert doc["results"][0]["status"] == "mismatch"
    assert doc["results"][0]["first_mismatch_order"] is not None
    assert doc["summary"]["failed"] == 1
