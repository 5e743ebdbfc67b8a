"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criteria, tolerances, and orders are pinned here; nothing is deferred to
later calibration.
"""

import hashlib
import json
import random
import time
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpc

from conftest import fundamental_lemma_sides, perturb_record
from test_catalog import EXPECTED_IDS

from qsv.cli import main as cli_main
from qsv.dsl import parse_expr
from qsv.engine import ExactEnv, NumericEnv, eval_exact, eval_numeric
from qsv.exact import ParamValue, QSeries, series_add, series_mul, series_shift
from qsv.qkernel import ThetaKind, poch_infinite, theta_product, theta_series
from qsv.verifier import (
    default_exact_grid,
    derive_check,
    emit_report,
    verify,
    verify_record,
)


def announce(number, ok, text):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number}: {text}"


def pv(c, m):
    return ParamValue(F(c), m)


def rel(a, b):
    return float(abs(a - b) / max(abs(a), abs(b), mpmath.mpf(1e-30)))


def test_criterion_01_catalog_completeness(catalog):
    missing = [rid for rid in EXPECTED_IDS if rid not in catalog]
    anchors_ok = all(record.anchor for record in catalog.values())
    ok = not missing and len(catalog) >= 44 and anchors_ok
    announce(1, ok, f"catalog holds {len(catalog)} records (>= 44), "
                    f"all anchored, none missing")


def test_criterion_02_exact_sweep(catalog_records):
    t0 = time.time()
    reports = []
    grids_ok = True
    for record in sorted(catalog_records, key=lambda r: r.id):
        points = default_exact_grid(record)
        if record.params or record.exps:
            grids_ok = grids_ok and len(points) >= 3
        reports.extend(verify_record(record, backend="exact", order=64,
                                     points=points))
    wall = time.time() - t0
    bad = [r for r in reports if r.status != "pass"]
    ok = not bad and grids_ok and wall < 300
    announce(2, ok, f"exact sweep at order 64: {len(reports)} checks, "
                    f"{len(bad)} failures, >=3 points per sloted record, "
                    f"{wall:.0f}s (< 300s)")


def test_criterion_03_theta_product_vs_sum():
    ok = all(theta_series(kind, 200) == theta_product(kind, 200)
             for kind in (ThetaKind.PSI, ThetaKind.PHI_MINUS))
    announce(3, ok, "theta sum forms equal product forms at order 200")


def test_criterion_04_intro_pair(catalog):
    n = 128
    env = ExactEnv(order=n)
    rec_psi = catalog["entry-1.6.6"]
    rec_phi = catalog["entry-1.6.6-companion"]
    psi_ok = (eval_exact(rec_psi.rhs, env) == theta_series(ThetaKind.PSI, n)
              and eval_exact(rec_psi.lhs, env) == theta_series(ThetaKind.PSI, n))
    phi_ok = (eval_exact(rec_phi.rhs, env) == theta_series(ThetaKind.PHI_MINUS, n)
              and eval_exact(rec_phi.lhs, env)
              == theta_series(ThetaKind.PHI_MINUS, n))
    announce(4, psi_ok and phi_ok,
             "intro pair matches the two theta series at order 128")


def test_criterion_05_partition_oracle():
    limit = 41
    table = [0] * limit
    table[0] = 1
    for part in range(1, limit):
        for n in range(part, limit):
            table[n] += table[n - part]
    from qsv.exact import series_inv

    series = series_inv(poch_infinite(pv(1, 1), 1, limit))
    ok = [int(c) for c in series.coeffs] == table
    announce(5, ok, "1/(q;q)_inf coefficients equal p(n) for n <= 40")


def test_criterion_06_bibasic_numeric(catalog):
    record = catalog["gb-sym-heine"]
    results = []
    for h in (1.5, complex(1.2, 0.3)):
        env = NumericEnv(q=0.35, params={"a": 0.1, "b": 0.2, "w": 0.3,
                                         "z": 0.25},
                         exps={"h": h, "t": 0.7}, tol=1e-11)
        t0 = time.time()
        lhs = eval_numeric(record.lhs, env)
        rhs = eval_numeric(record.rhs, env)
        wall = time.time() - t0
        results.append((rel(lhs, rhs), wall))
    ok = all(r <= 1e-9 and w < 10 for r, w in results)
    announce(6, ok, "bibasic transformation at complex exponents: "
                    + ", ".join(f"rel={r:.1e} ({w:.1f}s)" for r, w in results))


def test_criterion_07_fundamental_lemma(catalog):
    diffs = []
    for r in (2, 3):
        for s in (0, 1):
            diffs.append(rel(*fundamental_lemma_sides(r, s)))
    sections_ok = all(d <= 1e-8 for d in diffs)

    # one-section instance (u = h, v = 0) against the plain bibasic record
    fl = catalog["andrews-fl-r1"]
    heine = catalog["gb-heine"]
    params = {"a": pv(1, 1), "b": pv(F(1, 2), 1), "c": pv(2, 2), "z": pv(-1, 1)}
    exact_ok = True
    for h, t in ((2, 1), (1, 2)):
        env_fl = ExactEnv(order=64, params=params,
                          exps={"h": h, "t": t, "u": h, "v": 0})
        env_gb = ExactEnv(order=64, params=params, exps={"h": h, "t": t})
        exact_ok = exact_ok and (
            eval_exact(fl.lhs, env_fl) == eval_exact(heine.lhs, env_gb)
            and eval_exact(fl.rhs, env_fl) == eval_exact(heine.rhs, env_gb))
    ok = sections_ok and exact_ok
    announce(7, ok, f"section counts 2,3 numeric (max rel {max(diffs):.1e}); "
                    f"one-section instance equals the bibasic record exactly")


def test_criterion_08_derivation_checks(catalog):
    required = [("1.4.1", {"h": 2, "t": 1}), ("1.4.2", {"h": 2}),
                ("1.4.5", {"h": 2}), ("1.4.3", {"h": 2, "t": 1}),
                ("1.4.4", {"h": 1, "t": 2}), ("1.4.12", {"h": 1}),
                ("1.4.18", {"h": 2, "t": 1}), ("1.6.6", {"s": 1, "t": 2})]
    results = {}
    for rid, expected_sub in required.copy():
        record = catalog[rid]
        sub = dict(record.lineage.sub)
        for name, value in expected_sub.items():
            assert sub.get(name) == value, (rid, name)
        results[rid] = derive_check(record, catalog)
    ok = all(results.values())
    announce(8, ok, "direct lineages verified structurally: "
                    + ", ".join(rid for rid in results))


def test_criterion_09_qlauricella(catalog):
    # one-index record against the plain bibasic record (shared grid,
    # cross-multiplied to absorb the moved product prefix)
    m1 = catalog["gb-qlauricella-m1"]
    sym = catalog["gb-sym-heine"]
    shared_ok = True
    for params in (
        {"a": pv(1, 1), "b": pv(-1, 1), "w": pv(F(1, 2), 1), "z": pv(2, 2)},
        {"a": pv(F(-1, 3), 1), "b": pv(F(1, 2), 1), "w": pv(1, 1), "z": pv(-1, 1)},
    ):
        m1_params = {"a1": params["a"], "b": params["b"], "w": params["w"],
                     "z1": params["z"]}
        for h, t in ((1, 1), (2, 1), (1, 2)):
            env1 = ExactEnv(order=64, params=m1_params, exps={"h1": h, "t": t})
            env2 = ExactEnv(order=64, params=params, exps={"h": h, "t": t})
            l1, r1 = eval_exact(m1.lhs, env1), eval_exact(m1.rhs, env1)
            l2, r2 = eval_exact(sym.lhs, env2), eval_exact(sym.rhs, env2)
            shared_ok = shared_ok and (l1 == r1) and (l2 == r2) and (
                series_mul(l1, r2) == series_mul(l2, r1))

    # two and three indices at pinned exponent vectors, order 48
    multi_ok = True
    m2 = catalog["gb-qlauricella-m2"]
    m3 = catalog["gb-qlauricella-m3"]
    base2 = {"a1": pv(1, 2), "a2": pv(-1, 2), "b": pv(F(1, 2), 2),
             "w": pv(2, 2), "z1": pv(F(-1, 3), 2), "z2": pv(1, 2)}
    base3 = dict(base2, a3=pv(F(1, 2), 3), z3=pv(-1, 2))
    for t in (1, 2):
        env2 = ExactEnv(order=48, params=base2, exps={"h1": 1, "h2": 2, "t": t})
        multi_ok = multi_ok and eval_exact(m2.lhs, env2) == eval_exact(m2.rhs, env2)
        env3 = ExactEnv(order=48, params=base3,
                        exps={"h1": 2, "h2": 2, "h3": 2, "t": t})
        multi_ok = multi_ok and eval_exact(m3.lhs, env3) == eval_exact(m3.rhs, env3)
    ok = shared_ok and multi_ok
    announce(9, ok, "index-vector transformation: one-index form matches the "
                    "bibasic record; two- and three-index instances verify "
                    "at order 48")


def test_criterion_10_sectioning(catalog):
    n = 128
    record = catalog["gb-1.6.5d"]
    env = ExactEnv(order=n)
    lhs = eval_exact(record.lhs, env)
    rhs = eval_exact(record.rhs, env)
    psi = theta_series(ThetaKind.PSI, n)
    even_part = QSeries.from_ints(
        n, [c if i % 2 == 0 else 0 for i, c in enumerate(psi.nums)], psi.den)
    psi_neg_q = eval_exact(parse_expr("sum(k=0..inf; (-1)^(tri(k)) * q^(tri(k)))"), env)
    averaged = series_shift(series_add(psi, psi_neg_q), F(1, 2), 0)
    ok = lhs == rhs and rhs == even_part and averaged == even_part
    announce(10, ok, "even-section record verifies at order 128 and equals "
                     "the even part of the triangular theta series, also as "
                     "(f(q)+f(-q))/2")


def test_criterion_11_mutation_sensitivity(catalog):
    sample = ["q-bin", "gb-sym-heine", "gb-heine", "1.4.1", "gb-1.4.12",
              "1.4.17", "gb-1.6.5", "gb-1.6.6", "gb-missing1", "1.4.9"]
    rng = random.Random(918273645)
    flagged = 0
    for rid in sample:
        record = catalog[rid]
        caught = False
        for _ in range(8):
            mutated = perturb_record(record, rng)
            if mutated is None:
                continue
            point = default_exact_grid(record)[0]
            report = verify(mutated, point, order=64)
            if report.status in ("mismatch", "error"):
                caught = True
                break
        flagged += caught
    ok = flagged == len(sample)
    announce(11, ok, f"injected faults detected in {flagged}/{len(sample)} "
                     f"sampled records at order 64")


def test_criterion_12_determinism(tmp_path, capsys):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        code = cli_main(["check-all", "--backend", "exact", "--order", "32",
                         "--report", str(path)])
        assert code == 0
    capsys.readouterr()
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        for entry in doc["results"]:
            entry["wall_ms"] = 0
    ok = docs[0] == docs[1]
    announce(12, ok, "consecutive catalog sweeps emit identical reports "
                     "modulo wall_ms")


#: SHA-256 of the order-32 exact ``check-all --report`` document of the
#: shipped catalog, with every ``wall_ms`` set to 0
EXACT_REPORT_SHA256 = "cd3765702436a84c56ea3dc413793b52f1250a51eaef6eebb3c34b345b5d0a7c"

#: the same for the numeric ``check-all --report`` document
NUMERIC_REPORT_SHA256 = "6ac26340b6567a97e3ce9c101380261dc1c87b5f3a1bb005bec7ad778ffdd633"


def _report_digest(tmp_path, capsys, *options):
    """SHA-256 of the ``check-all --report`` document, wall_ms zeroed."""
    path = tmp_path / "report.json"
    code = cli_main(["check-all", *options, "--report", str(path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(path.read_text())
    for entry in doc["results"]:
        entry["wall_ms"] = 0
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def test_exact_report_digest_is_pinned(tmp_path, capsys):
    """The exact sweep's report is byte-identical from change to change.
    The pinned digest changes only when the catalog does: the grids, the
    verdicts and the coefficient digests are all fixed by its records."""
    digest = _report_digest(tmp_path, capsys, "--backend", "exact", "--order", "32")
    assert digest == EXACT_REPORT_SHA256


def test_numeric_report_digest_is_pinned(tmp_path, capsys):
    """The numeric sweep's report, value digests and relative differences
    included, is byte-identical from change to change: a change of
    rounding anywhere in the numeric backend shows here."""
    digest = _report_digest(tmp_path, capsys, "--backend", "numeric")
    assert digest == NUMERIC_REPORT_SHA256
