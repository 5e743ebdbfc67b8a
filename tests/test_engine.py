"""Evaluation engine: exact and numeric backends, truncated sums,
sectioning, and the backend-agreement invariant."""

import itertools
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpc

from conftest import fundamental_lemma_sides

from qsv import numeric as num
from qsv.dsl import parse_expr
from qsv.engine import (
    MAX_NUMERIC_MSUM_TERMS,
    ExactEnv,
    ExactEvaluator,
    NumericEnv,
    NumericEvaluator,
    eval_exact,
    eval_numeric,
)
from qsv.errors import NonConvergence, NonIntegerExponent, NonTruncatable, ValuationStall
from qsv.exact import ParamValue, series_add, series_inv, series_mul, series_one
from qsv.expr import Div, Sum
from qsv.qkernel import ThetaKind, poch_infinite, theta_series


def pv(c, m):
    return ParamValue(F(c), m)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), mpmath.mpf(1e-30))


QBIN_LHS = parse_expr("sum(k=0..inf; poch(a;q)_k / poch(q;q)_k * z^k)")
QBIN_RHS = parse_expr("poch(a*z;q)_inf / poch(z;q)_inf")


# -- exact backend --------------------------------------------------------------


def test_qbin_partition_series():
    # a = 0, z = q reduces the sum to the partition generating function
    env = ExactEnv(order=10, params={"a": pv(0, 0), "z": pv(1, 1)})
    got = eval_exact(QBIN_LHS, env)
    assert [int(c) for c in got.coeffs] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert got == eval_exact(QBIN_RHS, env)


def test_theta_builtin_delegates():
    env = ExactEnv(order=24)
    assert eval_exact(parse_expr("psi()"), env) == theta_series(ThetaKind.PSI, 24)
    assert (eval_exact(parse_expr("phi_minus()"), env)
            == theta_series(ThetaKind.PHI_MINUS, 24))


def test_valuation_stall_on_flat_driver():
    # a sum whose driver has q-power zero never gains valuation
    lhs = parse_expr("sum(k=0..inf; poch(a; q^h)_k / poch(q^h; q^h)_k"
                     " * poch(b; q^t)_(h*k) / poch(c; q^t)_(h*k) * z^k)")
    env = ExactEnv(order=16, params={"a": pv(1, 1), "b": pv(-1, 1),
                                     "c": pv(1, 2), "z": pv(F(1, 2), 0)},
                   exps={"h": 2, "t": 1})
    with pytest.raises(ValuationStall):
        eval_exact(lhs, env)


def test_dipping_exponent_is_summed_through_its_dip():
    # sum of q^((k-20)^2) over k >= 0: the terms' valuations fall from 400
    # to 0 and rise again, so every square below the order appears twice
    env = ExactEnv(order=64)
    got = eval_exact(parse_expr("sum(k=0..inf; q^(k*k - 40*k + 400))"), env)
    assert got.coeffs == tuple(F(1 if i == 0 else 2 if round(i ** 0.5) ** 2 == i else 0)
                               for i in range(64))


@pytest.mark.parametrize("text", [
    "sum(k=0..inf; q^(40 - 2*k))",  # a falling bound
    "sum(k=0..inf; q^k + z^k)",     # one polynomial of the bound never rises
])
def test_bound_that_need_not_reach_the_order_stalls(text):
    env = ExactEnv(order=16, params={"z": pv(F(1, 2), 0)})
    with pytest.raises(ValuationStall, match=r"^terms of the sum over 'k' stopped gaining "
                                             r"q-valuation \(bound "):
        eval_exact(parse_expr(text), env)


def test_guarded_term_is_evaluated_though_its_bound_is_past_the_order():
    # the bound k*k + 20 is past the order at every k, but (a*q^k; q)_inf
    # with a = 1 does not truncate at k = 0, where the guard k is 0: that
    # term is evaluated, and raises, rather than skipped.  With a = q the
    # guard is k + 1, never 0, and every term is skipped.
    e = parse_expr("sum(k=0..inf; q^(k*k + 20) / poch(a*q^k; q)_inf)")
    with pytest.raises(NonTruncatable):
        eval_exact(e, ExactEnv(order=16, params={"a": pv(1, 0)}))
    assert eval_exact(e, ExactEnv(order=16, params={"a": pv(1, 1)})).is_zero()


def test_negative_cross_term_stalls():
    # j*j + k*k - j*k >= 0 everywhere, but a negative cross term has no proven bound
    env = ExactEnv(order=16)
    with pytest.raises(ValuationStall, match="negative cross term"):
        eval_exact(parse_expr("msum(j, k; q^(j*j + k*k - j*k))"), env)


def test_infinite_poch_zero_valuation_is_hard_error():
    env = ExactEnv(order=8, params={"z": pv(1, 0)})
    with pytest.raises(NonTruncatable):
        eval_exact(parse_expr("poch(z;q)_inf"), env)


def test_negative_exponent_rejected():
    env = ExactEnv(order=8, exps={"t": 1})
    with pytest.raises(NonIntegerExponent):
        eval_exact(parse_expr("q^(t-2)"), env)


# -- qomega and qstride: the Pochhammer quotients they equal -------------------


def exact_series(text, order, **exps):
    return eval_exact(parse_expr(text), ExactEnv(order=order, exps=exps))


def test_qomega_quotient():
    assert exact_series("qomega(1)_3", 12) == series_one(12)
    # h = 2, j = 1: (1-q^2)/(1-q) = 1+q
    assert [int(c) for c in exact_series("qomega(2)_1", 6).coeffs] == [1, 1, 0, 0, 0, 0]
    # infinite form agrees with the ratio of infinite products
    expected = series_mul(poch_infinite(pv(1, 2), 2, 16),
                          series_inv(poch_infinite(pv(1, 1), 1, 16)))
    assert exact_series("qomega(2)_inf", 16) == expected


def test_qomega_quotient_matches_literal_complex_product():
    # h = 3, j = 2: the rational quotient equals the literal product
    # (q w; q)_2 (q w^2; q)_2 with w = exp(2 pi i/3), evaluated at q = 0.2
    q = mpmath.mpf("0.2")
    quotient = mpmath.polyval(exact_series("qomega(3)_2", 40).coeffs[::-1], q)
    w = mpmath.exp(2j * mpmath.pi / 3)
    literal = (num.qpoch_finite_numeric(q * w, q, 2)
               * num.qpoch_finite_numeric(q * w ** 2, q, 2))
    assert abs(mpc(quotient) - literal) < 1e-12


def test_qstride_quotient():
    assert exact_series("qstride(1)_4", 10) == series_one(10)
    # (q;q^2)_2 = (1-q)(1-q^3)
    got = exact_series("qstride(2)_2", 8)
    assert [int(c) for c in got.coeffs] == [1, -1, 0, -1, 1, 0, 0, 0]


@pytest.mark.parametrize("text", ["qomega(h)_k", "qstride(h)_k", "qstride(h)_inf"])
def test_qomega_qstride_quotient_is_built_once_per_node(text):
    node = parse_expr(text)
    assert node.quotient is node.quotient
    assert node.quotient == parse_expr(text).quotient


def test_numeric_sum_reads_one_qomega_quotient(monkeypatch):
    # every term of the sum evaluates the same quotient tree, not a new one
    e = parse_expr("sum(k=0..inf; qomega(h)_k * z^k)")
    quotients = []
    eval_node = NumericEvaluator._eval_node

    def recording(self, node, sym, plan):
        if isinstance(node, Div):
            quotients.append(node)  # kept alive, so ids stay distinct
        return eval_node(self, node, sym, plan)

    monkeypatch.setattr(NumericEvaluator, "_eval_node", recording)
    NumericEvaluator(NumericEnv(q=0.3, params={"z": 0.4}, exps={"h": 2})).eval(e)
    assert len(quotients) > 5
    assert len({id(node) for node in quotients}) == 1


@pytest.mark.parametrize("backend,text,exps,message", [
    ("numeric", "qomega(2)_n", {"n": 1.5}, "product length must be a non-negative integer"),
    ("numeric", "qstride(2)_n", {"n": -1}, "product length must be a non-negative integer"),
    ("numeric", "qomega(h)_2", {"h": 1.5}, "h must be a positive integer"),
    ("exact", "qstride(h)_2", {"h": 0}, "base exponent h = 0 < 1"),
    ("exact", "1/qstride(h)_2", {"h": 0}, "base exponent h = 0 < 1"),
    ("exact", "1/qomega(2)_(n-1)", {"n": 0}, "Pochhammer length -1 \\+ n = -1 < 0"),
], ids=["omega-len-1.5", "stride-len-1", "omega-h1.5", "stride-h0", "stride-inv-h0",
        "omega-inv-j-1"])
def test_qomega_qstride_check_base_and_length(backend, text, exps, message):
    # unchecked, the quotient would read (q;q)_1.5 as a complex-index
    # product and (q;q)_-2 as a division by zero
    with pytest.raises(NonIntegerExponent, match=message):
        if backend == "exact":
            exact_series(text, 8, **exps)
        else:
            eval_numeric(parse_expr(text), NumericEnv(q=0.2, exps=exps))


def test_monomial_power_paths():
    env = ExactEnv(order=12, params={"a": pv(F(1, 2), 1)}, exps={"h": 2})
    got = eval_exact(parse_expr("(a*q^h)^2"), env)
    assert got.coeffs[6] == F(1, 4)
    assert sum(1 for c in got.coeffs if c) == 1


def test_sum_with_start_and_step():
    # sum over k = 1, 3, 5, ... of z^k at z = q: q/(1-q^2)
    env = ExactEnv(order=12, params={"z": pv(1, 1)})
    got = eval_exact(parse_expr("sum(k=1..inf step 2; z^k)"), env)
    expected = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert [int(c) for c in got.coeffs] == expected


# -- sectioned sums ---------------------------------------------------------------


def test_sectioned_sum_splits_total():
    summand = parse_expr("z^k / poch(q;q)_k")
    for z in (pv(1, 1), pv(-1, 2)):
        env = ExactEnv(order=24, params={"z": z})
        full = eval_exact(parse_expr("sum(k=0..inf; z^k / poch(q;q)_k)"), env)
        # one section starting at zero is the ordinary sum
        assert eval_exact(Sum("k", 0, 1, summand), env) == full
        for r in (2, 3):
            parts = [eval_exact(Sum("k", s, r, summand), env)
                     for s in range(r)]
            total = parts[0]
            for p in parts[1:]:
                total = series_add(total, p)
            assert total == full


def test_sectioned_sum_splits_catalog_summands(catalog):
    # the same consistency on summands lifted from shipped records
    from qsv.expr import Mul, Sum

    cases = []
    rec = catalog["gb-1.4.12"]

    def find_sum(e):
        if isinstance(e, Sum):
            return e
        for attr in ("left", "right", "arg", "summand"):
            child = getattr(e, attr, None)
            if child is not None and hasattr(child, "__class__"):
                found = find_sum(child) if hasattr(child, "__dataclass_fields__") else None
                if found is not None:
                    return found
        return None

    node = find_sum(rec.lhs)
    env = ExactEnv(order=32, params={"a": pv(1, 1), "b": pv(F(-1, 2), 1)},
                   exps={"h": 2, "t": 1})
    full = eval_exact(node, env)
    for r in (2, 3):
        parts = [eval_exact(Sum(node.index, s, r, node.summand), env)
                 for s in range(r)]
        total = parts[0]
        for p in parts[1:]:
            total = series_add(total, p)
        assert total == full


def test_sectioned_even_part_matches_root_average():
    # even section of sum z^k/(q;q)_k at z = q equals the average of
    # 1/(q;q)_inf at z = q and z = -q (the two-section root filter)
    n = 32
    env = ExactEnv(order=n, params={"z": pv(1, 1)})
    summand = parse_expr("z^k / poch(q;q)_k")
    sectioned = eval_exact(Sum("k", 0, 2, summand), env)
    plus = series_inv(poch_infinite(pv(1, 1), 1, n))
    minus = series_inv(poch_infinite(pv(-1, 1), 1, n))
    avg = series_add(plus, minus)
    avg = type(avg)(n, tuple(c / 2 for c in avg.coeffs))
    assert sectioned == avg


def test_sectioned_geometric_tail():
    # k = 1, 3, 5, ... of z^k: z/(1 - z^2) as a series at z = q
    env = ExactEnv(order=16, params={"z": pv(1, 1)})
    got = eval_exact(Sum("k", 1, 2, parse_expr("z^k")), env)
    assert [int(c) for c in got.coeffs] == [0, 1, 0, 1] * 4


def test_numeric_sectioning_roots_route():
    env = NumericEnv(q=0.3, params={"z": 0.4}, tol=1e-12)
    ev = NumericEvaluator(env)
    summand = parse_expr("z^k / poch(q;q)_k")
    twisted = parse_expr("sum(k=0..inf; z^k / poch(q;q)_k * w^k)")
    for r, s in ((2, 0), (2, 1), (3, 1)):
        direct = ev.eval(Sum("k", s, r, summand))
        with mpmath.workdps(num.WORK_DPS):
            roots = [mpmath.exp(2j * mpmath.pi * nu / r) for nu in range(r)]
            averaged = sum(w ** -s * eval_numeric(twisted, NumericEnv(
                q=0.3, params={"z": 0.4, "w": w}, tol=1e-12)) for w in roots) / r
        assert rel_err(direct, averaged) < 1e-10


# -- multisums ----------------------------------------------------------------------


def test_multisum_single_index_equals_sum():
    msum = parse_expr("msum(k; poch(a;q)_k / poch(q;q)_k * z^k)")
    plain = parse_expr("sum(k=0..inf; poch(a;q)_k / poch(q;q)_k * z^k)")
    env = ExactEnv(order=32, params={"a": pv(-1, 1), "z": pv(F(1, 2), 1)})
    assert eval_exact(msum, env) == eval_exact(plain, env)


def test_multisum_order_independence():
    e12 = parse_expr("msum(k1, k2; z1^k1 * z2^k2 "
                     "/ (poch(q;q)_k1 * poch(q^2;q^2)_k2))")
    e21 = parse_expr("msum(k2, k1; z1^k1 * z2^k2 "
                     "/ (poch(q;q)_k1 * poch(q^2;q^2)_k2))")
    env = ExactEnv(order=20, params={"z1": pv(1, 1), "z2": pv(-1, 1)})
    assert eval_exact(e12, env) == eval_exact(e21, env)


def test_multisum_matches_brute_force():
    e = parse_expr("msum(k1, k2; z1^k1 * z2^k2 / poch(q;q)_(k1+k2))")
    env = ExactEnv(order=14, params={"z1": pv(1, 1), "z2": pv(1, 2)})
    got = eval_exact(e, env)
    # brute force over an ample rectangle
    ev = ExactEvaluator(env)
    summand = e.summand
    total = None
    for k1, k2 in itertools.product(range(16), repeat=2):
        term = ev.eval(summand, {"k1": k1, "k2": k2})
        total = term if total is None else series_add(total, term)
    assert got == total


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("c", ["0", "2", "1/2", "1"])
def test_const0_of_a_finite_pochhammer(c, n):
    e = parse_expr(f"poch({c}; q)_{n}")
    env = ExactEnv(order=4)
    assert ExactEvaluator(env).const0(e, {}) == eval_exact(e, env)[0]


def test_multisum_stall_detection():
    e = parse_expr("msum(k1, k2; z1^k1 * z2^k2)")
    env = ExactEnv(order=12, params={"z1": pv(1, 1), "z2": pv(F(1, 3), 0)})
    with pytest.raises(ValuationStall):
        eval_exact(e, env)


# -- the boundaries of the exact backend's proven rules: each case sits where
# a one-token change to a rule gives a wrong value (see scripts/mutants.py)


def test_stop_rule_sums_past_the_cauchy_bound():
    # 3k^2 - 20k - 20 has its root near 7.55, under Cauchy's bound 1 + 20/3:
    # the k = 7 term has valuation 64, the k = 8 term valuation 63
    got = eval_exact(parse_expr("sum(k=0..inf; q^(k^3 - 10*k^2 - 20*k + 351))"),
                     ExactEnv(order=64))
    assert got.coeffs == (0,) * 63 + (1,)


def test_guarded_term_with_a_vanishing_denominator_is_evaluated():
    # the bound reaches the order at every term, but the k = 3 term divides by 0
    e = parse_expr("sum(k=0..inf; q^(k+64) / (1 - b^(k-3)))")
    with pytest.raises(ValuationStall):
        eval_exact(e, ExactEnv(order=8, params={"b": pv(2, 0)}))


def test_chain_step_keeps_the_last_factor_below_the_order():
    # the chain's factor (1 - 2q^63) is the last one that is not 1 mod q^64
    got = eval_exact(parse_expr("sum(k=0..inf; poch(2; q)_(64+k) * q^k)"),
                     ExactEnv(order=64))
    assert got[63] == -3455


def test_numeric_msum_is_bounded_by_total_terms():
    # nothing decays along k2, so shell d holds about d^2/2 terms: a cap on
    # shells alone would run about 10^9 terms, the total-term cap ends it
    e = parse_expr("msum(k1, k2, k3; poch(a; q)_k1 * z^k1 * poch(b; q)_k2"
                   " * poch(w; q)_(k1+k2+k3) * c^k3)")
    env = NumericEnv(q=0.3, params={name: 0.5 for name in "abcwz"})
    with pytest.raises(NonConvergence, match=f"within {MAX_NUMERIC_MSUM_TERMS} terms"):
        eval_numeric(e, env)


# -- numeric backend -----------------------------------------------------------------


def test_qbin_numeric_both_sides():
    env = NumericEnv(q=0.3, params={"a": 0.2, "z": 0.4}, tol=1e-12)
    lhs = eval_numeric(QBIN_LHS, env)
    rhs = eval_numeric(QBIN_RHS, env)
    assert rel_err(lhs, rhs) < 1e-10


def test_numeric_complex_exponents():
    lhs = parse_expr(
        "poch(b*w; q^t)_inf / poch(w; q^t)_inf"
        " * sum(k=0..inf; poch(a; q^h)_k / poch(q^h; q^h)_k"
        " * poch(w; q^t)_(h*k) / poch(b*w; q^t)_(h*k) * z^k)")
    rhs = parse_expr(
        "poch(a*z; q^h)_inf / poch(z; q^h)_inf"
        " * sum(j=0..inf; poch(b; q^t)_j / poch(q^t; q^t)_j"
        " * poch(z; q^h)_(t*j) / poch(a*z; q^h)_(t*j) * w^j)")
    env = NumericEnv(q=0.35, params={"a": 0.1, "b": 0.2, "w": 0.3, "z": 0.25},
                     exps={"h": 1.5, "t": 0.7}, tol=1e-11)
    assert rel_err(eval_numeric(lhs, env), eval_numeric(rhs, env)) < 1e-9


# -- numeric evaluator memos: per evaluator, keyed by (x, base) ---------------------


def test_numeric_finite_prefix_shrinks_and_grows():
    # one evaluator, lengths out of order: the shared prefix must hand back
    # exactly the from-scratch product, separately for each argument and base
    env = NumericEnv(q=0.3, params={"a": 0.4, "b": -0.6},
                     exps={"h": 1.5, "t": 0.7})
    ev = NumericEvaluator(env)
    with mpmath.workdps(num.WORK_DPS):
        for n in (7, 3, 12):
            for name, base in itertools.product(("a", "b"), ("h", "t")):
                x, qbase = env.params[name], num.cpow(env.q, env.exps[base])
                got = ev.eval(parse_expr(f"poch({name}; q^{base})_n"), {"n": n})
                assert got == num.qpoch_finite_numeric(x, qbase, n)
                got = ev.eval(parse_expr(f"poch({name}; q^{base})_inf"))
                assert got == num.qpoch_inf_numeric(x, qbase, env.tol)


def test_numeric_complex_length_sum_matches_reference():
    summand = ("poch(a; q^h)_k / poch(q^h; q^h)_k"
               " * poch(w; q^t)_(h*k) / poch(b*w; q^t)_(h*k) * z^k")
    q, a, b, w, z = 0.35, 0.1, 0.2, 0.3, 0.25
    h, t = complex(1.2, 0.3), 0.7
    env = NumericEnv(q=q, params={"a": a, "b": b, "w": w, "z": z},
                     exps={"h": h, "t": t}, tol=1e-12)
    got = eval_numeric(parse_expr(f"sum(k=0..inf; {summand})"), env)

    with mpmath.workdps(num.WORK_DPS):
        qh, qt = num.cpow(q, h), num.cpow(q, t)
        bw = mpc(b) * mpc(w)

        def term(k):
            length = mpc(h) * k
            return (num.qpoch_complex_index(a, qh, k, env.tol)
                    / num.qpoch_complex_index(qh, qh, k, env.tol)
                    * num.qpoch_complex_index(w, qt, length, env.tol)
                    / num.qpoch_complex_index(bw, qt, length, env.tol)
                    * mpc(z) ** k)

        assert rel_err(got, num.sum_with_tail_bound(term, env.tol)) < 1e-25


def test_numeric_memos_do_not_outlive_their_evaluator():
    expr = parse_expr("poch(a; q^h)_inf / poch(z; q^h)_inf * poch(a; q^h)_n")
    values = []
    for q in (0.2, 0.35, 0.2):
        env = NumericEnv(q=q, params={"a": 0.3, "z": 0.25}, exps={"h": 1.5})
        with mpmath.workdps(num.WORK_DPS):
            qh = num.cpow(q, 1.5)
            expected = (num.qpoch_inf_numeric(0.3, qh, env.tol)
                        / num.qpoch_inf_numeric(0.25, qh, env.tol)
                        * num.qpoch_finite_numeric(0.3, qh, 5))
        values.append(NumericEvaluator(env).eval(expr, {"n": 5}))
        assert values[-1] == expected
    assert values[2] == values[0] != values[1]


def test_backend_agreement_on_catalog(catalog_records):
    # exact series evaluated at q = 0.2 must match the numeric backend at
    # the same substitution (picking a grid point whose numeric magnitudes
    # stay inside the declared convergence region)
    from qsv.verifier import default_exact_grid, numeric_constraints_ok

    q = mpmath.mpf("0.2")
    for record in catalog_records:
        chosen = None
        for point in default_exact_grid(record):
            nenv = NumericEnv(
                q=q,
                params={k: complex(v.coeff) * 0.2 ** v.qpow
                        for k, v in point.params.items()},
                exps=dict(point.exps), tol=1e-12)
            if numeric_constraints_ok(record, nenv):
                chosen = (point, nenv)
                break
        assert chosen is not None, f"no numerically admissible point: {record.id}"
        point, nenv = chosen
        env = ExactEnv(order=64, params=point.params, exps=point.exps)
        for side in (record.lhs, record.rhs):
            exact_value = mpmath.polyval(eval_exact(side, env).coeffs[::-1], q)
            numeric_value = eval_numeric(side, nenv)
            assert rel_err(mpc(exact_value), numeric_value) < 1e-8, record.id


# -- Fundamental Lemma numeric sides ----------------------------------------------------


@pytest.mark.parametrize("r,s", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)])
def test_fundamental_lemma_sections(r, s):
    lhs, rhs = fundamental_lemma_sides(r, s)
    assert rel_err(lhs, rhs) < 1e-8


def test_fundamental_lemma_r1_matches_catalog_record(catalog):
    # the one-section instance with u = h, v = 0 is the plain bibasic
    # transformation; both records must produce identical exact series
    fl = catalog["andrews-fl-r1"]
    heine = catalog["gb-heine"]
    params = {"a": pv(1, 1), "b": pv(F(1, 2), 1), "c": pv(2, 2), "z": pv(-1, 1)}
    for h, t in ((1, 1), (2, 1), (1, 2), (2, 3)):
        env_fl = ExactEnv(order=48, params=params,
                          exps={"h": h, "t": t, "u": h, "v": 0})
        env_gb = ExactEnv(order=48, params=params, exps={"h": h, "t": t})
        fl_l = eval_exact(fl.lhs, env_fl)
        fl_r = eval_exact(fl.rhs, env_fl)
        gb_l = eval_exact(heine.lhs, env_gb)
        gb_r = eval_exact(heine.rhs, env_gb)
        assert fl_l == gb_l
        assert fl_r == gb_r
        assert fl_l == fl_r


def test_numeric_constraint_violation():
    from qsv.errors import ConstraintViolation
    from qsv.verifier import numeric_constraints_ok

    record_like = parse_expr("q^(h*t)")
    # |q^{ht}| must stay below the margin: h = t = 0.1 at q = 0.35 gives
    # |q^{0.01}| ~ 0.99
    env = NumericEnv(q=0.35, exps={"h": 0.1, "t": 0.1})
    value = NumericEvaluator(env).eval(record_like)
    assert abs(value) > 0.95
