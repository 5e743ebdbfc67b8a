"""Exact scalar/series arithmetic against independent oracles."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsv.dsl import parse_expr
from qsv.engine import ExactEnv, eval_exact
from qsv.errors import NegativeQPower, ZeroConstantTerm
from qsv.exact import (
    ParamValue,
    QSeries,
    series_add,
    series_apply_binomials,
    series_div_binomial,
    series_inv,
    series_monomial,
    series_mul,
    series_mul_binomial,
    series_mul_many,
    series_one,
    series_pow,
    series_shift,
    series_zero,
)

# -- independent oracles ------------------------------------------------------


def naive_poly_mul(f, g, order):
    """Dict-based polynomial multiplication, independent of series_mul."""
    out = {}
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            if i + j < order:
                out[i + j] = out.get(i + j, F(0)) + a * b
    return [out.get(i, F(0)) for i in range(order)]


def partition_counts(limit):
    """p(0..limit-1) by bounded-part dynamic programming."""
    table = [F(0)] * limit
    table[0] = F(1)
    for part in range(1, limit):
        for n in range(part, limit):
            table[n] += table[n - part]
    return table


def qs(coeffs, order=None):
    coeffs = [F(c) for c in coeffs]
    order = order or len(coeffs)
    coeffs += [F(0)] * (order - len(coeffs))
    return QSeries(order, tuple(coeffs[:order]))


# -- basic operations ---------------------------------------------------------


def test_add_identity():
    f = qs([1, 1, 0, 0])
    assert series_add(f, series_zero(4)) == f


def test_add_cancellation():
    f = qs([1, -1, 0])
    g = qs([0, 1, 0])
    assert series_add(f, g) == qs([1, 0, 0])


def test_add_disjoint_supports():
    f = qs([1, 0, 2])
    g = qs([0, 3, 0])
    assert series_add(f, g) == qs([1, 3, 2])


def test_mul_identity():
    f = qs([2, -3, F(1, 2), 5])
    assert series_mul(f, series_one(4)) == f


def test_mul_geometric_telescope():
    n = 16
    geom = qs([1] * n)
    one_minus_q = qs([1, -1], n)
    assert series_mul(one_minus_q, geom) == series_one(n)


def test_mul_matches_naive_oracle():
    f = [F(1), F(-1)]
    g = [F(1), F(0), F(-1)]
    expected = naive_poly_mul(f, g, 4)
    assert series_mul(qs(f, 4), qs(g, 4)) == qs(expected)


def test_mul_many_matches_pairwise():
    f, g, h = qs([1, 2, 3], 8), qs([F(1, 2), -1], 8), qs([0, 1, 1], 8)
    assert series_mul_many([f, g, h]) == series_mul(series_mul(f, g), h)


def test_inv_one():
    assert series_inv(series_one(8)) == series_one(8)


def test_inv_geometric():
    n = 12
    assert series_inv(qs([1, -1], n)) == qs([1] * n)


def test_inv_partition_oracle():
    # 1/(q;q)_inf has the partition numbers as coefficients
    n = 41
    factors = series_one(n)
    for r in range(1, n):
        factors = series_mul_binomial(factors, F(-1), r)
    inv = series_inv(factors)
    assert list(inv.coeffs) == partition_counts(n)


def test_inv_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        series_inv(qs([0, 1, 1]))


def test_binomial_helpers_match_series_mul():
    f = qs([1, 2, -1, F(3, 4), 0, 1], 10)
    direct = series_mul(f, qs([1, 0, 0, F(-1, 2)], 10))
    assert series_mul_binomial(f, F(-1, 2), 3) == direct
    assert series_div_binomial(direct, F(-1, 2), 3) == f


def test_shift_and_monomial():
    f = qs([1, 1], 6)
    assert series_shift(f, F(2), 3) == qs([0, 0, 0, 2, 2, 0])
    assert series_monomial(F(-1, 3), 2, 5) == qs([0, 0, F(-1, 3), 0, 0])


def test_pow():
    f = qs([1, 1], 8)
    assert series_pow(f, 3) == series_mul(series_mul(f, f), f)
    assert series_pow(f, 0) == series_one(8)
    assert series_pow(f, -2) == series_inv(series_mul(f, f))


def test_section_and_neg_q():
    # sections as the root filter over w = +-1 of f(w*q), and f(-q) as the
    # parsed text with q replaced by (-q), both on the exact evaluator
    poly = "1 + 2*q + 3*q^2 + 4*q^3 + 5*q^4 + 6*q^5"

    def at(text, **params):
        env = ExactEnv(order=6, params={name: ParamValue(c, 0) for name, c in params.items()})
        return eval_exact(parse_expr(text), env)

    f = at(poly)
    assert f == qs([1, 2, 3, 4, 5, 6])
    twisted = poly.replace("q", "(w*q)")

    def section(s):
        terms = [series_shift(at(twisted, w=w), F(w) ** -s / 2, 0) for w in (1, -1)]
        return series_add(*terms)

    assert section(0) == qs([1, 0, 3, 0, 5, 0])
    assert section(1) == qs([0, 2, 0, 4, 0, 6])
    f_neg_q = at(poly.replace("q", "(-q)"))
    assert f_neg_q == qs([1, -2, 3, -4, 5, -6])
    even = section(0)
    averaged = series_add(f, f_neg_q)
    assert averaged == qs([2 * c for c in even.coeffs])


# -- integer kernels against plain-Fraction reference loops ---------------------

KERNEL_ORDERS = (0, 1, 17, 64)


def random_coeffs(order, seed, nonzero_head=False):
    rng = random.Random(seed)
    out = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(order)]
    if nonzero_head and order:
        out[0] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    return out


def ref_mul_binomial(a, c, e):
    return [x + (c * a[i - e] if i >= e else 0) for i, x in enumerate(a)]


def ref_div_binomial(a, c, e):
    out = list(a)
    for i in range(e, len(out)):
        out[i] -= c * out[i - e]
    return out


def ref_inv(a):
    out = []
    for i in range(len(a)):
        acc = F(1) if i == 0 else F(0)
        acc -= sum(a[j] * out[i - j] for j in range(1, i + 1))
        out.append(acc / a[0])
    return out


@pytest.mark.parametrize("order", KERNEL_ORDERS)
@pytest.mark.parametrize("c", [F(1), F(-1), F(1, 2), F(-2, 3), F(2)])
def test_binomial_steps_match_reference(c, order):
    a = random_coeffs(order, seed=order)
    for e in range(1, 6):
        got = series_mul_binomial(qs(a, order), c, e)
        assert got.coeffs == tuple(ref_mul_binomial(a, c, e))
        got = series_div_binomial(qs(a, order), c, e)
        assert got.coeffs == tuple(ref_div_binomial(a, c, e))
    # one stepper call over a mixed run, with e = 0 and e >= order, equals
    # the single steps in turn and the plain-Fraction loops, normalised
    run = [(c, 0, False), (c, 2, True), (-c, 1, False), (c / 3, 1, True),
           (c, order, True), (2 * c, order + 3, False), (-c, 3, True), (c / 2, 0, True)]
    got = series_apply_binomials(qs(a, order), run)
    stepped, ref = qs(a, order), list(a)
    for c_i, e, inverse in run:
        step = series_div_binomial if inverse else series_mul_binomial
        stepped = step(stepped, c_i, e)
        ref = ([x / (1 + c_i) for x in ref] if inverse and e == 0
               else (ref_div_binomial if inverse else ref_mul_binomial)(ref, c_i, e))
    assert got == stepped and got.coeffs == tuple(ref)
    assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
    if order:  # modulo q^0 every factor is 1
        with pytest.raises(ZeroConstantTerm):
            series_apply_binomials(qs(a, order), [(c, 2, False), (F(-1), 0, True)])


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_integer_kernels_match_reference(order):
    a, b = random_coeffs(order, 1), random_coeffs(order, 2)
    f, g = qs(a, order), qs(b, order)
    assert series_add(f, g).coeffs == tuple(x + y for x, y in zip(a, b))
    assert series_shift(f, F(-3, 4), 0).coeffs == tuple(F(-3, 4) * x for x in a)
    for m in (0, 1, 5, order + 2):
        want = ([F(0)] * m + [F(2, 3) * x for x in a])[:order]
        assert series_shift(f, F(2, 3), m).coeffs == tuple(want)
    assert series_mul(f, g).coeffs == tuple(naive_poly_mul(a, b, order))
    h = random_coeffs(order, 3, nonzero_head=True)
    assert series_inv(qs(h, order)).coeffs == tuple(ref_inv(h))


def test_series_are_normalised():
    f = qs([F(1, 2), F(-1, 3), 0, 4], 4)
    assert (f.nums, f.den) == ((3, -2, 0, 24), 6)
    doubled = QSeries.from_ints(4, [2 * x for x in f.nums], 2 * f.den)
    assert doubled == f and hash(doubled) == hash(f)
    negated = QSeries.from_ints(4, [-x for x in f.nums], -f.den)
    assert negated == f and hash(negated) == hash(f)
    for zero in (series_zero(5), series_add(f, series_shift(f, -1, 0)),
                 QSeries.from_ints(3, [0, 0, 0], 7), series_zero(0)):
        assert zero.den == 1 and zero.is_zero()


def test_shift_to_a_larger_order():
    f = qs([1, 2], 2)
    assert series_shift(f, 3, 2, order=4) == qs([0, 0, 3, 6])
    with pytest.raises(ValueError):
        series_shift(f, 1, 2, order=5)


def test_negative_shift_drops_only_zero_coefficients():
    # q^-2 * (3q^2 + q^3), known mod q^5, is 3 + q known mod q^3
    f = qs([0, 0, 3, 1, 0])
    assert series_shift(f, F(1, 3), -2) == qs([1, F(1, 3), 0])
    assert series_shift(f, 1, -2, order=2) == qs([3, 1])
    with pytest.raises(ValueError):
        series_shift(f, 1, -2, order=4)
    for g in (qs([0, 1, 3, 0, 0]), qs([1, 0, 0, 0, 0])):
        with pytest.raises(NegativeQPower):
            series_shift(g, 1, -2)


# -- property tests ------------------------------------------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def series_strategy(draw, min_order=1, max_order=12):
    n = draw(st.integers(min_order, max_order))
    coeffs = draw(st.lists(small_fracs, min_size=n, max_size=n))
    return QSeries(n, tuple(F(c) for c in coeffs))


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    n = min(f.order, g.order, h.order)
    f, g, h = f.truncate(n), g.truncate(n), h.truncate(n)
    assert series_add(series_add(f, g), h) == series_add(f, series_add(g, h))
    assert series_mul(f, g) == series_mul(g, f)
    left = series_mul(f, series_add(g, h))
    right = series_add(series_mul(f, g), series_mul(f, h))
    assert left == right


@given(series_strategy())
@settings(max_examples=60, deadline=None)
def test_inv_is_right_inverse(f):
    if f.coeffs[0] == 0:
        f = QSeries(f.order, (F(1),) + f.coeffs[1:])
    assert series_mul(f, series_inv(f)) == series_one(f.order)


@given(st.integers(-40, 40), st.integers(1, 40))
def test_rational_round_trip(num, den):
    if num == 0:
        num = 1
    x = F(num, den)
    assert x * (1 / x) == 1
    assert F(x.numerator, x.denominator) == x


# -- ParamValue ----------------------------------------------------------------


def test_param_value_mul_div():
    a = ParamValue(F(1, 2), 1)
    b = ParamValue(F(-3), 2)
    assert a.mul(b) == ParamValue(F(-3, 2), 3)
    assert b.div(a) == ParamValue(F(-6), 1)
    with pytest.raises(NegativeQPower):
        a.div(b)


def test_param_value_pow_and_neg():
    a = ParamValue(F(-2), 1)
    assert a.pow(3) == ParamValue(F(-8), 3)
    assert a.pow(0) == ParamValue(F(1), 0)
    assert a.neg() == ParamValue(F(2), 1)
    with pytest.raises(NegativeQPower):
        a.pow(-1)
    assert ParamValue(F(3), 0).pow(-2) == ParamValue(F(1, 9), 0)


def test_param_value_rejects_negative_qpow():
    with pytest.raises(NegativeQPower):
        ParamValue(F(1), -1)

