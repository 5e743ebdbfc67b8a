"""Pochhammer kernel and theta functions over the exact backend."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsv.errors import NonTruncatable
from qsv.exact import ParamValue, QSeries, series_inv, series_mul, series_one
from qsv.qkernel import (
    ThetaKind,
    omega_product_collapse,
    poch_elementary_ratio,
    poch_finite,
    poch_finite_inv,
    poch_infinite,
    poch_infinite_inv,
    poch_stride_product,
    stride_base_product,
    theta_product,
    theta_series,
)


def naive_poch(coeff, qpow, h, k, order):
    """Expand prod_{i<k} (1 - x q^{h i}) by naive polynomial multiplication."""
    out = {0: F(1)}
    for i in range(k):
        e = qpow + h * i
        new = dict(out)
        for d, c in out.items():
            if d + e < order:
                new[d + e] = new.get(d + e, F(0)) - coeff * c
        out = new
    return QSeries(order, tuple(out.get(i, F(0)) for i in range(order)))


def pv(coeff, qpow):
    return ParamValue(F(coeff), qpow)


# -- finite symbols -------------------------------------------------------------


def test_poch_finite_length_zero():
    assert poch_finite(pv(5, 1), 1, 0, 8) == series_one(8)


def test_poch_finite_q_length_two():
    # (q;q)_2 = 1 - q - q^2 + q^3
    got = poch_finite(pv(1, 1), 1, 2, 6)
    assert [int(c) for c in got.coeffs] == [1, -1, -1, 1, 0, 0]


def test_poch_finite_neg_q_base_two():
    # (-q;q^2)_2 = (1+q)(1+q^3)
    got = poch_finite(pv(-1, 1), 2, 2, 6)
    assert [int(c) for c in got.coeffs] == [1, 1, 0, 1, 1, 0]


@given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.integers(0, 2), st.integers(1, 4), st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_poch_finite_matches_naive(coeff, qpow, h, k):
    x = ParamValue(F(coeff), qpow)
    assert poch_finite(x, h, k, 20) == naive_poch(F(coeff), qpow, h, k, 20)


@given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_poch_recurrence(coeff, qpow, h, k):
    # (x;q^h)_{k+1} = (x;q^h)_k * (1 - x q^{h k})
    x = ParamValue(F(coeff), qpow)
    n = 24
    lhs = poch_finite(x, h, k + 1, n)
    step = QSeries(n, tuple(
        (F(1) if i == 0 else F(0)) - (F(coeff) if i == qpow + h * k else F(0))
        for i in range(n)))
    assert lhs == series_mul(poch_finite(x, h, k, n), step)


def test_poch_finite_inv_matches_series_inv():
    x = pv(F(1, 2), 1)
    assert poch_finite_inv(x, 2, 5, 16) == series_inv(poch_finite(x, 2, 5, 16))


# -- infinite products -----------------------------------------------------------


def test_poch_infinite_zero_arg():
    assert poch_infinite(pv(0, 0), 1, 10) == series_one(10)


def test_poch_infinite_pentagonal():
    got = poch_infinite(pv(1, 1), 1, 13)
    assert [int(c) for c in got.coeffs] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_poch_infinite_beyond_truncation():
    assert poch_infinite(ParamValue(F(1), 70), 3, 64) == series_one(64)


def test_poch_infinite_rejects_zero_valuation():
    with pytest.raises(NonTruncatable):
        poch_infinite(pv(1, 0), 1, 8)
    with pytest.raises(NonTruncatable):
        poch_infinite_inv(pv(F(1, 2), 0), 1, 8)


def test_poch_infinite_inv_matches_series_inv():
    x = pv(-2, 1)
    assert poch_infinite_inv(x, 1, 24) == series_inv(poch_infinite(x, 1, 24))


# -- elementary identities ---------------------------------------------------------


def test_elementary_ratio_trivial():
    assert poch_elementary_ratio(pv(1, 1), 1, 0, 8) == series_one(8)


def test_elementary_ratio_matches_finite():
    assert (poch_elementary_ratio(pv(1, 1), 1, 3, 32)
            == poch_finite(pv(1, 1), 1, 3, 32))
    assert (poch_elementary_ratio(pv(-1, 2), 2, 2, 32)
            == poch_finite(pv(-1, 2), 2, 2, 32))


@given(st.fractions(min_value=-2, max_value=2, max_denominator=3),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_elementary_ratio_property(coeff, qpow, h, k):
    x = ParamValue(F(coeff), qpow)
    assert poch_elementary_ratio(x, h, k, 24) == poch_finite(x, h, k, 24)


def test_stride_product_r1():
    assert (poch_stride_product(pv(-1, 1), 1, 4, 1, 16)
            == poch_finite(pv(-1, 1), 1, 4, 16))


def test_stride_product_collapses():
    # (q, q^2; q^2)_2 = (q;q)_4
    got = poch_stride_product(pv(1, 1), 2, 2, 1, 12)
    expected = poch_finite(pv(1, 1), 1, 4, 12)
    assert [int(c) for c in expected.coeffs] == [1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1, 0]
    assert got == expected


def test_stride_product_r3():
    # (-q, -q^2, -q^3; q^3)_1 = (1+q)(1+q^2)(1+q^3)
    got = poch_stride_product(pv(-1, 1), 3, 1, 1, 8)
    assert [int(c) for c in got.coeffs] == [1, 1, 1, 2, 1, 1, 1, 0]


@given(st.fractions(min_value=-2, max_value=2, max_denominator=3),
       st.integers(1, 2), st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_stride_product_property(coeff, qpow, r, k):
    x = ParamValue(F(coeff), qpow)
    assert (poch_stride_product(x, r, k, 1, 24)
            == poch_finite(x, 1, r * k, 24))


@given(st.fractions(min_value=-2, max_value=2, max_denominator=3),
       st.integers(1, 2), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_plus_minus_pairing(coeff, qpow, k):
    # (a;q)_k (-a;q)_k = (a^2;q^2)_k
    a = ParamValue(F(coeff), qpow)
    sq = ParamValue(F(coeff) ** 2, 2 * qpow)
    left = series_mul(poch_finite(a, 1, k, 24), poch_finite(a.neg(), 1, k, 24))
    assert left == poch_finite(sq, 2, k, 24)


def test_omega_product_collapse():
    assert omega_product_collapse(3, 1, 12) == series_one(12)
    # h = 2, j = 1: (1-q^2)/(1-q) = 1+q
    got = omega_product_collapse(1, 2, 6)
    assert [int(c) for c in got.coeffs] == [1, 1, 0, 0, 0, 0]
    # infinite form agrees with the ratio of infinite products
    got_inf = omega_product_collapse(None, 2, 16)
    expected = series_mul(poch_infinite(pv(1, 2), 2, 16),
                          series_inv(poch_infinite(pv(1, 1), 1, 16)))
    assert got_inf == expected


def test_omega_product_collapse_matches_literal_complex_product():
    # h = 3, j = 2: the rational collapse equals the literal product
    # (q w; q)_2 (q w^2; q)_2 with w = exp(2 pi i/3), evaluated at q = 0.2
    import mpmath

    from qsv.numeric import qpoch_finite_numeric, root_of_unity

    q = mpmath.mpf("0.2")
    collapsed = omega_product_collapse(2, 3, 40).eval_at(q)
    w = root_of_unity(3)
    literal = (qpoch_finite_numeric(q * w, q, 2)
               * qpoch_finite_numeric(q * w ** 2, q, 2))
    assert abs(mpmath.mpc(collapsed) - literal) < 1e-12


def test_stride_base_product():
    assert stride_base_product(4, 1, 10) == series_one(10)
    # (q;q^2)_2 = (1-q)(1-q^3)
    got = stride_base_product(2, 2, 8)
    assert [int(c) for c in got.coeffs] == [1, -1, 0, -1, 1, 0, 0, 0]


@pytest.mark.parametrize("call", [
    lambda: poch_finite(pv(1, 1), 0, 3, 8),
    lambda: poch_finite_inv(pv(1, 1), 0, 3, 8),
    lambda: poch_infinite(pv(1, 1), 0, 8),
    lambda: poch_infinite_inv(pv(1, 1), 0, 8),
    lambda: poch_finite(pv(1, 1), 1, -1, 8),
    lambda: poch_finite_inv(pv(1, 1), 1, -1, 8),
    lambda: omega_product_collapse(-1, 2, 8, inverse=True),
    lambda: stride_base_product(2, 0, 8, inverse=True),
], ids=["finite-h0", "finite-inv-h0", "infinite-h0", "infinite-inv-h0",
        "finite-k-1", "finite-inv-k-1", "omega-inv-j-1", "stride-inv-h0"])
def test_symbols_reject_bad_base_or_length(call):
    with pytest.raises(ValueError, match="base exponent|length"):
        call()


# -- theta functions ----------------------------------------------------------------


def test_theta_series_psi_pattern():
    got = theta_series(ThetaKind.PSI, 16)
    assert [int(c) for c in got.coeffs] == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1]


def test_theta_series_phi_minus_pattern():
    got = theta_series(ThetaKind.PHI_MINUS, 10)
    assert [int(c) for c in got.coeffs] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


def test_theta_order_one():
    assert theta_series(ThetaKind.PSI, 1) == series_one(1)
    assert theta_product(ThetaKind.PSI, 1) == series_one(1)
    assert theta_product(ThetaKind.PHI_MINUS, 1) == series_one(1)


def test_theta_product_equals_series_order_200():
    for kind in (ThetaKind.PSI, ThetaKind.PHI_MINUS):
        assert theta_product(kind, 200) == theta_series(kind, 200)
