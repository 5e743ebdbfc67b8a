"""High-precision complex kernels: powers, scalar guards, Pochhammer
products and where an infinite one stops, roots of unity, and the
stride/pairing identities in their literal complex form."""

import math
import os
import random
import subprocess
import sys
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc

from qsv import numeric as num
from qsv.dsl import parse_expr
from qsv.engine import NumericEnv, eval_numeric
from qsv.errors import (BaseNotInDisk, DivisionByZeroProduct, NonConvergence,
                        NonFiniteValue, ZeroBase)
from qsv.exact import ParamValue
from qsv.qkernel import poch_infinite
from fractions import Fraction as F


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), mpmath.mpf(1e-30))


def test_import_leaves_mpmath_precision_alone():
    code = ("import mpmath; before = mpmath.mp.dps; import qsv, qsv.cli; "
            "print(before, mpmath.mp.dps)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["15", "15"]


# -- cpow -----------------------------------------------------------------------


def test_cpow_identity():
    q = mpc(0.3, 0.1)
    assert rel_err(num.cpow(q, 1), q) < 1e-25


def test_cpow_real_square_root():
    assert rel_err(num.cpow(0.25, 0.5), mpc(0.5)) < 1e-25


def test_cpow_zero_base():
    assert num.cpow(0, 3) == 0
    assert num.cpow(0, 0) == 1
    with pytest.raises(ZeroBase):
        num.cpow(0, 0.5)
    with pytest.raises(ZeroBase):
        num.cpow(0, -1)


def test_cpow_cross_checked_against_doubled_precision():
    # independent route: exp(e*log b) evaluated at twice the working digits
    cases = [(0.3, mpc(1.5, 0.2)), (mpc(0.2, 0.4), mpc(-0.7, 1.1)),
             (0.9, 2.25), (mpc(-0.5, 0.1), mpc(0.3, -0.8))]
    for base, exp in cases:
        with mpmath.workdps(num.WORK_DPS):
            got = num.cpow(base, exp)
            with mpmath.workdps(2 * mpmath.mp.dps):
                expected = mpmath.exp(mpc(exp) * mpmath.log(mpc(base)))
        assert rel_err(got, expected) < 1e-20


@given(st.integers(-6, 6), st.floats(0.1, 0.9), st.floats(-0.5, 0.5))
@settings(max_examples=30, deadline=None)
def test_cpow_integer_exponents_exactish(n, re, im):
    base = mpc(re, im)
    direct = mpmath.power(base, n)
    assert rel_err(num.cpow(base, n), direct) < 1e-20


# -- infinite products --------------------------------------------------------------


def test_qpoch_inf_zero_argument():
    assert num.qpoch_inf_numeric(0, 0.5) == 1


def test_qpoch_inf_outside_disk():
    with pytest.raises(BaseNotInDisk):
        num.qpoch_inf_numeric(0.3, 1.0)


@pytest.mark.parametrize("x, qbase", [
    (math.nan, 0.5), (math.inf, 0.5), (complex(0.3, math.nan), 0.5), (0.3, math.nan),
])
def test_qpoch_inf_rejects_non_finite_input(x, qbase):
    # the loop's tail test is false for NaN: unchecked, the product is empty
    with pytest.raises(NonFiniteValue):
        num.qpoch_inf_numeric(x, qbase)


def test_qpoch_inf_matches_exact_series():
    # exact-backend (q;q)_inf series of order 200 evaluated at q = 0.5
    series = poch_infinite(ParamValue(F(1), 1), 1, 200)
    expected = mpmath.polyval(series.coeffs[::-1], mpmath.mpf(1) / 2)
    got = num.qpoch_inf_numeric(0.5, 0.5, tol=1e-20)
    assert rel_err(got, mpc(expected)) < 1e-12


def test_qpoch_inf_interleaving():
    q = mpc(0.3)
    lhs = (num.qpoch_inf_numeric(q, q ** 2, 1e-16)
           * num.qpoch_inf_numeric(q ** 2, q ** 2, 1e-16))
    rhs = num.qpoch_inf_numeric(q, q, 1e-16)
    assert rel_err(lhs, rhs) < 1e-13


def loop_product(x, qbase, tol):
    """(r, product) of the term-by-term loop: the tail test before every
    factor, stopping at the first r where it fails or at MAX_TERMS."""
    ax, aq = abs(x), abs(qbase)
    prod, term, r = mpc(1), x, 0
    while ax * aq ** r / (1 - aq) > tol / 4 and r < num.MAX_TERMS:
        prod *= 1 - term
        term *= qbase
        r += 1
    return r, prod


def assert_stop_count_is_the_loops(x, qbase, tol):
    r, prod = loop_product(x, qbase, tol)
    assert num._stop_count(abs(x), abs(qbase), tol) == r
    if r < num.MAX_TERMS:
        assert num.qpoch_inf_numeric(x, qbase, tol) == prod
    return r


def test_stop_count_and_product_match_the_loop_on_random_inputs():
    rng = random.Random(20261021)
    with mpmath.workdps(num.WORK_DPS):
        for i in range(150):
            x = mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-8, 8)
            aq = (rng.uniform(0, 0.9), 10 ** -rng.uniform(1, 40),
                  1 - 10 ** -rng.uniform(1, 2))[(0, 1, 0, 1, 2)[i % 5]]
            qbase = aq * mpmath.expjpi(rng.uniform(-1, 1))
            tol = 10 ** -rng.uniform(3, 25)
            assert_stop_count_is_the_loops(x, qbase, tol)


@pytest.mark.parametrize("x, qbase", [
    (mpc(0.3), mpc(0)), (mpc(1e300, 1e300), mpc(0.5)), (mpc(1e-300), mpc(0.9)),
    (mpc(0, mpmath.mpf("1e-5000")), mpc(0.2)), (mpc(mpmath.mpf("1e5000")), mpc(0, 0.5)),
])
def test_stop_count_matches_the_loop_at_extreme_magnitudes(x, qbase):
    with mpmath.workdps(num.WORK_DPS):
        assert_stop_count_is_the_loops(x, qbase, 1e-12)


@pytest.mark.parametrize("aq_num, aq_den", [(1, 2), (3, 4), (7, 8)])
@pytest.mark.parametrize("r0", [0, 1, 5, 17])
@pytest.mark.parametrize("ax_log2", [-30, 0, 11])
def test_stop_count_when_the_bound_lands_exactly_on_tol(aq_num, aq_den, r0, ax_log2):
    """ax*aq^r0/(1-aq) == tol/4 exactly: the test is false at r0 (not
    above), so r0 is the count.  One ulp less of tol makes it r0 + 1, and
    one ulp more leaves it at r0."""
    with mpmath.workdps(num.WORK_DPS):
        aq = mpmath.mpf(aq_num) / aq_den
        ax = mpmath.mpf(2) ** ax_log2
        tol = 4 * float(ax * aq ** r0 / (1 - aq))
        assert ax * aq ** r0 / (1 - aq) == tol / 4  # built exact
        for x in (mpc(ax), mpc(0, -ax)):
            for qbase in (mpc(aq), mpc(-aq), mpc(0, aq)):
                assert assert_stop_count_is_the_loops(x, qbase, tol) == r0
                if r0:
                    below = tol * (1 - 2.0 ** -52)
                    assert assert_stop_count_is_the_loops(x, qbase, below) == r0 + 1
                    above = tol * (1 + 2.0 ** -52)
                    assert assert_stop_count_is_the_loops(x, qbase, above) == r0


def test_qpoch_inf_past_max_terms_fails_fast():
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match="^infinite product did not meet its tail bound$"):
        num.qpoch_inf_numeric(0.5, 1 - 1e-7)
    assert time.perf_counter() - start < 0.1


def test_qpoch_inf_stop_count_at_max_terms(monkeypatch):
    # the loop stops at MAX_TERMS, whether or not the test there is false
    monkeypatch.setattr(num, "MAX_TERMS", 50)
    x, qbase = mpc(0.5), mpc(0.5)
    r = loop_product(x, qbase, 1e-12)[0]
    assert r < 50 and num._stop_count(abs(x), abs(qbase), 1e-12) == r
    monkeypatch.setattr(num, "MAX_TERMS", r)
    assert num._stop_count(abs(x), abs(qbase), 1e-12) == r
    with pytest.raises(NonConvergence):
        num.qpoch_inf_numeric(x, qbase, 1e-12)
    monkeypatch.setattr(num, "MAX_TERMS", r + 1)
    assert num.qpoch_inf_numeric(x, qbase, 1e-12) == loop_product(x, qbase, 1e-12)[1]


def test_memo_prefix_is_bit_identical_to_a_product_from_scratch():
    """One memo read at lengths that grow, shrink and repeat gives, bit for
    bit, the product built from 1 in the same factor order, and the value
    of a fresh memo that builds its prefix at once."""
    x, qbase = mpc(0.31, 0.05), mpc(0.45, -0.2)
    memo = num.QPochMemo(num.SCALAR_TOL)
    with mpmath.workdps(num.WORK_DPS):
        for k in (5, 2, 9, 0, 9):
            prod, term = mpc(1), x
            for _ in range(k):
                prod *= 1 - term
                term *= qbase
            assert memo.finite(x, qbase, k)._mpc_ == prod._mpc_
            assert num.QPochMemo(num.SCALAR_TOL).finite(x, qbase, k)._mpc_ == prod._mpc_


# -- complex-index symbols ------------------------------------------------------------


def test_complex_index_k_zero():
    assert rel_err(num.qpoch_complex_index(0.2, 0.4, 0), mpc(1)) < 1e-20


def test_complex_index_integer_consistency():
    x, qb = mpc(0.2, 0.1), mpc(0.4)
    finite = (1 - x) * (1 - x * qb) * (1 - x * qb ** 2)
    assert rel_err(num.qpoch_complex_index(x, qb, 3), finite) < 1e-18


def test_complex_index_recurrence_spec_point():
    x, qb, k = mpc(0.2), mpc(0.4), mpc(1.5)
    lhs = num.qpoch_complex_index(x, qb, k + 1)
    rhs = num.qpoch_complex_index(x, qb, k) * (1 - x * num.cpow(qb, k))
    assert rel_err(lhs, rhs) < 1e-12


@given(st.floats(-0.5, 0.5), st.floats(-0.4, 0.4), st.floats(0.1, 0.8),
       st.floats(-0.8, 0.8), st.floats(-1.5, 1.5))
@settings(max_examples=25, deadline=None)
def test_complex_index_recurrence_property(xr, xi, qr, qi, kr):
    qb = mpc(qr, qi * 0.3)
    if abs(qb) >= 0.95:
        return
    x = mpc(xr, xi)
    k = mpc(kr, 0.2)
    lhs = num.qpoch_complex_index(x, qb, k + 1)
    rhs = num.qpoch_complex_index(x, qb, k) * (1 - x * num.cpow(qb, k))
    assert rel_err(lhs, rhs) < 1e-12


# -- roots of unity and the literal product identities ----------------------------------


def test_root_of_unity_invariants():
    """The root filter sum_nu w^(nu*k) of a primitive r-th root w, each
    power taken by the engine's integer-power path (cpow), which the
    hand-built root filters rest on."""
    power = parse_expr("w^k")
    with mpmath.workdps(num.WORK_DPS):
        for r in (1, 2, 3, 4, 7):
            w = mpmath.exp(2j * mpmath.pi / r)

            def w_to(n):
                return eval_numeric(power, NumericEnv(params={"w": w}, exps={"k": n}))

            assert abs(w_to(r) - 1) < 1e-25
            for k in range(0, 2 * r + 1):
                total = sum(w_to(nu * k) for nu in range(r))
                expected = r if k % r == 0 else 0
                assert abs(total - expected) < 1e-20


@pytest.mark.parametrize("r", [2, 3, 4])
def test_stride_split_literal(r):
    # (a;q)_{rk} = prod_j (a q^j; q^r)_k
    a, q, k = mpc(0.31, 0.05), mpc(0.45), 7
    lhs = num.qpoch_finite_numeric(a, q, r * k)
    rhs = mpc(1)
    for j in range(r):
        rhs *= num.qpoch_finite_numeric(a * q ** j, q ** r, k)
    assert rel_err(lhs, rhs) < 1e-10


@pytest.mark.parametrize("r", [2, 3, 4])
def test_omega_product_literal(r):
    # (a^r; q^r)_k = prod_j (a w^j; q)_k with w a primitive r-th root
    a, q, k = mpc(0.27, -0.1), mpc(0.4), 6
    lhs = num.qpoch_finite_numeric(a ** r, q ** r, k)
    rhs = mpc(1)
    for j in range(r):
        rhs *= num.qpoch_finite_numeric(a * mpmath.exp(2j * mpmath.pi * j / r), q, k)
    assert rel_err(lhs, rhs) < 1e-10


@pytest.mark.parametrize("r,index", [(3, 2), (4, 3)])
def test_omega_product_non_principal_root(r, index):
    # any primitive r-th root works in the product identity
    a, q, k = mpc(0.2, 0.15), mpc(0.35), 5
    w = mpmath.exp(2j * mpmath.pi * index / r)
    lhs = num.qpoch_finite_numeric(a ** r, q ** r, k)
    rhs = mpc(1)
    for j in range(r):
        rhs *= num.qpoch_finite_numeric(a * w ** j, q, k)
    assert rel_err(lhs, rhs) < 1e-10


def test_plus_minus_pairing_literal():
    # (a;q)_k (-a;q)_k = (a^2;q^2)_k
    a, q, k = mpc(0.33, 0.21), mpc(0.5), 8
    lhs = num.qpoch_finite_numeric(a, q, k) * num.qpoch_finite_numeric(-a, q, k)
    rhs = num.qpoch_finite_numeric(a ** 2, q ** 2, k)
    assert rel_err(lhs, rhs) < 1e-12


# -- theta and tail bounds ---------------------------------------------------------------


def test_theta_numeric_match_exact():
    from qsv.qkernel import ThetaKind, theta_series

    q = mpmath.mpf("0.3")
    psi_series = mpmath.polyval(theta_series(ThetaKind.PSI, 120).coeffs[::-1], q)
    phi_series = mpmath.polyval(theta_series(ThetaKind.PHI_MINUS, 120).coeffs[::-1], q)
    assert rel_err(num.theta_psi_numeric(q, 1e-16), mpc(psi_series)) < 1e-14
    assert rel_err(num.theta_phi_minus_numeric(q, 1e-16), mpc(phi_series)) < 1e-14


def test_sum_tail_bound_geometric():
    total = num.sum_with_tail_bound(lambda k: mpmath.mpf("0.5") ** k, 1e-14)
    assert rel_err(total, mpc(2)) < 1e-13


def test_sum_tail_bound_all_zero_terms_stop_after_two_runs():
    # with no nonzero term there is no ratio to read, so the sum stops
    # after 2 * TAIL_RUN zero terms
    seen = []
    total = num.sum_with_tail_bound(lambda k: seen.append(k) or mpc(0), 1e-12)
    assert total == 0
    assert seen == list(range(2 * num.TAIL_RUN)) == list(range(40))


def test_sum_tail_bound_nonconvergent(monkeypatch):
    monkeypatch.setattr(num, "MAX_TERMS", 500)
    with pytest.raises(NonConvergence):
        num.sum_with_tail_bound(lambda k: mpc(1), 1e-12)


def test_non_finite_aborts():
    from qsv.errors import NonFiniteValue

    with pytest.raises(NonFiniteValue):
        num.check_finite(mpc(mpmath.inf, 0))


# -- scalar guards ------------------------------------------------------------------


@pytest.mark.parametrize("special", [mpmath.inf, -mpmath.inf, mpmath.nan])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_check_finite_rejects_every_special_value_in_either_part(special, part):
    z = mpc(special, 0.5) if part == "real" else mpc(0.5, special)
    with pytest.raises(NonFiniteValue, match="^non-finite intermediate"):
        num.check_finite(z)


@pytest.mark.parametrize("z", [
    mpc(0), mpc(-0.0, -0.0), mpc(5e-324, -5e-324), mpc(0, mpmath.mpf("1e-1000000")),
    mpc(mpmath.mpf("-1e1000000"), 2.5),
])
def test_check_finite_passes_zeros_and_extreme_finite_values(z):
    assert num.check_finite(z) is z


def _past(v):
    """A value just past v, away from zero: v*(1 + 2^-60), which the
    working precision keeps apart from v."""
    return v * (1 + mpmath.mpf(2) ** -60)


@pytest.mark.parametrize("tol", [None, 1e-9, 1e-12])
def test_near_int_accepts_distance_tol_and_rejects_just_past_it(tol):
    # None: the default tolerance, 1e-9
    args = () if tol is None else (tol,)
    with mpmath.workdps(num.WORK_DPS):
        d = mpmath.mpf(1e-9 if tol is None else tol)
        three = mpmath.mpf(3)
        for sign in (1, -1):
            assert num.near_int(mpc(three, sign * d), *args) == 3
            assert num.near_int(mpc(three, sign * _past(d)), *args) is None
            assert (three + sign * d) - 3 == sign * d  # the sum is exact
            assert num.near_int(mpc(three + sign * d, 0), *args) == 3
            assert num.near_int(mpc(three + sign * _past(d), 0), *args) is None
        assert num.near_int(mpc(-2 - d, d), *args) == -2
        assert num.near_int(mpc(-2 - d, _past(d)), *args) is None


def test_near_int_reads_python_numbers():
    assert num.near_int(7) == 7 and num.near_int(2.5) is None
    assert num.near_int(complex(4, 1e-10)) == 4


@pytest.mark.parametrize("base, exp", [
    (mpc(0.3, 0.1), mpc(1.5, 0.2)), (mpc(-0.5, 0.1), mpc(0.3, -0.8)),
    (mpc(0.2, -0.4), mpc(-0.7, 1.1)), (mpc(0.9), mpc(2.25)), (mpc(-0.4), mpc(0.5)),
    (mpc(0.3, 0.1), mpc(3)), (mpc(0.3, 0.1), mpc(-2, 1e-13)),
])
def test_cpow_with_the_base_log_is_bit_identical(base, exp):
    with mpmath.workdps(num.WORK_DPS):
        assert num.cpow(base, exp, mpmath.log(base)) == num.cpow(base, exp)


# -- raw kernels against the plain mpc formulas ----------------------------------------
#
# The formulas below are the kernels written with mpc operators and mpmath
# functions; the kernels compute on raw values, and each result must hold
# the same raw value (`._mpc_ ==`), bit for bit.


def plain_near_int(z, tol):
    z = num.to_cnum(z)
    if abs(z.imag) > tol:
        return None
    n = int(mpmath.nint(z.real))
    if abs(z.real - n) > tol:
        return None
    return n


def plain_finite(x, qbase, k):
    prod, term = mpc(1), x
    for _ in range(k):
        prod *= 1 - term
        term *= qbase
    return prod


def plain_cpow(base, exp, log_base=None):
    base, exp = num.to_cnum(base), num.to_cnum(exp)
    n = plain_near_int(exp, 1e-12)
    if n is not None:
        if base == 0:
            if n < 0:
                raise ZeroBase("0 to a negative power")
            return mpc(0) if n > 0 else mpc(1)
        return mpmath.power(base, n)
    if base == 0:
        raise ZeroBase("0 to a non-integer power")
    return mpmath.exp(exp * (mpmath.log(base) if log_base is None else log_base))


def plain_complex_index(x, qbase, k, tol):
    n = plain_near_int(k, 1e-9)
    if n is not None and n >= 0:
        return plain_finite(x, qbase, n)
    den = loop_product(x * plain_cpow(qbase, k, mpmath.log(qbase)), qbase, tol)[1]
    if den == 0:
        raise DivisionByZeroProduct("(x*q^k;q)_inf evaluated to zero")
    return loop_product(x, qbase, tol)[1] / den


def _random_point(rng):
    x = mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-3, 1)
    qbase = rng.uniform(0.05, 0.9) * mpmath.expjpi(rng.uniform(-1, 1))
    return x, qbase


def test_raw_kernels_are_bit_identical_to_the_plain_formulas():
    rng = random.Random(20261022)
    with mpmath.workdps(num.WORK_DPS):
        for _ in range(60):
            x, qbase = _random_point(rng)
            k = mpc(rng.uniform(-3, 6), rng.choice((0, rng.uniform(-1, 1))))
            n = rng.randrange(-4, 12)
            tol = 10 ** -rng.uniform(6, 20)
            expected = loop_product(x, qbase, tol)[1]
            assert num.qpoch_inf_numeric(x, qbase, tol)._mpc_ == expected._mpc_
            memo = num.QPochMemo(tol)
            expected = plain_finite(x, qbase, abs(n))
            assert memo.finite(x, qbase, abs(n))._mpc_ == expected._mpc_
            expected = plain_complex_index(x, qbase, k, tol)
            assert memo.complex_index(x, qbase, k)._mpc_ == expected._mpc_
            log = mpmath.log(x)
            for exp in (k, mpc(n), n, n + mpc(0, 1e-13)):
                assert num.cpow(x, exp)._mpc_ == plain_cpow(x, exp)._mpc_
                assert num.cpow(x, exp, log)._mpc_ == plain_cpow(x, exp, log)._mpc_
            assert num.near_int(k) == plain_near_int(k, 1e-9)
            for near in (1e-9, 1e-12, 0.3):  # a float tol
                assert num.near_int(k, near) == plain_near_int(k, near)


@pytest.mark.parametrize("k", [0, mpc(0), 5, mpc(5), mpc(2.5, 0.5)])
def test_raw_kernels_at_zero_argument_and_length(k):
    """x = 0 gives 1 at every length, and k = 0, as int or mpc, at every x."""
    with mpmath.workdps(num.WORK_DPS):
        x, qbase = mpc(0.3, -0.2), mpc(0.5, 0.1)
        memo = num.QPochMemo(num.SCALAR_TOL)
        assert num.qpoch_inf_numeric(0, qbase)._mpc_ == mpc(1)._mpc_
        assert memo.complex_index(mpc(0), qbase, k)._mpc_ == mpc(1)._mpc_
        expected = plain_complex_index(x, qbase, k, num.SCALAR_TOL)
        assert memo.complex_index(x, qbase, k)._mpc_ == expected._mpc_
        if k == 0:
            assert expected._mpc_ == mpc(1)._mpc_


@pytest.mark.parametrize("offset", [1e-10, -1e-10, 1e-13, 0])
def test_complex_index_next_to_a_negative_integer(offset):
    """k within 1e-9 of -2 is not a finite length: its denominator's power
    takes the integer path within 1e-12 of -2 and the exp/log path past it."""
    with mpmath.workdps(num.WORK_DPS):
        x, qbase = mpc(0.3, -0.2), mpc(0.5, 0.1)
        k = mpc(-2 + offset, offset / 2)
        assert num.near_int(k) == -2
        got = num.QPochMemo(num.SCALAR_TOL).complex_index(x, qbase, k)
        assert got._mpc_ == plain_complex_index(x, qbase, k, num.SCALAR_TOL)._mpc_


def test_complex_index_with_a_zero_denominator_raises():
    # x*q^-2 = 1: the shifted product's first factor is 0
    with pytest.raises(DivisionByZeroProduct, match=r"^\(x\*q\^k;q\)_inf evaluated to zero$"):
        num.qpoch_complex_index(0.25, 0.5, mpc(-2))
    with pytest.raises(DivisionByZeroProduct):
        plain_complex_index(mpc(0.25), mpc(0.5), mpc(-2), num.SCALAR_TOL)


@pytest.mark.parametrize("x", [mpc(mpmath.inf, 0), mpc(0, mpmath.nan)])
def test_complex_index_rejects_a_non_finite_argument(x):
    with pytest.raises(NonFiniteValue, match="^non-finite argument"):
        num.qpoch_complex_index(x, 0.5, mpc(0.5, 0.2))


@pytest.mark.parametrize("text, plain", [
    ("a*b", lambda a, b: a * b), ("a/b", lambda a, b: a / b), ("a+b", lambda a, b: a + b),
    ("a*b/(a+b)", lambda a, b: a * b / (a + b)),
])
def test_engine_arithmetic_nodes_are_the_mpc_operators(text, plain):
    rng = random.Random(7)
    with mpmath.workdps(num.WORK_DPS):
        for _ in range(20):
            a, b = (mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
            got = eval_numeric(parse_expr(text), NumericEnv(params={"a": a, "b": b}))
            assert got._mpc_ == plain(a, b)._mpc_


# -- integer lengths stay int -------------------------------------------------------------

BINOMIAL_ENV = NumericEnv(q=complex(0.35, 0.1),
                          params={"a": complex(0.37, 0.11), "z": complex(0.42, -0.2)})


def count_roundings(monkeypatch):
    """Calls of mpmath.nint and of the raw rounding near_int uses."""
    calls = []
    for owner, name in ((mpmath, "nint"), (num, "mpf_nint")):
        real = getattr(owner, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_integer_lengths_are_never_rounded(monkeypatch):
    """The q-binomial summand's lengths are ints from the index: no
    rounding to the nearest integer, and the value of the code that took
    them as mpc and rounded them back, to the last bit."""
    calls = count_roundings(monkeypatch)
    value = eval_numeric(parse_expr("sum(k=0..inf; poch(a; q)_k / poch(q; q)_k * z^k)"),
                         BINOMIAL_ENV)
    assert calls == []
    assert value._mpc_ == ((0, 7667497026489012257748243383087, -102, 103),
                           (1, 83284183589775507512197445949, -97, 97))
    # a half-integer length is rounded, so the counter sees it
    value = eval_numeric(parse_expr("sum(k=0..inf; poch(a; q)_(k+1/2) / poch(q; q)_k * z^k)"),
                         BINOMIAL_ENV)
    assert calls
    assert value._mpc_ == ((0, 6099628901428951080539384168241, -102, 103),
                           (1, 190973130430556492823217821253, -98, 98))
