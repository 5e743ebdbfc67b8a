"""High-precision complex backend.

Every catalog record is also checked here, and only here at non-integer
or complex base exponents h, t (q^h via the principal branch).  All
arithmetic runs on mpmath at a working precision comfortably above the
target tolerance; any non-finite intermediate aborts the evaluation.

Work whose value is fixed is done once: an infinite product counts its
factors before the first, a caller holding a base's log passes it to
`cpow`, and tolerances are mpf constants.  Every value is bit-identical
to that of the plain loops.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import finf, fnan, fninf

from .errors import (
    BaseNotInDisk,
    DivisionByZeroProduct,
    NonConvergence,
    NonFiniteValue,
    ZeroBase,
)

#: Default relative tolerance for scalar kernels.
SCALAR_TOL = 1e-12
#: Default relative tolerance for full identity checks (error accumulates
#: over thousands of terms).
IDENTITY_TOL = 1e-9

#: q of a numeric evaluation that binds none.
DEFAULT_Q = 0.2

#: Working precision in decimal digits; ~100 bits, at least twice the bit
#: budget of the tightest default tolerance.  The engine's entry points set
#: it per call with mpmath.workdps; importing qsv leaves mpmath.mp alone.
WORK_DPS = 30

#: Hard cap on series terms before declaring non-convergence.
MAX_TERMS = 100_000

#: Consecutive small terms required before the tail test may fire.
TAIL_RUN = 20

#: Tolerances and bounds as the exact values of their doubles, so that a
#: comparison gives what comparing with the float gives, without converting
#: it each time: `near_int`'s default, `cpow`'s integer-power path, and
#: `sum_with_tail_bound`'s divergence, scale floor and ratio bounds.
_NEAR_INT_TOL = mpf(1e-9, prec=53)
_INT_POWER_TOL = mpf(1e-12, prec=53)
_DIVERGING = mpf(1e30, prec=53)
_TINY_SCALE = mpf(1e-300, prec=53)
_MAX_RATIO = mpf(0.99, prec=53)

_NON_FINITE = (finf, fninf, fnan)


def to_cnum(value) -> mpc:
    if isinstance(value, mpc):
        return value
    if isinstance(value, complex):
        return mpc(value.real, value.imag)
    return mpc(value)


def check_finite(z: mpc) -> mpc:
    re, im = z._mpc_
    if re in _NON_FINITE or im in _NON_FINITE:
        raise NonFiniteValue(f"non-finite intermediate {z}")
    return z


def near_int(z, tol=_NEAR_INT_TOL):
    """Return the nearest integer if z is within tol of one, else None."""
    z = to_cnum(z)
    if abs(z.imag) > tol:
        return None
    n = int(mpmath.nint(z.real))
    if abs(z.real - n) > tol:
        return None
    return n


def cpow(base, exp, log_base=None) -> mpc:
    """Principal-branch power exp(exp * Log(base)).

    Integer exponents take the exact power path (no branch cut involved),
    which keeps (-1)^k and friends clean.  A caller that raises one base
    to many powers passes mpmath.log(base), taken at the same precision,
    as log_base.
    """
    base = to_cnum(base)
    exp = to_cnum(exp)
    n = near_int(exp, _INT_POWER_TOL)
    if n is not None:
        if base == 0:
            if n > 0:
                return mpc(0)
            if n == 0:
                return mpc(1)
            raise ZeroBase("0 to a negative power")
        return check_finite(mpmath.power(base, n))
    if base == 0:
        raise ZeroBase("0 to a non-integer power")
    if log_base is None:
        log_base = mpmath.log(base)
    return check_finite(mpmath.exp(exp * log_base))


def _log2(v: mpf) -> float:
    """log2 of a positive finite mpf as a float, at any magnitude."""
    _, man, exp, _ = v._mpf_
    return math.log2(man) + exp


def _stop_count(ax: mpf, aq: mpf, tol) -> int:
    """The least r at which the tail bound ax*aq^r/(1-aq) is no longer
    above tol/4, or MAX_TERMS if every r below MAX_TERMS is above it.

    A float estimate of r is moved one step at a time to where the mpf
    test flips.  The bound falls as r grows, so the flip is unique and r
    is the count at which a loop making the test before each factor stops.
    """
    gap, limit = 1 - aq, tol / 4

    def above(r):
        return ax * aq ** r / gap > limit

    if not aq:
        r = 0  # the bound is 0 from r = 1 on
    else:
        r, slope = MAX_TERMS, _log2(aq)
        if slope < 0 and limit > 0:
            estimate = (math.log2(limit) + _log2(gap) - _log2(ax)) / slope
            r = min(math.ceil(max(estimate, 0)), MAX_TERMS)
    while r < MAX_TERMS and above(r):
        r += 1
    while r > 0 and not above(r - 1):
        r -= 1
    return r


def qpoch_inf_numeric(x, qbase, tol=SCALAR_TOL) -> mpc:
    """(x; qbase)_inf = prod_{r>=0} (1 - x*qbase^r) for |qbase| < 1.

    Truncates once the log-magnitude tail bound
    |x|*|qbase|^r / (1-|qbase|) drops below tol; the factor count r is
    found before the first factor.
    """
    x = to_cnum(x)
    qbase = to_cnum(qbase)
    aq = abs(qbase)
    if not aq < 1:  # or NaN
        raise (BaseNotInDisk(f"|qbase| = {aq} >= 1") if aq >= 1
               else NonFiniteValue(f"non-finite base {qbase}"))
    if x == 0:
        return mpc(1)
    ax = abs(x)
    if not mpmath.isfinite(ax):
        raise NonFiniteValue(f"non-finite argument {x}")
    r = _stop_count(ax, aq, tol)
    if r >= MAX_TERMS:
        raise NonConvergence("infinite product did not meet its tail bound")
    prod = mpc(1)
    term = x
    for _ in range(r):
        prod *= 1 - term
        check_finite(prod)
        term *= qbase
    return check_finite(prod)


class QPochMemo:
    """q-Pochhammer products memoized for one evaluation.

    Infinite products are kept by (x, qbase) and finite ones as one growing
    prefix (x; qbase)_0, _1, ... per (x, qbase), so a sum whose terms share
    a symbol pays for each product, or each new factor, once.  The log of
    each base that a complex index raises is kept too.  Owned by one
    evaluator; the keys do not include tol, which is fixed per memo.
    """

    def __init__(self, tol):
        self.tol = tol
        self._inf = {}
        self._prefixes = {}  # (x, qbase) -> [((x; qbase)_i, x*qbase^i) for i = 0, 1, ...]
        self._logs = {}  # qbase -> mpmath.log(qbase)

    def inf(self, x: mpc, qbase: mpc) -> mpc:
        key = (x, qbase)
        value = self._inf.get(key)
        if value is None:
            value = self._inf[key] = qpoch_inf_numeric(x, qbase, self.tol)
        return value

    def finite(self, x: mpc, qbase: mpc, k: int) -> mpc:
        """(x; qbase)_k.  A length past the prefix multiplies in only the
        missing factors, in the order a product built from scratch takes
        them, so every value is bit-identical to that product."""
        key = (x, qbase)
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = self._prefixes[key] = [(mpc(1), x)]
        if k >= len(prefix):
            prod, term = prefix[-1]
            for _ in range(k + 1 - len(prefix)):
                prod *= 1 - term
                term *= qbase
                prefix.append((prod, term))
        return check_finite(prefix[k][0])

    def complex_index(self, x: mpc, qbase: mpc, k: mpc) -> mpc:
        """(x; qbase)_k for complex k: (x;qbase)_inf / (x*qbase^k; qbase)_inf.
        Only the shifted denominator depends on k."""
        n = near_int(k)
        if n is not None and n >= 0:
            return self.finite(x, qbase, n)
        num = self.inf(x, qbase)
        log_qbase = self._logs.get(qbase)
        if log_qbase is None:
            log_qbase = self._logs[qbase] = mpmath.log(qbase)
        den = qpoch_inf_numeric(x * cpow(qbase, k, log_qbase), qbase, self.tol)
        if den == 0:
            raise DivisionByZeroProduct("(x*q^k;q)_inf evaluated to zero")
        return check_finite(num / den)


def qpoch_finite_numeric(x, qbase, k: int) -> mpc:
    """(x; qbase)_k as a finite product of k factors."""
    if k < 0:
        raise ValueError("finite length must be non-negative")
    return QPochMemo(SCALAR_TOL).finite(to_cnum(x), to_cnum(qbase), k)


def qpoch_complex_index(x, qbase, k, tol=SCALAR_TOL) -> mpc:
    """(x; qbase)_k for complex k:  (x;qbase)_inf / (x*qbase^k; qbase)_inf."""
    return QPochMemo(tol).complex_index(to_cnum(x), to_cnum(qbase), to_cnum(k))


def theta_psi_numeric(q, tol=SCALAR_TOL) -> mpc:
    """psi(q) = sum_{k>=0} q^{k(k+1)/2}, |q| < 1."""
    return _theta_sum(q, tol, mpc(0), 0, lambda q, k: cpow(q, k * (k + 1) // 2))


def theta_phi_minus_numeric(q, tol=SCALAR_TOL) -> mpc:
    """phi(-q) = 1 + 2*sum_{k>=1} (-1)^k q^{k^2}, |q| < 1."""
    return _theta_sum(q, tol, mpc(1), 1, lambda q, k: 2 * (-1) ** k * cpow(q, k * k))


def _theta_sum(q, tol, total, k, term_fn) -> mpc:
    """total + term_fn(q, k) + term_fn(q, k + 1) + ... until a term past
    k = 2 is below tol relative to the partial sum."""
    q = to_cnum(q)
    if abs(q) >= 1:
        raise BaseNotInDisk("theta series needs |q| < 1")
    while True:
        term = term_fn(q, k)
        total += term
        if abs(term) < tol * max(abs(total), mpf(1)) and k > 2:
            return check_finite(total)
        k += 1
        if k > MAX_TERMS:
            raise NonConvergence("theta sum did not converge")


def sum_with_tail_bound(term_fn, tol, tail_run=TAIL_RUN):
    """Sum term_fn(0), term_fn(1), ... until the tail is certified small.

    Stops when `tail_run` consecutive terms each have magnitude below
    tol*|partial sum| AND the last term-to-term ratio estimate certifies a
    geometric remainder below tol*|partial sum| (ratio must be < 0.99).
    """
    total = mpc(0)
    small_run = 0
    prev_mag = None
    k = 0
    tol = mpf(tol, prec=53) if isinstance(tol, float) else tol
    while k < MAX_TERMS:
        term = to_cnum(term_fn(k))
        check_finite(term)
        total += term
        mag = abs(term)
        if mag > _DIVERGING:
            raise NonConvergence("terms are diverging")
        scale = max(abs(total), _TINY_SCALE)
        if mag < tol * scale:
            small_run += 1
            if small_run >= tail_run:
                if prev_mag is None:
                    # nothing but (near-)zero terms so far
                    if small_run >= 2 * tail_run:
                        return check_finite(total)
                else:
                    ratio = mag / prev_mag
                    if ratio < _MAX_RATIO:
                        tail = mag * ratio / (1 - ratio) if ratio > 0 else mpf(0)
                        if tail < tol * scale:
                            return check_finite(total)
        else:
            small_run = 0
        if mag != 0:
            prev_mag = mag
        k += 1
    raise NonConvergence(f"sum did not converge within {MAX_TERMS} terms")
