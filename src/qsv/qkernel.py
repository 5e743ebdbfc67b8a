"""q-Pochhammer symbols over the exact backend, Ramanujan theta functions,
and the elementary product identities used throughout the catalog.

Conventions: (x; q^h)_k is the product of k factors (1 - x*q^{h*i}),
i = 0..k-1; (x; q^h)_inf is the infinite product, which truncates at a
finite order only when the argument has positive q-valuation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import NonTruncatable
from .exact import (
    ParamValue,
    QSeries,
    series_div_binomial,
    series_inv,
    series_mul,
    series_mul_binomial,
    series_one,
)

# Incremental caches: building (x;q^h)_{k+1} from (x;q^h)_k makes the sum
# loops in the engine O(N) per extra factor instead of O(N^2).  Keys are
# fully concrete (coeff, qpow, h, N); values hold the largest computed
# prefix of the factor chain and, separately, of its inverse chain.
_finite_cache: dict = {}
_finite_inv_cache: dict = {}
_infinite_cache: dict = {}

_Q = ParamValue(Fraction(1), 1)


def _check_shape(h: int, k: int = 0):
    """The domain shared by every symbol here: base exponent h >= 1 (h = 0
    would make an infinite product of equal factors) and length k >= 0."""
    if h < 1:
        raise ValueError(f"base exponent must be a positive integer, got {h}")
    if k < 0:
        raise ValueError(f"Pochhammer length must be non-negative, got {k}")


def poch_finite(x: ParamValue, h: int, k: int, order: int) -> QSeries:
    """(x; q^h)_k = prod_{i=0}^{k-1} (1 - x*q^{h*i}) truncated at order."""
    _check_shape(h, k)
    if x.is_zero() or k == 0:
        return series_one(order)
    key = (x.coeff, x.qpow, h, order)
    entry = _finite_cache.get(key)
    if entry is None:
        entry = {0: series_one(order)}
        _finite_cache[key] = entry
    if k in entry:
        return entry[k]
    start = max(i for i in entry if i <= k)
    series = entry[start]
    for i in range(start, k):
        e = x.qpow + h * i
        if e >= order:
            # every remaining factor is 1 mod q^order
            series = entry[i + 1] = series
            entry[k] = series
            return series
        series = series_mul_binomial(series, -x.coeff, e)
        entry[i + 1] = series
    return series


def poch_finite_inv(x: ParamValue, h: int, k: int, order: int) -> QSeries:
    """1 / (x; q^h)_k, cached incrementally alongside poch_finite."""
    _check_shape(h, k)
    if x.is_zero() or k == 0:
        return series_one(order)
    if x.qpow == 0 and x.coeff == 1:
        # first factor is (1 - 1) = 0
        from .errors import ZeroConstantTerm

        raise ZeroConstantTerm("(x;q^h)_k with x = 1 vanishes")
    key = (x.coeff, x.qpow, h, order)
    entry = _finite_inv_cache.get(key)
    if entry is None:
        entry = {0: series_one(order)}
        _finite_inv_cache[key] = entry
    if k in entry:
        return entry[k]
    start = max(i for i in entry if i <= k)
    series = entry[start]
    for i in range(start, k):
        e = x.qpow + h * i
        if e >= order:
            entry[k] = series
            return series
        if e == 0:
            series = QSeries(order, tuple(c / (1 - x.coeff) for c in series.coeffs))
        else:
            series = series_div_binomial(series, -x.coeff, e)
        entry[i + 1] = series
    return series


def poch_infinite(x: ParamValue, h: int, order: int) -> QSeries:
    """(x; q^h)_inf modulo q^order; exact.

    Requires x = 0 or qpow >= 1 so that only finitely many factors touch
    coefficients below the truncation order.
    """
    _check_shape(h)
    if x.is_zero():
        return series_one(order)
    if x.qpow == 0:
        raise NonTruncatable(
            "(x;q^h)_inf with a zero-valuation argument does not truncate; "
            "use the numeric backend"
        )
    key = (x.coeff, x.qpow, h, order)
    cached = _infinite_cache.get(key)
    if cached is not None:
        return cached
    series = series_one(order)
    i = 0
    while x.qpow + h * i < order:
        series = series_mul_binomial(series, -x.coeff, x.qpow + h * i)
        i += 1
    _infinite_cache[key] = series
    return series


def poch_infinite_inv(x: ParamValue, h: int, order: int) -> QSeries:
    _check_shape(h)
    if x.is_zero():
        return series_one(order)
    if x.qpow == 0:
        raise NonTruncatable(
            "1/(x;q^h)_inf with a zero-valuation argument does not truncate"
        )
    series = series_one(order)
    i = 0
    while x.qpow + h * i < order:
        series = series_div_binomial(series, -x.coeff, x.qpow + h * i)
        i += 1
    return series


def poch_elementary_ratio(x: ParamValue, h: int, k: int, order: int) -> QSeries:
    """(x;q^h)_inf / (x*q^{hk};q^h)_inf, the infinite-product route to the
    finite symbol.  Must agree with poch_finite coefficientwise."""
    if k < 0:
        raise ValueError("length must be non-negative")
    if x.is_zero() or k == 0:
        return series_one(order)
    num = poch_infinite(x, h, order)
    shifted = ParamValue(x.coeff, x.qpow + h * k)
    den = poch_infinite(shifted, h, order)
    return series_mul(num, series_inv(den))


def poch_stride_product(a: ParamValue, r: int, k: int, h_inner: int, order: int) -> QSeries:
    """(a, aq^{h}, aq^{2h}, ..., aq^{(r-1)h}; q^{rh})_k as a product of r
    finite symbols; equals (a; q^h)_{rk}."""
    if r < 1:
        raise ValueError("stride must be a positive integer")
    out = series_one(order)
    for j in range(r):
        shifted = ParamValue(a.coeff, a.qpow + h_inner * j)
        out = series_mul(out, poch_finite(shifted, r * h_inner, k, order))
    return out


def _poch_quotient(top, bottom, order: int, inverse: bool) -> QSeries:
    """(x; q^h)_k / (y; q^g)_m for top = (x, h, k) and bottom = (y, g, m),
    or its reciprocal when inverse; a length of None means inf."""
    if inverse:
        top, bottom = bottom, top
    (x, h, k), (y, g, m) = top, bottom
    num = poch_infinite(x, h, order) if k is None else poch_finite(x, h, k, order)
    den_inv = (poch_infinite_inv(y, g, order) if m is None
               else poch_finite_inv(y, g, m, order))
    return series_mul(num, den_inv)


def omega_product_collapse(j, h: int, order: int, inverse: bool = False) -> QSeries:
    """The primitive-root product (q*w, q*w^2, ..., q*w^{h-1}; q)_j for
    w a primitive h-th root of unity, represented exactly over Q as
    (q^h;q^h)_j / (q;q)_j, or its reciprocal when inverse.  For j = inf
    pass j=None."""
    _check_shape(h, j or 0)
    if h == 1:
        return series_one(order)
    return _poch_quotient((ParamValue(Fraction(1), h), h, j), (_Q, 1, j),
                          order, inverse)


def stride_base_product(j, h: int, order: int, inverse: bool = False) -> QSeries:
    """(q, q^2, ..., q^{h-1}; q^h)_j represented as (q;q)_{hj} / (q^h;q^h)_j
    (for j = inf, as (q;q)_inf / (q^h;q^h)_inf), or its reciprocal when
    inverse.  Empty product for h=1."""
    _check_shape(h, j or 0)
    if h == 1:
        return series_one(order)
    return _poch_quotient((_Q, 1, None if j is None else h * j),
                          (ParamValue(Fraction(1), h), h, j), order, inverse)


class ThetaKind(Enum):
    PSI = "psi"
    PHI_MINUS = "phi_minus"


def theta_series(kind: ThetaKind, order: int) -> QSeries:
    """Sum-form theta series.

    psi(q) = sum_{k>=0} q^{k(k+1)/2}; phi(-q) = 1 + 2*sum_{k>=1} (-1)^k q^{k^2}
    (the bilateral sum folded to a unilateral one).
    """
    coeffs = [Fraction(0)] * order
    if kind is ThetaKind.PSI:
        k = 0
        while k * (k + 1) // 2 < order:
            coeffs[k * (k + 1) // 2] += 1
            k += 1
    elif kind is ThetaKind.PHI_MINUS:
        if order > 0:
            coeffs[0] = Fraction(1)
        k = 1
        while k * k < order:
            coeffs[k * k] += 2 * (-1) ** k
            k += 1
    else:
        raise ValueError(f"unknown theta kind {kind}")
    return QSeries(order, tuple(coeffs))


def theta_product(kind: ThetaKind, order: int) -> QSeries:
    """Product-form theta series, built from infinite Pochhammer symbols:
    psi(q) = (q^2;q^2)_inf / (q;q^2)_inf and phi(-q) = (q;q)_inf / (-q;q)_inf.
    Must equal theta_series coefficientwise."""
    one = Fraction(1)
    if kind is ThetaKind.PSI:
        num = poch_infinite(ParamValue(one, 2), 2, order)
        den_inv = poch_infinite_inv(ParamValue(one, 1), 2, order)
    elif kind is ThetaKind.PHI_MINUS:
        num = poch_infinite(ParamValue(one, 1), 1, order)
        den_inv = poch_infinite_inv(ParamValue(-one, 1), 1, order)
    else:
        raise ValueError(f"unknown theta kind {kind}")
    return series_mul(num, den_inv)
