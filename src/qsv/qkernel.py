"""q-Pochhammer symbols over the exact backend and Ramanujan theta
functions.

Conventions: (x; q^h)_k is the product of k factors (1 - x*q^{h*i}),
i = 0..k-1; (x; q^h)_inf is the infinite product, which truncates at a
finite order only when the argument has positive q-valuation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import NonTruncatable, ZeroConstantTerm
from .exact import (
    ParamValue,
    QSeries,
    series_apply_binomials,
    series_mul,
    series_one,
)
# Not called here: perfbench/test_perfbench.py::
# test_tracer_patches_every_binding_site_and_restores_them reads this binding.
from .exact import series_mul_binomial  # noqa: F401


def _poch(x: ParamValue, h: int, k, order: int, inverse: bool) -> QSeries:
    """(x; q^h)_k, or its inverse, modulo q^order (k None: inf): one
    series_apply_binomials call over the factors (1 - x*q^(x.qpow + h*i))
    below the order.  The base exponent must be h >= 1 (h = 0 would make an
    infinite product of equal factors) and the length k >= 0; an infinite
    product truncates only when x = 0 or x has positive q-valuation."""
    if h < 1:
        raise ValueError(f"base exponent must be a positive integer, got {h}")
    if k is not None and k < 0:
        raise ValueError(f"Pochhammer length must be non-negative, got {k}")
    if x.is_zero() or k == 0:
        return series_one(order)
    if k is None and x.qpow == 0:
        raise NonTruncatable("(x;q^h)_inf with a zero-valuation argument does not "
                             "truncate; use the numeric backend")
    if inverse and x.qpow == 0 and x.coeff == 1:
        # first factor is (1 - 1) = 0
        raise ZeroConstantTerm("(x;q^h)_k with x = 1 vanishes")
    below = max(-(-(order - x.qpow) // h), 0)
    count = below if k is None else min(k, below)
    c = -x.coeff
    return series_apply_binomials(
        series_one(order), [(c, x.qpow + h * i, inverse) for i in range(count)])


def poch_finite(x: ParamValue, h: int, k: int, order: int) -> QSeries:
    """(x; q^h)_k = prod_{i=0}^{k-1} (1 - x*q^{h*i}) truncated at order."""
    return _poch(x, h, k, order, inverse=False)


def poch_finite_inv(x: ParamValue, h: int, k: int, order: int) -> QSeries:
    """1 / (x; q^h)_k truncated at order."""
    return _poch(x, h, k, order, inverse=True)


def poch_infinite(x: ParamValue, h: int, order: int) -> QSeries:
    """(x; q^h)_inf modulo q^order; exact."""
    return _poch(x, h, None, order, inverse=False)


def poch_infinite_inv(x: ParamValue, h: int, order: int) -> QSeries:
    """1 / (x; q^h)_inf modulo q^order; exact."""
    return _poch(x, h, None, order, inverse=True)


class ThetaKind(Enum):
    PSI = "psi"
    PHI_MINUS = "phi_minus"


def theta_series(kind: ThetaKind, order: int) -> QSeries:
    """Sum-form theta series.

    psi(q) = sum_{k>=0} q^{k(k+1)/2}; phi(-q) = 1 + 2*sum_{k>=1} (-1)^k q^{k^2}
    (the bilateral sum folded to a unilateral one).
    """
    coeffs = [0] * order
    if kind is ThetaKind.PSI:
        k = 0
        while k * (k + 1) // 2 < order:
            coeffs[k * (k + 1) // 2] += 1
            k += 1
    elif kind is ThetaKind.PHI_MINUS:
        if order > 0:
            coeffs[0] = 1
        k = 1
        while k * k < order:
            coeffs[k * k] += 2 * (-1) ** k
            k += 1
    else:
        raise ValueError(f"unknown theta kind {kind}")
    return QSeries.from_ints(order, coeffs)


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
