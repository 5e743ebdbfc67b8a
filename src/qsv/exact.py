"""Exact scalar and truncated-series arithmetic.

A QSeries holds integer numerators over one positive common denominator,
gcd-normalised, so every kernel here (add, scale, shift, products,
binomial steps, inversion, powers) runs in integer arithmetic and equal
series have equal fields.  Rationals (fractions.Fraction) appear only at
the boundary: scalar arguments, the `coeffs` view, and the QSeries
constructor.  A verified identity is therefore a proof of coefficient
equality up to the truncation order.  A QSeries of order N stores exactly
N coefficients and all operations truncate at the smallest order
involved; no operation ever reports a coefficient at or beyond the
truncation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeQPower, ZeroConstantTerm

# Scalars (parameter coefficients, binomial constants) live in Q.
Rational = Fraction

#: Default truncation order for catalog verification.
DEFAULT_ORDER = 64

_ZERO = Fraction(0)
_ONE = Fraction(1)


class QSeries:
    """Truncated formal power series in q: sum of nums[i]/den * q^i,
    known modulo q^order.  den > 0 and gcd(den, *nums) == 1."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order, coeffs):
        """The series with the given rational coefficients."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) != order:
            raise ValueError("coeffs length must equal order")
        coeffs = [Fraction(c) for c in coeffs]
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is already normalised
        den = math.lcm(*(c.denominator for c in coeffs))
        self.order = order
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @classmethod
    def from_ints(cls, order, nums, den=1) -> "QSeries":
        """The series sum of nums[i]/den * q^i (den != 0), normalised."""
        nums = tuple(nums)
        if len(nums) != order:
            raise ValueError("nums length must equal order")
        if den <= 0:
            if den == 0:
                raise ZeroDivisionError("QSeries denominator is zero")
            den, nums = -den, tuple(-x for x in nums)
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple(x // g for x in nums)
        series = object.__new__(cls)
        series.order = order
        series.nums = nums
        series.den = den
        return series

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, built on each read."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def __getitem__(self, i):
        return Fraction(self.nums[i], self.den)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        return f"QSeries(order={self.order}, nums={self.nums}, den={self.den})"

    def valuation(self):
        """Index of the lowest nonzero coefficient, or order if zero mod q^N."""
        for i, x in enumerate(self.nums):
            if x:
                return i
        return self.order

    def is_zero(self):
        return not any(self.nums)

    def truncate(self, order):
        if order >= self.order:
            return self
        return QSeries.from_ints(order, self.nums[:order], self.den)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*q^{i}" if i else str(c))
        return " + ".join(parts) if parts else "0"


def series_const(c, order) -> QSeries:
    return series_monomial(c, 0, order)


def series_one(order) -> QSeries:
    return series_const(1, order)


def series_zero(order) -> QSeries:
    return QSeries.from_ints(order, (0,) * order)


def series_monomial(c, m, order) -> QSeries:
    """c * q^m truncated at order."""
    if m < 0:
        raise NegativeQPower(f"monomial with negative q-power {m}")
    c = Fraction(c)
    nums = [0] * order
    if m < order:
        nums[m] = c.numerator
    return QSeries.from_ints(order, nums, c.denominator)


def series_add(f: QSeries, g: QSeries) -> QSeries:
    n = min(f.order, g.order)
    a, b = f.nums[:n], g.nums[:n]
    if f.den == g.den:
        return QSeries.from_ints(n, [x + y for x, y in zip(a, b)], f.den)
    den = math.lcm(f.den, g.den)
    sa, sb = den // f.den, den // g.den
    return QSeries.from_ints(n, [x * sa + y * sb for x, y in zip(a, b)], den)


def series_shift(f: QSeries, c, m, order=None) -> QSeries:
    """Multiply by the monomial c * q^m, truncated at order (default
    f.order, or f.order + m for m < 0).  f is known modulo q^f.order, so
    the product is known modulo q^(f.order + m), the largest order allowed.
    A negative m drops the first -m coefficients, which must be zero for a
    power series."""
    n = f.order + min(m, 0) if order is None else order
    if n > f.order + m:
        raise ValueError(f"order {n} exceeds the known order {f.order + m}")
    if m < 0 and any(f.nums[:-m]):
        raise NegativeQPower(f"q^{m} times a series of valuation {f.valuation()}")
    c = Fraction(c)
    p = c.numerator
    nums = [0] * min(max(m, 0), n) + [p * x for x in f.nums[max(-m, 0):max(n - m, 0)]]
    return QSeries.from_ints(n, nums, c.denominator * f.den)


def _int_convolve(a, b, n):
    """The first n coefficients of the product of two integer vectors,
    skipping zero coefficients (q-series products are usually sparse)."""
    out = [0] * n
    for i in range(n):
        x = a[i]
        if not x:
            continue
        for j in range(n - i):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def series_mul(f: QSeries, g: QSeries) -> QSeries:
    """Cauchy product truncated at min(f.order, g.order): one integer
    convolution of the numerators over the product of the denominators."""
    n = min(f.order, g.order)
    return QSeries.from_ints(n, _int_convolve(f.nums, g.nums, n), f.den * g.den)


def series_apply_binomials(f: QSeries, factors, order=None) -> QSeries:
    """f, modulo q^order (default f.order), times (1 + c*q^e), or divided
    by it where inverse, for each (c, e, inverse) in factors (c an int or a
    Fraction): O(N) integer operations per factor and one gcd normalisation
    at the end.  Factors with e >= N are 1 modulo q^N and skipped.

    With c = p/d a product has the numerators d*a[i] + p*a[i-e] over d*den.
    A quotient g satisfies g[i] = a[i] - c*g[i-e] (e >= 1); the integers
    H[i] = d^k * g[i], k = i // e, satisfy H[i] = d^k * a[i] - p*H[i-e],
    and g[i] = H[i] * d^(K-k) / d^K over the largest k = K."""
    n = f.order if order is None else min(order, f.order)
    out, den = list(f.nums[:n]), f.den
    for c, e, inverse in factors:
        if e < 0:
            raise NegativeQPower(f"binomial factor with negative q-power {e}")
        if e >= n or not c:
            continue
        p, d = c.numerator, c.denominator
        if e == 0:
            # the scalar 1 + c = (d + p)/d, or its reciprocal
            s = d + p
            if inverse:
                if not s:
                    raise ZeroConstantTerm("cannot invert a series with zero constant term")
                s, d = d, s
            out = [s * x for x in out]
            den *= d
        elif not inverse:
            if d == 1:
                for i in range(n - 1, e - 1, -1):
                    x = out[i - e]
                    if x:
                        out[i] += p * x
            else:
                for i in range(n - 1, e - 1, -1):
                    out[i] = d * out[i] + p * out[i - e]
                for i in range(e):
                    out[i] *= d
                den *= d
        elif d == 1:
            for i in range(e, n):
                x = out[i - e]
                if x:
                    out[i] -= p * x
        else:
            top = (n - 1) // e
            powers = [1]
            for _ in range(top):
                powers.append(powers[-1] * d)
            for i in range(e, n):
                out[i] = powers[i // e] * out[i] - p * out[i - e]
            out = [x * powers[top - i // e] for i, x in enumerate(out)]
            den *= powers[top]
    return QSeries.from_ints(n, out, den)


def series_mul_binomial(f: QSeries, c, e) -> QSeries:
    """f * (1 + c*q^e) in O(N) coefficient operations."""
    return series_apply_binomials(f, ((c, e, False),))


def series_div_binomial(f: QSeries, c, e) -> QSeries:
    """f / (1 + c*q^e) in O(N) coefficient operations."""
    return series_apply_binomials(f, ((c, e, True),))


def series_mul_many(factors) -> QSeries:
    """Product of several series: the numerators are convolved in turn
    and the denominators multiplied, with one normalisation at the end."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    n = min(f.order for f in factors)
    acc, den = factors[0].nums[:n], factors[0].den
    for f in factors[1:]:
        acc = _int_convolve(acc, f.nums, n)
        den *= f.den
    return QSeries.from_ints(n, acc, den)


def series_inv(f: QSeries) -> QSeries:
    """Multiplicative inverse: g with f*g = 1 + O(q^N), by Newton doubling
    g <- g*(2 - f*g) on top of the integer-convolution multiply."""
    n = f.order
    if n == 0:
        return f
    if f.nums[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    g = QSeries.from_ints(1, (f.den,), f.nums[0])
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        gp = QSeries.from_ints(prec, g.nums + (0,) * (prec - g.order), g.den)
        fg = series_mul(f.truncate(prec), gp)
        two_minus = QSeries.from_ints(
            prec, (2 * fg.den - fg.nums[0],) + tuple(-x for x in fg.nums[1:]),
            fg.den)
        g = series_mul(gp, two_minus)
    return g


def series_pow(f: QSeries, k: int) -> QSeries:
    """f**k for integer k (negative k inverts first)."""
    if k < 0:
        return series_pow(series_inv(f), -k)
    result = series_one(f.order)
    base = f
    while k:
        if k & 1:
            result = series_mul(result, base)
        base = series_mul(base, base) if k > 1 else base
        k >>= 1
    return result


@dataclass(frozen=True)
class ParamValue:
    """Exact-backend value of a free parameter: the monomial coeff * q^qpow."""

    coeff: Fraction
    qpow: int

    def __post_init__(self):
        if type(self.coeff) is not Fraction:
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.qpow < 0:
            raise NegativeQPower(f"parameter value with qpow {self.qpow}")

    def is_zero(self):
        return self.coeff == 0

    def mul(self, other: "ParamValue") -> "ParamValue":
        return ParamValue(self.coeff * other.coeff, self.qpow + other.qpow)

    def div(self, other: "ParamValue") -> "ParamValue":
        if other.coeff == 0:
            raise ZeroConstantTerm("division by a zero parameter value")
        if self.coeff == 0:
            return ParamValue(_ZERO, 0)
        if self.qpow < other.qpow:
            raise NegativeQPower(
                f"q^{self.qpow} / q^{other.qpow} would need a Laurent series"
            )
        return ParamValue(self.coeff / other.coeff, self.qpow - other.qpow)

    def pow(self, k: int) -> "ParamValue":
        if k < 0:
            if self.qpow > 0:
                raise NegativeQPower(f"negative power of monomial with qpow {self.qpow}")
            if self.coeff == 0:
                raise ZeroConstantTerm("0 to a negative power")
            return ParamValue(self.coeff ** k, 0)
        if self.coeff == 0 and k == 0:
            return ParamValue(_ONE, 0)
        return ParamValue(self.coeff ** k, self.qpow * k)

    def neg(self) -> "ParamValue":
        return ParamValue(-self.coeff, self.qpow)

    def to_series(self, order) -> QSeries:
        return series_monomial(self.coeff, self.qpow, order)

    def __str__(self):
        if self.qpow == 0:
            return str(self.coeff)
        qpart = "q" if self.qpow == 1 else f"q^{self.qpow}"
        if self.coeff == 1:
            return qpart
        if self.coeff == -1:
            return f"-{qpart}"
        return f"{self.coeff}*{qpart}"

