"""Exact scalar and truncated-series arithmetic.

Coefficients are arbitrary-precision rationals (fractions.Fraction), so a
verified identity is a proof of coefficient equality up to the truncation
order.  A QSeries of order N stores exactly N coefficients and all
operations truncate at the smallest order involved; no operation ever
reports a coefficient at or beyond the truncation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeQPower, ZeroConstantTerm

# All exact coefficients live in Q.  Fraction already maintains the
# invariants we need (positive denominator, gcd-reduced after every op).
Rational = Fraction

#: Default truncation order for catalog verification.
DEFAULT_ORDER = 64

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class QSeries:
    """Truncated formal power series in q: sum of coeffs[i] * q^i, known
    modulo q^order."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be non-negative")
        if len(self.coeffs) != self.order:
            raise ValueError("coeffs length must equal order")

    def __getitem__(self, i):
        return self.coeffs[i]

    def valuation(self):
        """Index of the lowest nonzero coefficient, or order if zero mod q^N."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order):
        if order >= self.order:
            return self
        return QSeries(order, self.coeffs[:order])

    def eval_at(self, x):
        """Numeric value of the truncated polynomial at x (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c.numerator / c.denominator if isinstance(x, float) else c)
        return acc

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*q^{i}" if i else str(c))
        return " + ".join(parts) if parts else "0"


def series_const(c, order) -> QSeries:
    coeffs = [_ZERO] * order
    if order > 0:
        coeffs[0] = Fraction(c)
    return QSeries(order, tuple(coeffs))


def series_one(order) -> QSeries:
    return series_const(1, order)


def series_zero(order) -> QSeries:
    return QSeries(order, (_ZERO,) * order)


def series_monomial(c, m, order) -> QSeries:
    """c * q^m truncated at order."""
    if m < 0:
        raise NegativeQPower(f"monomial with negative q-power {m}")
    coeffs = [_ZERO] * order
    if m < order:
        coeffs[m] = Fraction(c)
    return QSeries(order, tuple(coeffs))


def series_add(f: QSeries, g: QSeries) -> QSeries:
    n = min(f.order, g.order)
    return QSeries(n, tuple(f.coeffs[i] + g.coeffs[i] for i in range(n)))


def series_scale(f: QSeries, c) -> QSeries:
    c = Fraction(c)
    return QSeries(f.order, tuple(c * x for x in f.coeffs))


def series_shift(f: QSeries, c, m) -> QSeries:
    """Multiply by the monomial c * q^m (m >= 0)."""
    if m < 0:
        raise NegativeQPower(f"shift by negative q-power {m}")
    c = Fraction(c)
    n = f.order
    out = [_ZERO] * n
    for i in range(min(n - m, n) if m < n else 0):
        if f.coeffs[i]:
            out[i + m] = c * f.coeffs[i]
    return QSeries(n, tuple(out))


def _to_int_coeffs(coeffs):
    """Scale Fraction coefficients to integers over one common denominator."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def series_mul(f: QSeries, g: QSeries) -> QSeries:
    """Cauchy product truncated at min(f.order, g.order).

    Runs the convolution over integers (coefficients scaled by a common
    denominator) -- far cheaper than Fraction arithmetic, which reduces
    by gcd on every operation.  Zero coefficients are skipped; q-series
    products are usually sparse.
    """
    n = min(f.order, g.order)
    fi, df = _to_int_coeffs(f.coeffs[:n])
    gi, dg = _to_int_coeffs(g.coeffs[:n])
    out = [0] * n
    for i in range(n):
        a = fi[i]
        if not a:
            continue
        for j in range(n - i):
            b = gi[j]
            if b:
                out[i + j] += a * b
    den = df * dg
    return QSeries(n, tuple(Fraction(v, den) for v in out))


def series_mul_binomial(f: QSeries, c, e) -> QSeries:
    """f * (1 + c*q^e) in O(N) coefficient operations."""
    if e < 0:
        raise NegativeQPower(f"binomial factor with negative q-power {e}")
    n = f.order
    c = Fraction(c)
    out = list(f.coeffs)
    if c and e > 0:
        for i in range(n - 1, e - 1, -1):
            if f.coeffs[i - e]:
                out[i] += c * f.coeffs[i - e]
    elif c:
        for i in range(n):
            out[i] += c * f.coeffs[i]
    return QSeries(n, tuple(out))


def series_div_binomial(f: QSeries, c, e) -> QSeries:
    """f / (1 + c*q^e) in O(N) coefficient operations (e >= 1)."""
    if e <= 0:
        raise ValueError("series_div_binomial requires e >= 1")
    n = f.order
    c = Fraction(c)
    out = list(f.coeffs)
    for i in range(e, n):
        if out[i - e]:
            out[i] -= c * out[i - e]
    return QSeries(n, tuple(out))


def series_mul_many(factors) -> QSeries:
    """Product of several series, accumulated in integer space: one
    common-denominator conversion per factor and a single Fraction
    rebuild at the end."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    n = min(f.order for f in factors)
    acc, den = _to_int_coeffs(factors[0].coeffs[:n])
    for f in factors[1:]:
        gi, dg = _to_int_coeffs(f.coeffs[:n])
        out = [0] * n
        for i in range(n):
            a = acc[i]
            if not a:
                continue
            for j in range(n - i):
                b = gi[j]
                if b:
                    out[i + j] += a * b
        acc = out
        den *= dg
    return QSeries(n, tuple(Fraction(v, den) for v in acc))


def series_inv(f: QSeries) -> QSeries:
    """Multiplicative inverse: g with f*g = 1 + O(q^N), by Newton doubling
    g <- g*(2 - f*g) on top of the integer-convolution multiply."""
    n = f.order
    if n == 0:
        return f
    if f.coeffs[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    g = QSeries(1, (1 / f.coeffs[0],))
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        fp = f.truncate(prec)
        gp = QSeries(prec, g.coeffs + (_ZERO,) * (prec - g.order))
        fg = series_mul(fp, gp)
        two_minus = QSeries(prec, tuple(
            (2 - c if i == 0 else -c) for i, c in enumerate(fg.coeffs)))
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


def series_section(f: QSeries, r: int, s: int) -> QSeries:
    """Multisection: keep only coefficients of q^i with i = s (mod r),
    exponents unchanged.  (f_even = series_section(f, 2, 0), etc.)"""
    if r < 1 or not (0 <= s < r):
        raise ValueError("need r >= 1 and 0 <= s < r")
    out = [c if i % r == s % r else _ZERO for i, c in enumerate(f.coeffs)]
    return QSeries(f.order, tuple(out))


def series_subs_neg_q(f: QSeries) -> QSeries:
    """f(-q): negate coefficients of odd powers."""
    return QSeries(f.order, tuple(-c if i & 1 else c for i, c in enumerate(f.coeffs)))


@dataclass(frozen=True)
class ParamValue:
    """Exact-backend value of a free parameter: the monomial coeff * q^qpow."""

    coeff: Fraction
    qpow: int

    def __post_init__(self):
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


def parse_param_value(text: str) -> ParamValue:
    """Parse the CLI value grammar 'c*q^m' (also plain 'c', 'q', '-q^3',
    'c/d*q^m')."""
    t = text.strip().replace(" ", "")
    neg = False
    if t.startswith("-"):
        neg = True
        t = t[1:]
    if "*" in t:
        cpart, qpart = t.split("*", 1)
    elif t.startswith("q"):
        cpart, qpart = "1", t
    else:
        cpart, qpart = t, ""
    if qpart:
        if qpart == "q":
            m = 1
        elif qpart.startswith("q^"):
            m = int(qpart[2:])
        else:
            raise ValueError(f"bad parameter value {text!r}")
    else:
        m = 0
    coeff = Fraction(cpart)
    if neg:
        coeff = -coeff
    return ParamValue(coeff, m)
