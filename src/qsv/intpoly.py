"""Polynomials over summation indices and integer exponent symbols.

These appear as powers of q (q^{t*tri(j)}), as Pochhammer lengths (h*k+1)
and as Pochhammer base exponents (q^h).  Internally a polynomial is a dict
from monomials to Fraction coefficients; the builtins tri(x) = x(x+1)/2
and binom2(x) = x(x-1)/2 expand immediately, so half-integer coefficients
are allowed as long as the polynomial is integer-valued on the integer
assignments it is evaluated at (checked when the exact backend asks for
an integer).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonIntegerExponent, UnknownName

# monomial: tuple of (symbol, power) pairs, sorted by symbol, powers >= 1
# IntPoly.terms: dict monomial -> Fraction (no zero coefficients stored)

_EMPTY = ()


class IntPoly:
    __slots__ = ("terms", "_compiled", "_key")

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self._compiled = None  # (den, ((int coeff, monomial), ...)), see eval_int
        self._key = None  # see key

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c) -> "IntPoly":
        return IntPoly({_EMPTY: Fraction(c)})

    @staticmethod
    def symbol(name: str) -> "IntPoly":
        return IntPoly({((name, 1),): Fraction(1)})

    @staticmethod
    def tri(p: "IntPoly") -> "IntPoly":
        """x(x+1)/2: triangular numbers of an integer-valued polynomial."""
        return (p * p + p) * Fraction(1, 2)

    @staticmethod
    def binom2(p: "IntPoly") -> "IntPoly":
        """x(x-1)/2."""
        return (p * p - p) * Fraction(1, 2)

    # -- structure ----------------------------------------------------------

    def is_const(self):
        return all(m == _EMPTY for m in self.terms)

    def const_value(self):
        return self.terms.get(_EMPTY, Fraction(0))

    def is_zero(self):
        return not self.terms

    def symbols(self):
        out = set()
        for m in self.terms:
            for s, _ in m:
                out.add(s)
        return out

    def without_constant(self) -> "IntPoly":
        return IntPoly({m: c for m, c in self.terms.items() if m != _EMPTY})

    def split_on(self, names) -> tuple["IntPoly", "IntPoly"]:
        """Split into (part mentioning any of names, part free of them)."""
        names = set(names)
        dep, free = {}, {}
        for m, c in self.terms.items():
            if any(s in names for s, _ in m):
                dep[m] = c
            else:
                free[m] = c
        return IntPoly(dep), IntPoly(free)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = IntPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return IntPoly(out)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = IntPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return IntPoly({m: c * v for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return IntPoly(out)

    __rmul__ = __mul__

    def pow(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- substitution and evaluation -----------------------------------------

    def subst(self, env: dict) -> "IntPoly":
        """Replace symbols by IntPoly or integer values (simultaneous)."""
        if not any(s in env for m in self.terms for s, _ in m):
            return self
        out = {}
        for m, c in self.terms.items():
            kept, part = [], None
            for s, p in m:
                v = env.get(s)
                if isinstance(v, int):
                    c *= v ** p
                elif v is None:
                    kept.append((s, p))
                else:
                    part = v.pow(p) if part is None else part * v.pow(p)
            mono = IntPoly({tuple(kept): c})
            for key, c in (mono if part is None else mono * part).terms.items():
                out[key] = out.get(key, 0) + c
        return IntPoly(out)

    def eval(self, env: dict):
        """Numeric evaluation; env maps symbols to numbers (Fraction,
        int, float, or complex-like).  The value is the sum, in term order,
        of each coefficient times its powers, without the operations that
        change nothing: a coefficient 1 times, a power 1 and a leading 0 +."""
        total = None
        for m, c in self.terms.items():
            v = None if c == 1 and m else c
            for s, p in m:
                if s not in env:
                    raise UnknownName(f"unbound exponent symbol {s!r}")
                x = env[s] if p == 1 else env[s] ** p
                v = x if v is None else v * x
            total = v if total is None else total + v
        return 0 if total is None else total

    def eval_int(self, env: dict) -> int:
        """Exact-backend evaluation; must produce an integer.  The first
        call compiles the polynomial to integer coefficients over one
        common denominator, so integer inputs cost integer arithmetic only."""
        compiled = self._compiled
        if compiled is None:
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            compiled = self._compiled = (den, tuple(
                (c.numerator * (den // c.denominator), m)
                for m, c in self.terms.items()))
        den, terms = compiled
        total = 0
        for c, m in terms:
            for s, p in m:
                if s not in env:
                    raise UnknownName(f"unbound exponent symbol {s!r}")
                c *= env[s] if p == 1 else env[s] ** p
            total += c
        if total % den:
            raise NonIntegerExponent(f"exponent {self} evaluated to {Fraction(total, den)}")
        return total // den

    # -- canonical key / rendering --------------------------------------------

    def key(self):
        """The sorted (monomial, coefficient) pairs, built once."""
        key = self._key
        if key is None:
            key = self._key = tuple(sorted(self.terms.items()))
        return key

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"IntPoly({self.render()})"

    def render(self) -> str:
        """Canonical text form, re-parseable by the DSL intpoly grammar."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.key():
            factors = []
            if c == -1 and m:
                sign, coeff = "-", ""
            elif c < 0:
                sign, coeff = "-", _render_frac(-c)
            elif c == 1 and m:
                sign, coeff = "+", ""
            else:
                sign, coeff = "+", _render_frac(c)
            if coeff:
                factors.append(coeff)
            for s, p in m:
                factors.append(s if p == 1 else f"{s}^{p}")
            text = "*".join(factors) if factors else "1"
            parts.append((sign, text))
        first_sign, first = parts[0]
        out = ("-" + first) if first_sign == "-" else first
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out


def _render_frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mono_mul(m1, m2):
    powers = {}
    for s, p in m1:
        powers[s] = powers.get(s, 0) + p
    for s, p in m2:
        powers[s] = powers.get(s, 0) + p
    return tuple(sorted(powers.items()))


ZERO = IntPoly()
ONE = IntPoly.const(1)


def increasing_from(coeffs) -> int:
    """An integer K past which sum(coeffs[i] * x^i), of positive leading
    coefficient, increases: Cauchy's root bound of its derivative, or -1."""
    der = [i * c for i, c in enumerate(coeffs)][1:]
    if len(der) < 2:
        return -1
    return math.floor(1 + max(abs(Fraction(c, der[-1])) for c in der[:-1]))
