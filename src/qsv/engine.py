"""Evaluation of identity expressions under a substitution.

Two backends share the same AST:

* exact -- truncated formal power series over Q.  Infinite sums stop via
  q-adic valuation: a cheap structural lower bound on each term's
  valuation lets the loop skip terms that cannot touch coefficients below
  the truncation order and stop once that bound stays beyond it.  A
  substitution whose terms never gain valuation (a sum driver with
  qpow 0) raises ValuationStall instead of looping.

* numeric -- high-precision complex arithmetic for non-integer base
  exponents; sums stop once a run of small terms plus a geometric tail
  estimate certify the remainder below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpc

from . import numeric as num
from .errors import (
    DivisionByZeroProduct,
    NonIntegerExponent,
    NonTruncatable,
    UnknownName,
    ValuationStall,
)
from .exact import (
    DEFAULT_ORDER,
    ParamValue,
    QSeries,
    series_add,
    series_const,
    series_div_binomial,
    series_inv,
    series_mul,
    series_mul_many,
    series_one,
    series_pow,
    series_scale,
    series_shift,
    series_zero,
)
from .expr import (
    INF,
    Add,
    Const,
    Div,
    Expr,
    Mul,
    MultiSum,
    Neg,
    OmegaProd,
    Param,
    Poch,
    Pow,
    QPow,
    StrideProd,
    Sub,
    Sum,
    Theta,
)
from .intpoly import IntPoly
from .qkernel import (
    ThetaKind,
    omega_product_collapse,
    poch_finite,
    poch_finite_inv,
    poch_infinite,
    poch_infinite_inv,
    stride_base_product,
    theta_series,
)

#: consecutive skipped terms (valuation bound >= order) before a sum stops
STOP_RUN = 4

#: iteration safety cap for exact sums
MAX_EXACT_TERMS = 200_000

_BIG = 10 ** 9


@dataclass
class ExactEnv:
    order: int = DEFAULT_ORDER
    params: dict = field(default_factory=dict)  # name -> ParamValue
    exps: dict = field(default_factory=dict)    # name -> positive int
    stall_limit: int = 1000

    def __post_init__(self):
        for name, value in self.exps.items():
            if not isinstance(value, int) or value < 0:
                raise NonIntegerExponent(f"exponent symbol {name!r} must be a "
                                         f"non-negative integer, got {value!r}")


@dataclass
class NumericEnv:
    q: complex = 0.2
    params: dict = field(default_factory=dict)  # name -> complex
    exps: dict = field(default_factory=dict)    # name -> complex
    tol: float = num.IDENTITY_TOL


class ExactEvaluator:
    def __init__(self, env: ExactEnv):
        self.env = env
        self.order = env.order

    # -- symbol helpers -------------------------------------------------------

    def _poly_env(self, idxenv):
        return {**self.env.exps, **idxenv}

    def _poly_int(self, p: IntPoly, idxenv) -> int:
        return p.eval_int(self._poly_env(idxenv))

    def _qexp(self, p: IntPoly, idxenv) -> int:
        v = self._poly_int(p, idxenv)
        if v < 0:
            raise NonIntegerExponent(f"q-power exponent {p.render()} = {v} < 0")
        return v

    def _base_exp(self, p: IntPoly, idxenv) -> int:
        v = self._poly_int(p, idxenv)
        if v < 1:
            raise NonIntegerExponent(f"base exponent {p.render()} = {v} < 1")
        return v

    def _length(self, length, idxenv):
        if length is INF:
            return None
        v = self._poly_int(length, idxenv)
        if v < 0:
            raise NonIntegerExponent(f"Pochhammer length {length.render()} = {v} < 0")
        return v

    def _param(self, name) -> ParamValue:
        try:
            return self.env.params[name]
        except KeyError:
            raise UnknownName(f"unbound parameter {name!r}") from None

    # -- monomial fast path -----------------------------------------------------

    def monomial(self, e: Expr, idxenv) -> ParamValue | None:
        """Evaluate e as an exact monomial c*q^m, or None if it is not one."""
        if isinstance(e, Const):
            return ParamValue(e.value, 0)
        if isinstance(e, Param):
            return self._param(e.name)
        if isinstance(e, QPow):
            return ParamValue(Fraction(1), self._qexp(e.exponent, idxenv))
        if isinstance(e, Neg):
            m = self.monomial(e.arg, idxenv)
            return None if m is None else m.neg()
        if isinstance(e, Mul):
            a = self.monomial(e.left, idxenv)
            b = self.monomial(e.right, idxenv)
            if a is None or b is None:
                return None
            return a.mul(b)
        if isinstance(e, Div):
            a = self.monomial(e.left, idxenv)
            b = self.monomial(e.right, idxenv)
            if a is None or b is None:
                return None
            return a.div(b)
        if isinstance(e, Pow):
            a = self.monomial(e.base, idxenv)
            if a is None:
                return None
            n = self._poly_int(e.exponent, idxenv)
            return a.pow(n)
        return None

    # -- constant term / valuation bound ----------------------------------------

    def const0(self, e: Expr, idxenv):
        """Constant coefficient of e, or None when not cheaply known."""
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Param):
            pv = self._param(e.name)
            return pv.coeff if pv.qpow == 0 else Fraction(0)
        if isinstance(e, QPow):
            v = self._poly_int(e.exponent, idxenv)
            return Fraction(1) if v == 0 else Fraction(0)
        if isinstance(e, Neg):
            c = self.const0(e.arg, idxenv)
            return None if c is None else -c
        if isinstance(e, Add):
            a = self.const0(e.left, idxenv)
            b = self.const0(e.right, idxenv)
            return None if a is None or b is None else a + b
        if isinstance(e, Sub):
            a = self.const0(e.left, idxenv)
            b = self.const0(e.right, idxenv)
            return None if a is None or b is None else a - b
        if isinstance(e, Mul):
            a = self.const0(e.left, idxenv)
            b = self.const0(e.right, idxenv)
            return None if a is None or b is None else a * b
        if isinstance(e, Div):
            a = self.const0(e.left, idxenv)
            b = self.const0(e.right, idxenv)
            if a is None or b is None or b == 0:
                return None
            return a / b
        if isinstance(e, Pow):
            a = self.const0(e.base, idxenv)
            if a is None:
                return None
            n = self._poly_int(e.exponent, idxenv)
            if n < 0 and a == 0:
                return None
            return a ** n
        if isinstance(e, Poch):
            c = self.const0(e.arg, idxenv)
            if c is None:
                return None
            if c == 0:
                return Fraction(1)
            length = self._length(e.length, idxenv)
            if length is None:
                return None  # genuinely infinite product of (1-c) factors
            return (1 - c) ** length
        if isinstance(e, (OmegaProd, StrideProd, Theta)):
            return Fraction(1)
        return None

    def val_lb(self, e: Expr, idxenv) -> int:
        """Cheap lower bound on the q-adic valuation of e; >= order means
        the term cannot contribute.  No series arithmetic involved."""
        if isinstance(e, Const):
            return _BIG if e.value == 0 else 0
        if isinstance(e, Param):
            pv = self._param(e.name)
            return _BIG if pv.coeff == 0 else pv.qpow
        if isinstance(e, QPow):
            v = self._poly_int(e.exponent, idxenv)
            return max(v, 0)
        if isinstance(e, Neg):
            return self.val_lb(e.arg, idxenv)
        if isinstance(e, (Add, Sub)):
            return min(self.val_lb(e.left, idxenv), self.val_lb(e.right, idxenv))
        if isinstance(e, Mul):
            return min(self.val_lb(e.left, idxenv) + self.val_lb(e.right, idxenv), _BIG)
        if isinstance(e, Div):
            c = self.const0(e.right, idxenv)
            if c is None or c == 0:
                return -_BIG
            return self.val_lb(e.left, idxenv)
        if isinstance(e, Pow):
            n = self._poly_int(e.exponent, idxenv)
            m = self.monomial(e.base, idxenv)
            if m is not None:
                if m.coeff == 0:
                    return _BIG if n > 0 else 0
                return n * m.qpow
            if n >= 0:
                return min(n * max(self.val_lb(e.base, idxenv), 0), _BIG)
            c = self.const0(e.base, idxenv)
            return 0 if c not in (None, 0) else -_BIG
        if isinstance(e, (Poch, OmegaProd, StrideProd, Theta, Sum, MultiSum)):
            return 0
        raise TypeError(f"unknown expression node {e!r}")

    # -- evaluation ---------------------------------------------------------------

    def eval(self, e: Expr, idxenv=None) -> QSeries:
        return self._eval(e, idxenv or {})

    def _eval(self, e: Expr, idxenv) -> QSeries:
        N = self.order
        if isinstance(e, Const):
            return ParamValue(e.value, 0).to_series(N)
        if isinstance(e, Param):
            return self._param(e.name).to_series(N)
        if isinstance(e, QPow):
            return ParamValue(Fraction(1), self._qexp(e.exponent, idxenv)).to_series(N)
        if isinstance(e, Neg):
            return series_scale(self._eval(e.arg, idxenv), -1)
        if isinstance(e, Add):
            return series_add(self._eval(e.left, idxenv), self._eval(e.right, idxenv))
        if isinstance(e, Sub):
            right = series_scale(self._eval(e.right, idxenv), -1)
            return series_add(self._eval(e.left, idxenv), right)
        if isinstance(e, (Mul, Div)):
            return self._eval_product(e, idxenv)
        if isinstance(e, Pow):
            n = self._poly_int(e.exponent, idxenv)
            m = self.monomial(e.base, idxenv)
            if m is not None:
                return m.pow(n).to_series(N)
            return series_pow(self._eval(e.base, idxenv), n)
        if isinstance(e, (Poch, OmegaProd, StrideProd)):
            return self._eval_symbol(e, idxenv, inverse=False)
        if isinstance(e, Theta):
            kind = ThetaKind.PSI if e.kind == "psi" else ThetaKind.PHI_MINUS
            return theta_series(kind, N)
        if isinstance(e, Sum):
            return self._eval_sum(e.index, e.start, e.stride, e.summand, idxenv)
        if isinstance(e, MultiSum):
            return self._eval_msum(e.indices, e.summand, idxenv)
        raise TypeError(f"unknown expression node {e!r}")

    def _flatten_product(self, e, inverted, out):
        if isinstance(e, Mul):
            self._flatten_product(e.left, inverted, out)
            self._flatten_product(e.right, inverted, out)
        elif isinstance(e, Div):
            self._flatten_product(e.left, inverted, out)
            self._flatten_product(e.right, not inverted, out)
        elif isinstance(e, Neg):
            out.append((Const(Fraction(-1)), inverted))
            self._flatten_product(e.arg, inverted, out)
        else:
            out.append((e, inverted))

    def _eval_product(self, e, idxenv, invert_all=False) -> QSeries:
        """Product chains: fold every monomial factor into one c*q^v
        prefactor, evaluate the remaining factors truncated to
        order - v (nothing below the prefactor valuation can matter),
        and multiply in integer space."""
        N = self.order
        parts = []
        self._flatten_product(e, invert_all, parts)
        num_mono = ParamValue(Fraction(1), 0)
        den_mono = ParamValue(Fraction(1), 0)
        series_parts = []
        for node, inv in parts:
            m = self.monomial(node, idxenv)
            if m is not None:
                if inv:
                    den_mono = den_mono.mul(m)
                else:
                    num_mono = num_mono.mul(m)
            else:
                series_parts.append((node, inv))
        if num_mono.is_zero():
            return series_zero(N)
        mono = num_mono.div(den_mono)
        if not series_parts:
            return mono.to_series(N)
        reduced = N - mono.qpow
        if reduced <= 0:
            return series_zero(N)
        factors = []
        for node, inv in series_parts:
            s = self._eval_inv(node, idxenv) if inv else self._eval(node, idxenv)
            factors.append(s.truncate(reduced))
        prod = factors[0] if len(factors) == 1 else series_mul_many(factors)
        out = [Fraction(0)] * N
        c = mono.coeff
        for i, x in enumerate(prod.coeffs):
            if x:
                out[i + mono.qpow] = c * x
        return QSeries(N, tuple(out))

    def _eval_symbol(self, e, idxenv, inverse: bool) -> QSeries:
        """A Poch, OmegaProd or StrideProd node, or its reciprocal."""
        N = self.order
        if not isinstance(e, Poch):
            h = self._base_exp(e.h, idxenv)
            length = self._length(e.length, idxenv)
            fn = (omega_product_collapse if isinstance(e, OmegaProd)
                  else stride_base_product)
            return fn(length, h, N, inverse=inverse)
        arg = self.monomial(e.arg, idxenv)
        base = self._base_exp(e.base, idxenv)
        length = self._length(e.length, idxenv)
        if arg is not None:
            if length is None:
                fn = poch_infinite_inv if inverse else poch_infinite
                return fn(arg, base, N)
            fn = poch_finite_inv if inverse else poch_finite
            return fn(arg, base, length, N)
        # non-monomial argument: expand the product directly
        if length is None:
            raise NonTruncatable("infinite product over a non-monomial argument")
        argseries = self._eval(e.arg, idxenv)
        one = series_one(N)
        out = one
        for i in range(length):
            out = series_mul(out, series_add(one, series_shift(argseries, -1, base * i)))
        return series_inv(out) if inverse else out

    def _eval_inv(self, e: Expr, idxenv) -> QSeries:
        """1/e, routing Pochhammer and near-binomial denominators through
        O(N)-per-factor recurrences instead of a full series inversion."""
        N = self.order
        if isinstance(e, (Poch, OmegaProd, StrideProd)):
            return self._eval_symbol(e, idxenv, inverse=True)
        if isinstance(e, (Mul, Div, Neg)):
            return self._eval_product(e, idxenv, invert_all=True)
        if isinstance(e, Pow):
            n = self._poly_int(e.exponent, idxenv)
            m = self.monomial(e.base, idxenv)
            if m is not None:
                return m.pow(-n).to_series(N)
            return series_pow(self._eval_inv(e.base, idxenv), n)
        m = self.monomial(e, idxenv)
        if m is not None:
            return m.pow(-1).to_series(N)
        s = self._eval(e, idxenv)
        nonzero = [(i, c) for i, c in enumerate(s.coeffs) if c]
        if nonzero and nonzero[0][0] == 0 and len(nonzero) == 2:
            c0 = nonzero[0][1]
            i1, c1 = nonzero[1]
            return series_div_binomial(series_const(1 / c0, N), c1 / c0, i1)
        return series_inv(s)

    # -- sums -------------------------------------------------------------------

    def _stall_preflight(self, summand, index, start, stride, idxenv):
        """Scan the valuation bound along the index before evaluating
        anything; a bound that never rises within the stall window means
        the substitution is outside the formal domain."""
        N = self.order
        limit = self.env.stall_limit
        floor = None
        stalled = 0
        idx = start
        for _ in range(limit + 1):
            lb = self.val_lb(summand, {**idxenv, index: idx})
            if lb >= N:
                return
            if floor is None or lb > floor:
                floor = lb
                stalled = 0
            else:
                stalled += 1
                if stalled >= limit:
                    raise ValuationStall(
                        f"terms of the sum over {index!r} stopped gaining "
                        f"q-valuation (bound stuck at {floor})"
                    )
            idx += stride
        # The bound kept rising through the whole window; treat as healthy.

    def _eval_sum(self, index, start, stride, summand, idxenv) -> QSeries:
        N = self.order
        self._stall_preflight(summand, index, start, stride, idxenv)
        total = [Fraction(0)] * N
        idx = start
        beyond = 0
        vmax = -1
        stall = 0
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_EXACT_TERMS:
                raise ValuationStall(f"sum over {index!r} exceeded the term cap")
            sub_idx = {**idxenv, index: idx}
            lb = self.val_lb(summand, sub_idx)
            if lb >= N:
                beyond += 1
                if beyond >= STOP_RUN:
                    break
                idx += stride
                continue
            beyond = 0
            term = self._eval(summand, sub_idx)
            for i, c in enumerate(term.coeffs):
                if c:
                    total[i] += c
            v = term.valuation()
            if v > vmax:
                vmax = v
                stall = 0
            else:
                stall += 1
                if stall >= self.env.stall_limit:
                    raise ValuationStall(
                        f"terms of the sum over {index!r} stopped gaining "
                        f"q-valuation at {vmax}"
                    )
            idx += stride
        return QSeries(N, tuple(total))

    def _msum_rates(self, indices, summand, idxenv):
        base = {**idxenv, **{i: 0 for i in indices}}
        lb0 = self.val_lb(summand, base)
        rates = []
        for ix in indices:
            lb1 = self.val_lb(summand, {**base, ix: 1})
            rate = lb1 - lb0
            if rate < 1:
                raise ValuationStall(
                    f"multisum index {ix!r} gains no q-valuation per step"
                )
            rates.append(rate)
        return max(lb0, 0), rates

    def _eval_msum(self, indices, summand, idxenv) -> QSeries:
        N = self.order
        if len(indices) == 1:
            return self._eval_sum(indices[0], 0, 1, summand, idxenv)
        lb0, rates = self._msum_rates(indices, summand, idxenv)
        total = [Fraction(0)] * N
        budget = N - lb0

        def enumerate_rec(pos, assignment, spent):
            if pos == len(indices):
                sub_idx = {**idxenv, **assignment}
                if self.val_lb(summand, sub_idx) >= N:
                    return
                term = self._eval(summand, sub_idx)
                for i, c in enumerate(term.coeffs):
                    if c:
                        total[i] += c
                return
            ix, rate = indices[pos], rates[pos]
            k = 0
            while spent + rate * k <= budget:
                assignment[ix] = k
                enumerate_rec(pos + 1, assignment, spent + rate * k)
                k += 1
            assignment.pop(ix, None)

        enumerate_rec(0, {}, 0)
        return QSeries(N, tuple(total))

    def sum_sectioned(self, summand, index, r, s, idxenv=None) -> QSeries:
        """Sum over index = s, s+r, s+2r, ... by direct stride enumeration."""
        if r < 1 or not (0 <= s < r):
            raise ValueError("need r >= 1 and 0 <= s < r")
        return self._eval_sum(index, s, r, summand, idxenv or {})


def eval_exact(e: Expr, env: ExactEnv) -> QSeries:
    return ExactEvaluator(env).eval(e)


def sum_sectioned_exact(summand: Expr, index: str, r: int, s: int,
                        env: ExactEnv) -> QSeries:
    return ExactEvaluator(env).sum_sectioned(summand, index, r, s)


# ---------------------------------------------------------------------------
# numeric backend
# ---------------------------------------------------------------------------


class NumericEvaluator:
    """Numeric evaluation under one environment.

    Values that no summation index changes are computed once per evaluator
    and reused by every summand term: the converted environment, the q^h
    bases, infinite products and the prefixes of finite products.  `sym`
    maps exponent symbols and the bound summation indices to their values.
    """

    def __init__(self, env: NumericEnv):
        self.env = env
        self.q = num.to_cnum(env.q)
        self.tol = env.tol
        self._exps = _cnum_values(env.exps)
        self._params = {name: num.to_cnum(v) for name, v in env.params.items()}
        self._qbases = {}
        self._products = num.QPochMemo(self.tol)

    def _bind(self, idxenv):
        return {**self._exps, **_cnum_values(idxenv or {})}

    def _poly(self, p: IntPoly, sym):
        value = p.eval(sym)
        if isinstance(value, Fraction):
            return mpc(value.numerator) / value.denominator
        return num.to_cnum(value)

    def _poly_posint(self, p: IntPoly, sym) -> int:
        v = self._poly(p, sym)
        n = num.near_int(v)
        if n is None or n < 1:
            raise NonIntegerExponent(
                f"{p.render()} must be a positive integer here, got {v}"
            )
        return n

    def _qbase(self, exponent):
        """q^exponent for a Pochhammer base, memoized by the exponent's value."""
        base = self._qbases.get(exponent)
        if base is None:
            base = self._qbases[exponent] = num.cpow(self.q, exponent)
        return base

    def _param(self, name):
        try:
            return self._params[name]
        except KeyError:
            raise UnknownName(f"unbound parameter {name!r}") from None

    def eval(self, e: Expr, idxenv=None) -> mpc:
        return self._eval(e, self._bind(idxenv))

    def _eval(self, e: Expr, sym) -> mpc:
        if isinstance(e, Const):
            return mpc(e.value.numerator) / e.value.denominator
        if isinstance(e, Param):
            return self._param(e.name)
        if isinstance(e, QPow):
            return num.cpow(self.q, self._poly(e.exponent, sym))
        if isinstance(e, Neg):
            return -self._eval(e.arg, sym)
        if isinstance(e, Add):
            return self._eval(e.left, sym) + self._eval(e.right, sym)
        if isinstance(e, Sub):
            return self._eval(e.left, sym) - self._eval(e.right, sym)
        if isinstance(e, Mul):
            return self._eval(e.left, sym) * self._eval(e.right, sym)
        if isinstance(e, Div):
            denom = self._eval(e.right, sym)
            if denom == 0:
                raise DivisionByZeroProduct("zero denominator")
            return num.check_finite(self._eval(e.left, sym) / denom)
        if isinstance(e, Pow):
            return num.cpow(self._eval(e.base, sym), self._poly(e.exponent, sym))
        if isinstance(e, Poch):
            x = self._eval(e.arg, sym)
            qbase = self._qbase(self._poly(e.base, sym))
            if e.length is INF:
                return self._products.inf(x, qbase)
            return self._products.complex_index(x, qbase,
                                                self._poly(e.length, sym))
        if isinstance(e, OmegaProd):
            h = self._poly_posint(e.h, sym)
            return self._ratio_prod(e.length, sym, h, omega=True)
        if isinstance(e, StrideProd):
            h = self._poly_posint(e.h, sym)
            return self._ratio_prod(e.length, sym, h, omega=False)
        if isinstance(e, Theta):
            fn = (num.theta_psi_numeric if e.kind == "psi"
                  else num.theta_phi_minus_numeric)
            return fn(self.q, self.tol)
        if isinstance(e, Sum):
            return self._eval_sum(e, sym)
        if isinstance(e, MultiSum):
            return self._eval_msum(e, sym)
        raise TypeError(f"unknown expression node {e!r}")

    def _ratio_prod(self, length, sym, h, omega: bool):
        """omega: (q^h;q^h)_n / (q;q)_n;  stride: (q;q)_{h n} / (q^h;q^h)_n."""
        qh = self._qbase(h)
        products = self._products
        if length is INF:
            num_ = products.inf(qh if omega else self.q, qh if omega else self.q)
            den = products.inf(self.q if omega else qh, self.q if omega else qh)
        else:
            n = self._poly(length, sym)
            ni = num.near_int(n)
            if ni is None or ni < 0:
                raise NonIntegerExponent("product length must be a non-negative integer")
            if omega:
                num_ = products.finite(qh, qh, ni)
                den = products.finite(self.q, self.q, ni)
            else:
                num_ = products.finite(self.q, self.q, h * ni)
                den = products.finite(qh, qh, ni)
        if den == 0:
            raise DivisionByZeroProduct("product denominator vanished")
        return num.check_finite(num_ / den)

    def _eval_sum(self, e: Sum, sym) -> mpc:
        def term(k):
            return self._eval(e.summand, {**sym, e.index: e.start + e.stride * k})

        return num.sum_with_tail_bound(term, self.tol)

    def _eval_msum(self, e: MultiSum, sym) -> mpc:
        indices = e.indices
        m = len(indices)
        if m == 1:
            return self._eval_sum(Sum(indices[0], 0, 1, e.summand), sym)

        def shell(d):
            total = mpc(0)
            for assignment in _compositions(d, m):
                sub_sym = {**sym, **dict(zip(indices, assignment))}
                total += self._eval(e.summand, sub_sym)
            return total

        return num.sum_with_tail_bound(shell, self.tol, max_terms=2000, tail_run=5)

    def sum_sectioned(self, summand, index, r, s, idxenv=None) -> mpc:
        if r < 1 or not (0 <= s < r):
            raise ValueError("need r >= 1 and 0 <= s < r")
        sym = self._bind(idxenv)

        def term(k):
            return self._eval(summand, {**sym, index: s + r * k})

        return num.sum_with_tail_bound(term, self.tol)

    def sum_sectioned_roots(self, summand, index, r, s, idxenv=None) -> mpc:
        """Root-of-unity averaging route for the sectioned sum: average the
        full sums with the summand twisted by w^(nu*index)."""
        if r < 1 or not (0 <= s < r):
            raise ValueError("need r >= 1 and 0 <= s < r")
        sym = self._bind(idxenv)
        total = mpc(0)
        for nu in range(r):
            w = num.root_of_unity(r, nu)

            def term(k, w=w):
                value = self._eval(summand, {**sym, index: k})
                return value * w ** k

            total += num.root_of_unity(r, -nu * s) * num.sum_with_tail_bound(
                term, self.tol)
        return total / r


def _cnum_values(values: dict) -> dict:
    """Integers as they are (exact powers, exact polynomial values); any
    other number as an mpc."""
    return {k: v if isinstance(v, int) else num.to_cnum(v)
            for k, v in values.items()}


def _compositions(total, parts):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def eval_numeric(e: Expr, env: NumericEnv) -> mpc:
    return NumericEvaluator(env).eval(e)


# ---------------------------------------------------------------------------
# Fundamental-Lemma numeric sides (general section count r needs literal
# roots of unity and fractional powers, outside the catalog DSL)
# ---------------------------------------------------------------------------


def fl_lhs_numeric(a, b, c, z, q, p, r, s, u, v, tol=num.IDENTITY_TOL) -> mpc:
    """sum_k (a;q)_{rk+s}/(q;q)_{rk+s} * (b;p)_{uk+v}/(c;p)_{uk+v} * z^k."""
    a, b, c, z, q, p = map(num.to_cnum, (a, b, c, z, q, p))

    def term(k):
        n1 = r * k + s
        n2 = u * k + v
        t1 = num.qpoch_finite_numeric(a, q, n1) / num.qpoch_finite_numeric(q, q, n1)
        t2 = num.qpoch_finite_numeric(b, p, n2) / num.qpoch_finite_numeric(c, p, n2)
        return t1 * t2 * z ** k

    return num.sum_with_tail_bound(term, tol)


def fl_rhs_numeric(a, b, c, z, q, p, r, s, u, v, tol=num.IDENTITY_TOL) -> mpc:
    """(1/r) (b;p)_inf/(c;p)_inf sum_{nu<r} w^{-s nu} z^{-s/r}
    sum_j (c/b;p)_j/(p;p)_j * (a w^nu z^{1/r} p^{uj/r};q)_inf /
    (w^nu z^{1/r} p^{uj/r};q)_inf * (b p^{v-us/r})^j with w = e^{2 pi i/r}."""
    a, b, c, z, q, p = map(num.to_cnum, (a, b, c, z, q, p))
    prefix = num.qpoch_inf_numeric(b, p, tol) / num.qpoch_inf_numeric(c, p, tol)
    z_root = num.cpow(z, mpmath.mpf(1) / r)
    z_neg = num.cpow(z, -mpmath.mpf(s) / r)
    bp = b * num.cpow(p, v - mpmath.mpf(u * s) / r)
    cb = c / b
    total = mpc(0)
    for nu in range(r):
        w = num.root_of_unity(r, nu)

        def term(j, w=w):
            pfrac = num.cpow(p, mpmath.mpf(u * j) / r)
            base_arg = w * z_root * pfrac
            ratio = (num.qpoch_inf_numeric(a * base_arg, q, tol)
                     / num.qpoch_inf_numeric(base_arg, q, tol))
            coeff = (num.qpoch_finite_numeric(cb, p, j)
                     / num.qpoch_finite_numeric(p, p, j))
            return coeff * ratio * bp ** j

        inner = num.sum_with_tail_bound(term, tol)
        total += num.root_of_unity(r, -s * nu) * z_neg * inner
    return prefix * total / r
