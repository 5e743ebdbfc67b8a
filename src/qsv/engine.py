"""Evaluation of identity expressions under a substitution.

Two backends share the same AST:

* exact -- truncated formal power series over Q.  Each sum compiles a
  lower bound on its terms' q-adic valuation once, as a min of
  polynomials in its indices, and skips and stops by it: a term whose
  bound reaches the truncation order is skipped, and an index stops only
  where the bound has reached the order and is provably increasing.  A
  substitution whose terms need not gain valuation (a sum driver with
  qpow 0) raises ValuationStall instead of looping.

* numeric -- high-precision complex arithmetic for non-integer base
  exponents; sums stop once a run of small terms plus a geometric tail
  estimate certify the remainder below tolerance.  Each sum call keeps an
  IndexMemo: a summand node is evaluated once per value of the indices it
  mentions, so terms are bit-identical to evaluating it per term.  Exact
  msums keep their monomial parts in one the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, mul

import mpmath
from mpmath import mpc
from mpmath.libmp import mpc_add, mpc_div, mpc_mul

from . import numeric as num
from .errors import (
    DivisionByZeroProduct,
    NonConvergence,
    NonIntegerExponent,
    NonTruncatable,
    QsvError,
    TermCapExceeded,
    UnknownName,
    ValuationStall,
    ZeroConstantTerm,
)
from .exact import (
    DEFAULT_ORDER,
    ParamValue,
    QSeries,
    series_add,
    series_apply_binomials,
    series_inv,
    series_monomial,
    series_mul,
    series_mul_many,
    series_one,
    series_pow,
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
    Sum,
    Theta,
    free_names,
    walk,
)
from .intpoly import ZERO, IntPoly, increasing_from
from .qkernel import (
    ThetaKind,
    poch_finite,
    poch_finite_inv,
    poch_infinite,
    poch_infinite_inv,
    theta_series,
)

#: iteration safety cap for exact sums: the most values one index runs
#: through under one value of the indices outside it
MAX_EXACT_TERMS = 200_000

#: total-term cap for numeric multisums, whose shells grow with their size
MAX_NUMERIC_MSUM_TERMS = 30_000

_ONE = ParamValue(Fraction(1), 0)


@dataclass
class ExactEnv:
    order: int = DEFAULT_ORDER
    params: dict = field(default_factory=dict)  # name -> ParamValue
    exps: dict = field(default_factory=dict)    # name -> non-negative int

    def __post_init__(self):
        for name, value in self.exps.items():
            if not isinstance(value, int) or value < 0:
                raise NonIntegerExponent(f"exponent symbol {name!r} must be a "
                                         f"non-negative integer, got {value!r}")


@dataclass
class NumericEnv:
    q: complex = num.DEFAULT_Q
    params: dict = field(default_factory=dict)  # name -> complex
    exps: dict = field(default_factory=dict)    # name -> complex
    tol: float = num.IDENTITY_TOL


class ExactEvaluator:
    """Exact evaluation under one environment.  `idxenv` maps exponent
    symbols and the bound summation indices to their integer values; the
    entry point `eval` binds the exponent symbols into it once and
    evaluates modulo q^order of env.  Below it, the truncation order N is an
    argument: const0 evaluates modulo q, and a product or a sum term at the
    order its prefactor leaves."""

    def __init__(self, env: ExactEnv):
        self.env = env

    def _bind(self, idxenv):
        """Exponent symbols, shadowed by any summation index of that name."""
        return {**self.env.exps, **(idxenv or {})}

    # -- symbol helpers -------------------------------------------------------

    def _int_at_least(self, p: IntPoly, idxenv, least: int, what: str) -> int:
        v = p.eval_int(idxenv)
        if v < least:
            raise NonIntegerExponent(f"{what} {p.render()} = {v} < {least}")
        return v

    def _qexp(self, p: IntPoly, idxenv) -> int:
        return self._int_at_least(p, idxenv, 0, "q-power exponent")

    def _base_exp(self, p: IntPoly, idxenv) -> int:
        return self._int_at_least(p, idxenv, 1, "base exponent")

    def _length(self, length, idxenv):
        """A Pochhammer length, None for inf."""
        if length is INF:
            return None
        return self._int_at_least(length, idxenv, 0, "Pochhammer length")

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
        if isinstance(e, (Mul, Div)):
            a = self.monomial(e.left, idxenv)
            b = self.monomial(e.right, idxenv)
            if a is None or b is None:
                return None
            return a.mul(b) if isinstance(e, Mul) else a.div(b)
        if isinstance(e, Pow):
            a = self.monomial(e.base, idxenv)
            if a is None:
                return None
            n = e.exponent.eval_int(idxenv)
            return a.pow(n)
        return None

    # -- constant term / valuation bound ----------------------------------------

    def const0(self, e: Expr, idxenv):
        """Constant coefficient of e -- its value mod q -- or None when it
        cannot be evaluated."""
        try:
            return self._eval(e, idxenv, 1)[0]
        except QsvError:
            return None

    def val_lb(self, e: Expr, idxenv, indices):
        """A lower bound on the q-adic valuation of e at every value of the
        summation `indices`, compiled once with every other symbol bound by
        idxenv: (polys, guards), the valuation being at least the min of the
        polys (in the indices; no polys: e is zero) wherever no guard is 0,
        or None when a denominator's constant term may vanish."""
        names = frozenset(indices)
        env = {k: v for k, v in idxenv.items() if k not in names}
        guards = []
        polys = self._bound(e, env, names, guards)
        return None if polys is None else (polys, tuple(dict.fromkeys(guards)))

    def _bound(self, e: Expr, env, names, guards):
        """val_lb's recursion: a tuple of IntPolys or None.  A monomial
        c*q^p gets (p,), its exact valuation, or () when c = 0."""
        if isinstance(e, Const):
            return () if e.value == 0 else (ZERO,)
        if isinstance(e, Param):
            pv = self._param(e.name)
            return () if pv.coeff == 0 else (IntPoly.const(pv.qpow),)
        if isinstance(e, QPow):
            return (e.exponent.subst(env),)
        if isinstance(e, Neg):
            return self._bound(e.arg, env, names, guards)
        if isinstance(e, (Add, Mul)):
            a = self._bound(e.left, env, names, guards)
            b = self._bound(e.right, env, names, guards)
            if isinstance(e, Mul) and (a == () or b == ()):
                return ()
            if a is None or b is None:
                return None
            polys = [p + r for p in a for r in b] if isinstance(e, Mul) else a + b
            return tuple(dict.fromkeys(polys))
        if isinstance(e, Div):
            a = self._bound(e.left, env, names, guards)
            if not a:  # zero, or no bound
                return a
            if _is_monomial(e.right):
                d = self._bound(e.right, env, names, guards)
                return tuple(p - d[0] for p in a) if d else None
            return a if self._nonzero(e.right, env, names, guards) else None
        if isinstance(e, Pow):
            n = e.exponent.subst(env)
            fixed = n.const_value() if n.is_const() else None
            if _is_monomial(e.base) or (fixed is not None and fixed >= 0):
                b = self._bound(e.base, env, names, guards)
                if b == ():  # 0^n
                    return (ZERO,) if fixed is None or fixed == 0 else () if fixed > 0 else None
                return None if b is None else tuple(dict.fromkeys(p * n for p in b))
            return (ZERO,) if self._nonzero(e.base, env, names, guards) else None
        return (ZERO,)  # a product symbol, theta or nested sum: a power series

    def _nonzero(self, e: Expr, env, names, guards) -> bool:
        """Whether e's constant term is provably nonzero wherever no
        polynomial appended to guards is 0: an index-free e by const0,
        once; 1 + c*q^p or a Pochhammer argument c*q^p by the guard p."""
        if free_names(e).isdisjoint(names):
            return self.const0(e, env) not in (None, 0)
        if isinstance(e, (Neg, Pow)):
            return self._nonzero(e.arg if isinstance(e, Neg) else e.base, env, names, guards)
        if isinstance(e, (Mul, Div)):
            return (self._nonzero(e.left, env, names, guards)
                    and self._nonzero(e.right, env, names, guards))
        if isinstance(e, (OmegaProd, StrideProd, Theta)):
            return True
        if isinstance(e, Poch):
            if free_names(e.arg).isdisjoint(names):
                return self.const0(e.arg, env) not in (None, 1)
            mono = e.arg
        elif isinstance(e, Add) and free_names(e.left).isdisjoint(names):
            if self.const0(e.left, env) in (None, 0):
                return False
            mono = e.right
        else:
            return False
        if not _is_monomial(mono):
            return False
        b = self._bound(mono, env, names, guards)
        if b and b[0].is_const():
            return b[0].const_value() > 0
        guards += b
        return True

    # -- evaluation ---------------------------------------------------------------

    def eval(self, e: Expr, idxenv=None) -> QSeries:
        return self._eval(e, self._bind(idxenv), self.env.order)

    def _eval(self, e: Expr, idxenv, N, inverse=False) -> QSeries:
        """e modulo q^N, or 1/e when `inverse`: products, powers and
        Pochhammer symbols invert part by part through O(N)-per-factor
        recurrences, any other series whole."""
        if isinstance(e, (Const, Param, QPow, Pow)):
            m = self.monomial(e, idxenv)
            if m is not None:
                return (m.pow(-1) if inverse else m).to_series(N)
            # a Pow over a non-monomial base
            return series_pow(self._eval(e.base, idxenv, N, inverse),
                              e.exponent.eval_int(idxenv))
        if isinstance(e, (Neg, Mul, Div, OmegaProd, StrideProd)):
            parts = []
            self._flatten_product(e, inverse, parts)
            return self._product(parts, idxenv, N)
        if isinstance(e, Poch):
            return self._eval_symbol(e, idxenv, N, inverse)
        if isinstance(e, Add):
            s = series_add(self._eval(e.left, idxenv, N), self._eval(e.right, idxenv, N))
        elif isinstance(e, Theta):
            kind = ThetaKind.PSI if e.kind == "psi" else ThetaKind.PHI_MINUS
            s = theta_series(kind, N)
        elif isinstance(e, Sum):
            s = self._eval_sum((e.index,), e.start, e.stride, e.summand, idxenv, N)
        elif isinstance(e, MultiSum):
            s = self._eval_sum(tuple(e.indices), 0, 1, e.summand, idxenv, N)
        else:
            raise TypeError(f"unknown expression node {e!r}")
        return series_inv(s) if inverse else s

    def _flatten_product(self, e, inverted, out):
        """Append e's parts as (node, inverted) pairs; qomega and qstride
        give the two Pochhammer symbols of their quotient."""
        if isinstance(e, (OmegaProd, StrideProd)):
            e = e.quotient
        if isinstance(e, Mul):
            self._flatten_product(e.left, inverted, out)
            self._flatten_product(e.right, inverted, out)
        elif isinstance(e, Div):
            self._flatten_product(e.left, inverted, out)
            self._flatten_product(e.right, not inverted, out)
        elif isinstance(e, Neg):
            out.append((Const(Fraction(-1)), inverted))
            self._flatten_product(e.arg, inverted, out)
        elif isinstance(e, Pow) and e.exponent.is_const() and e.exponent.const_value() < 0:
            out.append((Pow(e.base, -e.exponent), not inverted))
        else:
            out.append((e, inverted))

    def _parts_product(self, parts, idxenv, N, reduced) -> QSeries:
        """The product of the series `parts` modulo q^reduced, evaluated
        modulo q^max(N, reduced)."""
        factors = [self._eval(node, idxenv, max(N, reduced), inv).truncate(reduced)
                   for node, inv in parts]
        return factors[0] if len(factors) == 1 else series_mul_many(factors)

    def _product(self, parts, idxenv, N, series=None, series_parts=(), memo=None) -> QSeries:
        """Product chains modulo q^N: fold every monomial part, read through
        `memo` where it keeps the part, into one c*q^v prefactor, and multiply
        it by `series_parts` and the other parts, which `series(reduced)`, or
        else `_parts_product`, builds modulo q^reduced, reduced = N - v.  A
        prefactor at or past the order gives 0 only when every inverted part
        has a known nonzero constant term; otherwise the parts are still
        built, so that a vanishing denominator raises.  A prefactor with v < 0
        takes the parts modulo q^(N - v), from `_parts_product`, and the
        shift raises NegativeQPower unless their product vanishes below q^(-v)."""
        num_mono = den_mono = _ONE
        series_parts = list(series_parts)
        for node, inv in parts:
            names = memo.mentions.get(id(node)) if memo is not None else None
            if names is None:
                m = self.monomial(node, idxenv)
            else:
                key = (id(node), *[idxenv[ix] for ix in names])
                m = memo.values.get(key)
                if m is None:
                    m = memo.values[key] = self.monomial(node, idxenv)
            if m is None:
                series_parts.append((node, inv))
            elif inv:
                den_mono = den_mono.mul(m)
            else:
                num_mono = num_mono.mul(m)
        if num_mono.is_zero():
            return series_zero(N)
        if den_mono.is_zero():
            raise ZeroConstantTerm("division by a zero parameter value")
        c, v = num_mono.coeff / den_mono.coeff, num_mono.qpow - den_mono.qpow
        if not series_parts:
            return series_monomial(c, v, N)
        reduced = N - v
        if reduced <= 0:
            if all(self.const0(node, idxenv) not in (None, 0)
                   for node, inv in series_parts if inv):
                return series_zero(N)
            reduced = 1
        built = (series(reduced) if series and reduced <= N
                 else self._parts_product(series_parts, idxenv, N, reduced))
        return series_shift(built, c, v, N)

    def _eval_symbol(self, e, idxenv, N, inverse: bool) -> QSeries:
        """A Poch node, or its reciprocal."""
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
        argseries = self._eval(e.arg, idxenv, N)
        one = series_one(N)
        out = one
        for i in range(length):
            out = series_mul(out, series_add(one, series_shift(argseries, -1, base * i)))
        return series_inv(out) if inverse else out

    # -- sums -------------------------------------------------------------------

    def _eval_sum(self, indices, start, stride, summand, idxenv, N) -> QSeries:
        """Each index runs through start, start + stride, ...: `SumPlan.points`.
        Each term is added from its valuation on; the total is normalised once."""
        plan = SumPlan(self, indices, summand, idxenv, N)
        total, den = [0] * N, 1
        for sub_idx in plan.points(idxenv, start, stride):
            term = plan.term(sub_idx)
            v = term.nums.index(next(filter(None, term.nums), 0))
            if den % term.den:
                scale = term.den // math.gcd(den, term.den)
                total, den = [x * scale for x in total], den * scale
            total[v:] = map(add, total[v:], map(mul, term.nums[v:], repeat(den // term.den)))
        return QSeries.from_ints(N, total, den)


class SumPlan:
    """The summand of one sum or msum, its terms taken modulo q^N, N =
    `order`.  Its valuation bound (`bound`, `guards`), compiled when the
    plan is made, decides which terms are evaluated (`points`); its parts,
    compiled at its first term, make a term cost a few O(N) binomial steps
    instead of an O(N^2) product.

    Catalog summands are q-hypergeometric in their indices.  Of the parts
    `_product` sees, monomials are evaluated per term (folded by
    `_product`; in an msum, once per value of the indices they mention, by
    an IndexMemo), index-free series are evaluated once, at the first term
    that needs them, into the running series, and binomials 1 + m (m an
    index-dependent monomial) are applied per term.  Chains -- finite
    (x; q^h)_len with x != 1 and h index-free, also to a fixed power >= 1,
    among them the two symbols of a qomega or qstride quotient, and the
    (x; q^h)_m of an infinite product split by `_moving_product` -- stay in
    the running series, which a term moves to its lengths by each factor
    (1 - x q^(x.qpow + h*i)) in between.  One running series is kept per
    index level (the first term under the current values of the indices up
    to it), so an msum never divides back when an inner index resets, and
    modulo q^(N - w), w the least monomial q-power of the terms still to
    come from that level (`_precision`).  Any other index-dependent part
    is evaluated per term by `_eval`, modulo q^(N - v), and multiplied in.
    Parts are evaluated in product order, so a term raises what `_eval` of
    the summand raises."""

    def __init__(self, ev: ExactEvaluator, indices, summand, idxenv, order):
        self.ev, self.indices, self.summand, self.order = ev, tuple(indices), summand, order
        compiled = ev.val_lb(summand, idxenv, indices)
        self.bound, self.guards = compiled or (None, ())
        self.parts = None

    def points(self, idxenv, start=0, stride=1):
        """The index environments of the terms to evaluate, each index
        running through start, start + stride, ... in lexicographic order.

        Every polynomial of the bound (in the steps j, index = start +
        stride*j) must reach the order, and every guard 1, before a term is
        skipped.  A polynomial splits into a constant, one part per index
        and cross terms, which must have positive coefficients and count as
        0; the lowest value the completions of a prefix can reach is the
        constant, the parts of the fixed indices and the minimum over j >= 0
        of each free part.  A prefix is skipped when that reaches every
        threshold, and an index stops once it does past the Cauchy root
        bound of every part's derivative, where every part increases.  A
        polynomial that need not reach its threshold along some index
        raises ValuationStall; with no bound the first term is evaluated, so
        that a vanishing denominator raises its own error, and then
        ValuationStall is raised."""
        indices, N = self.indices, self.order

        def at(js):
            return {**idxenv, **{ix: start + stride * j for ix, j in zip(indices, js)}}

        def stall(ix, detail):
            return ValuationStall(f"terms of the sum over {ix!r} stopped gaining "
                                  f"q-valuation ({detail})")

        if self.bound is None:
            yield at((0,) * len(indices))
            raise stall(indices[0], "no valuation bound")
        by_step = {ix: IntPoly.const(start) + IntPoly.symbol(ix) * stride for ix in indices}
        rows, K = [], [-1] * len(indices)
        for p, least, kind in ([(p, N, "bound") for p in self.bound]
                               + [(g, 1, "guard") for g in self.guards]):
            what = f"{kind} {p.render()}"
            den, const, parts, positive = _int_parts(
                p if (start, stride) == (0, 1) else p.subst(by_step), indices)
            if not positive:
                raise stall(", ".join(indices), f"{what} has a negative cross term")
            rises = []
            for ix, f in zip(indices, parts):
                if f[-1] < 0:
                    raise stall(ix, what)
                rises.append(increasing_from(f))
                if rises[-1] >= MAX_EXACT_TERMS:
                    raise TermCapExceeded(f"sum over {ix!r} exceeded the term cap "
                                          f"of {MAX_EXACT_TERMS}")
            lows = [min(_horner(f, k) for k in range(r + 2)) for f, r in zip(parts, rises)]
            need = den * least - const
            if sum(lows) >= need:
                continue  # at or past its threshold at every term
            for j, (ix, f) in enumerate(zip(indices, parts)):
                if len(f) < 2:
                    raise stall(ix, what)
                K[j] = max(K[j], rises[j])
            rows.append((need, parts, [sum(lows[j + 1:]) for j in range(len(lows))]))

        def descend(j, fixed, prefix):
            for k in range(MAX_EXACT_TERMS):
                here = [fx + _horner(parts[j], k) for fx, (_, parts, _) in zip(fixed, rows)]
                if all(h + rest[j] >= need for h, (need, _, rest) in zip(here, rows)):
                    if k > K[j]:
                        return
                elif j + 1 == len(indices):
                    yield at(prefix + (k,))
                else:
                    yield from descend(j + 1, here, prefix + (k,))
            raise TermCapExceeded(f"sum over {indices[j]!r} exceeded the term cap "
                                  f"of {MAX_EXACT_TERMS}")

        yield from descend(0, [0] * len(rows), ())

    def term(self, idxenv) -> QSeries:
        """The summand under idxenv, which binds every index of the sum."""
        if self.parts is None:
            self._compile(idxenv)
        return self.ev._product(self.monomials, idxenv, self.order,
                                lambda reduced: self._series(idxenv, reduced),
                                self.parts, self.memo)

    def _series(self, idxenv, reduced) -> QSeries:
        """The product of the series parts at this term, modulo q^reduced."""
        ev, lengths, binomials, evaluated = self.ev, [], [], []
        fixed = [] if self._levels is None else None
        for kind, target, inv in self.steps:  # in product order, as _eval raises
            if kind == "chain":
                lengths.append(ev._length(target, idxenv))
            elif kind == "binomial":
                m = ev.monomial(target, idxenv)
                if inv and m.qpow == 0 and m.coeff == -1:
                    raise ZeroConstantTerm("cannot invert a series with zero constant term")
                binomials.append((m.coeff, m.qpow, inv))
            elif kind == "eval":  # at the term's order
                evaluated.append(ev._eval(target, idxenv, reduced, inv))
            elif fixed is not None:
                fixed.append(ev._eval(target, idxenv, self.order, inv))
        if fixed is not None:
            start = series_mul_many(fixed) if fixed else series_one(self.order)
            self._levels = [((0,) * len(self.chains), start)] * len(self.indices)
        series = self._move(tuple(idxenv[ix] for ix in self.indices), lengths)
        series = (series_apply_binomials(series, binomials, reduced) if binomials
                  else series.truncate(reduced))
        return series_mul_many([series, *evaluated]) if evaluated else series

    def _move(self, values, lengths) -> QSeries:
        """The running series of the outermost index level that changed
        since the last move, cut to `_precision` and stepped to `lengths`."""
        level = next((i for i, (a, b) in enumerate(zip(values, self._last)) if a != b),
                     len(values) - 1)
        have, series = self._levels[level]
        order = self._precision(level, values)
        factors = []
        for (c, e0, h, power), old, new in zip(self.chains, have, lengths):
            inverse = (new > old) != (power > 0)
            for i in range(min(old, new), max(old, new)):
                e = e0 + h * i
                if e >= order:
                    break  # this factor and all later ones are 1 at this order
                factors += [(c, e, inverse)] * abs(power)
        series = (series_apply_binomials(series, factors, order) if factors
                  else series.truncate(order))
        self._levels[level:] = [(lengths, series)] * (len(values) - level)
        self._last = values
        return series

    def _precision(self, level, values) -> int:
        """N - w within 1..N, w the least monomial q-power of the terms still to
        come from `level` (outer indices fixed, its own from its value, inner from 0)."""
        N = self.order
        if self.cut is None:
            return N
        den, const, parts, rises, rest = self.cut
        first = values[level]
        low = (const + rest[level] + sum(map(_horner, parts[:level], values))
               + min(_horner(parts[level], k)
                     for k in range(first, max(first, rises[level] + 1) + 1)))
        return min(N, max(1, N + (-low) // den))

    def _compile(self, idxenv):
        """Sort the summand's parts into monomials and per-term steps."""
        ev, names = self.ev, frozenset(self.indices)
        env = {k: v for k, v in idxenv.items() if k not in names}
        self.monomials, self.parts, self.steps, self.chains, flat = [], [], [], [], []
        ev._flatten_product(self.summand, False, flat)
        for node, inv in flat:  # every monomial first, as _product evaluates them
            if ev.monomial(node, idxenv) is None:
                self.parts.append((node, inv))
            else:
                self.monomials.append((node, inv))
        for node, inv in self.parts:
            self.steps.append(self._step(node, inv, names, idxenv, env)
                              if not free_names(node).isdisjoint(names)
                              else ("fixed", node, inv))
        self.cut = self._compile_cut(env, names) if self.chains else None
        self.memo = None if len(self.indices) == 1 else IndexMemo(  # msums only
            self.indices, [node for node, _ in self.monomials])
        self._levels = None  # built from the fixed parts at the first move
        self._last = (None,) * len(self.indices)  # no term yet

    def _compile_cut(self, env, names):
        """A term's monomial q-power by `_int_parts`, with `increasing_from` and
        the inner indices' minima, for `_precision`; None if it has no lower bound."""
        bounds = [(self.ev._bound(node, env, names, []), inv) for node, inv in self.monomials]
        if not all(b for b, _ in bounds):
            return None  # a zero monomial: the term is 0 or raises
        power = sum((-b[0] if inv else b[0] for b, inv in bounds), ZERO)
        den, const, parts, positive = _int_parts(power, self.indices)
        if not positive or any(f[-1] < 0 for f in parts):
            return None
        rises = [increasing_from(f) for f in parts]
        lows = [min(_horner(f, k) for k in range(r + 2)) for f, r in zip(parts, rises)]
        return den, const, parts, rises, [sum(lows[j + 1:]) for j in range(len(lows))]

    def _step(self, node, inv, names, idxenv, env):
        """The per-term step of an index-dependent series part: ("chain",
        length, None) for the chain it appended, ("binomial", m, inv) for
        1 + m, or ("eval", node, inv) for a part evaluated whole at each
        term."""
        ev, power = self.ev, -1 if inv else 1
        whole = ("eval", node, inv)
        if isinstance(node, Pow) and isinstance(node.base, Poch):
            n = node.exponent.eval_int(idxenv)
            if not node.exponent.symbols().isdisjoint(names) or n < 1:
                return whole
            node, power = node.base, power * n
        if isinstance(node, Poch) and node.base.symbols().isdisjoint(names):
            if node.length is INF:
                return self._moving_product(node, power, names, idxenv, env) or whole
            if not free_names(node.arg).isdisjoint(names):
                return whole
            x = ev.monomial(node.arg, idxenv)
            if x is None or (x.qpow == 0 and x.coeff == 1):
                return whole
            self.chains.append((-x.coeff, x.qpow, ev._base_exp(node.base, idxenv), power))
            return ("chain", node.length, None)
        if (isinstance(node, Add) and free_names(node.left).isdisjoint(names)
                and ev.monomial(node.left, idxenv) == ParamValue(Fraction(1), 0)
                and ev.monomial(node.right, idxenv) is not None
                and not any(isinstance(n, Div) for n, _ in walk(node.right))):
            return ("binomial", node.right, inv)
        return whole

    def _moving_product(self, node, power, names, idxenv, env):
        """(c*q^L; q^h)_inf, c index-free, L(0) >= 1, is (x; q^h)_inf / (x; q^h)_m, x = c*q^L(0)
        when m = (L - L(0))/h has non-negative integer coefficients: add both steps, or None."""
        ev = self.ev
        if not _is_monomial(node.arg) or any(  # or an index outside its q-powers
                isinstance(n, Pow) and not free_names(n).isdisjoint(names)
                for n, _ in walk(node.arg)):
            return None
        power_of_q = ev._bound(node.arg, env, names, [])  # (), c = 0, or (L,)
        h = ev._base_exp(node.base, idxenv)
        m = power_of_q and power_of_q[0].without_constant() * Fraction(1, h)
        if (not m or power_of_q[0].const_value() < 1
                or any(c < 0 or c.denominator != 1 for c in m.terms.values())):
            return None
        x = ev.monomial(node.arg, {**idxenv, **dict.fromkeys(names, 0)})
        fixed = Poch(Mul(Const(x.coeff), QPow(IntPoly.const(x.qpow))), node.base, INF)
        self.steps.append(("fixed", fixed if abs(power) == 1
                           else Pow(fixed, IntPoly.const(abs(power))), power < 0))
        self.chains.append((-x.coeff, x.qpow, h, -power))
        return ("chain", m, None)


class IndexMemo:
    """Values of a sum's summand nodes, kept for one sum call: `mentions`
    maps the id of each of `nodes` that does not mention every index of the
    sum to the indices it does mention, and `values` keeps such a node's
    value by its id and the values of those indices.  The exact backend
    keeps an msum's monomial parts here, the numeric one every summand node
    outside a nested sum; each reads the two tables in place."""

    __slots__ = ("mentions", "values")

    def __init__(self, indices, nodes):
        self.mentions, self.values = {}, {}
        for node in nodes:
            names = free_names(node)
            mentioned = tuple(ix for ix in indices if ix in names)
            if len(mentioned) < len(indices):
                self.mentions[id(node)] = mentioned


def _is_monomial(e: Expr) -> bool:
    """Whether e has the shape `ExactEvaluator.monomial` evaluates."""
    return all(isinstance(n, (Const, Param, QPow, Neg, Mul, Div, Pow)) for n, _ in walk(e))


def _int_parts(p: IntPoly, indices):
    """p times the lcm `den` of its coefficients' denominators, split as
    (den, constant, [coefficients, low to high, of the part in each index
    alone], whether every cross term is positive), all in integers."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    const, parts, positive = 0, [[0] for _ in indices], True
    for mono, c in p.terms.items():
        c = int(c * den)
        for s, _ in mono:
            if s not in indices:
                raise UnknownName(f"unbound exponent symbol {s!r}")
        if len(mono) == 1:
            (s, d), = mono
            part = parts[indices.index(s)]
            part.extend([0] * (d + 1 - len(part)))
            part[d] = c
        elif mono:
            positive = positive and c > 0
        else:
            const = c
    return den, const, parts, positive


def _horner(coeffs, x):
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def eval_exact(e: Expr, env: ExactEnv) -> QSeries:
    return ExactEvaluator(env).eval(e)


# ---------------------------------------------------------------------------
# numeric backend
# ---------------------------------------------------------------------------


class NumericEvaluator:
    """Numeric evaluation under one environment.

    Values that no summation index changes are computed once per evaluator
    and reused by every summand term: the converted environment, log(q),
    the q^h bases, infinite products and the prefixes of finite products.
    `sym` maps exponent symbols and the bound summation indices to their
    values.
    """

    @mpmath.workdps(num.WORK_DPS)
    def __init__(self, env: NumericEnv):
        self.env = env
        self.q = num.to_cnum(env.q)
        self._log_q = mpmath.log(self.q)
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
            n, d = value.numerator, value.denominator
            return n if d == 1 else mpc(n) / d
        return value if isinstance(value, int) else num.to_cnum(value)

    def _poly_posint(self, p: IntPoly, sym) -> int:
        v = self._poly(p, sym)
        n = num.near_int(v)
        if n is None or n < 1:
            raise NonIntegerExponent(
                f"{p.render()} must be a positive integer here, got {num.to_cnum(v)}"
            )
        return n

    def _qbase(self, exponent):
        """q^exponent for a Pochhammer base, memoized by the exponent's value."""
        key = getattr(exponent, "_mpc_", exponent)
        base = self._qbases.get(key)
        if base is None:
            base = self._qbases[key] = num.cpow(self.q, exponent, self._log_q)
        return base

    def _param(self, name):
        try:
            return self._params[name]
        except KeyError:
            raise UnknownName(f"unbound parameter {name!r}") from None

    @mpmath.workdps(num.WORK_DPS)
    def eval(self, e: Expr, idxenv=None) -> mpc:
        return self._eval(e, self._bind(idxenv))

    def _eval(self, e: Expr, sym, memo=None) -> mpc:
        """e under sym.  Under a sum's memo, a node that does not mention
        every index of that sum is evaluated once per value of those it
        does mention."""
        names = memo.mentions.get(id(e)) if memo is not None else None
        if names is None:
            return self._eval_node(e, sym, memo)
        key = (id(e), *[sym[ix] for ix in names])
        value = memo.values.get(key)
        if value is None:
            value = memo.values[key] = self._eval_node(e, sym, memo)
        return value

    def _eval_node(self, e: Expr, sym, memo) -> mpc:
        ev = self._eval
        if isinstance(e, Const):
            return mpc(e.value.numerator) / e.value.denominator
        if isinstance(e, Param):
            return self._param(e.name)
        if isinstance(e, QPow):
            return num.cpow(self.q, self._poly(e.exponent, sym), self._log_q)
        if isinstance(e, Neg):
            return -ev(e.arg, sym, memo)
        if isinstance(e, Add):
            return num.raw_op(mpc_add, ev(e.left, sym, memo), ev(e.right, sym, memo))
        if isinstance(e, Mul):
            return num.raw_op(mpc_mul, ev(e.left, sym, memo), ev(e.right, sym, memo))
        if isinstance(e, Div):
            denom = ev(e.right, sym, memo)
            if num.is_zero(denom):
                raise DivisionByZeroProduct("zero denominator")
            return num.check_finite(num.raw_op(mpc_div, ev(e.left, sym, memo), denom))
        if isinstance(e, Pow):
            return num.cpow(ev(e.base, sym, memo), self._poly(e.exponent, sym))
        if isinstance(e, Poch):
            x = ev(e.arg, sym, memo)
            qbase = self._qbase(self._poly(e.base, sym))
            if e.length is INF:
                return self._products.inf(x, qbase)
            return self._products.complex_index(x, qbase,
                                                self._poly(e.length, sym))
        if isinstance(e, (OmegaProd, StrideProd)):
            self._poly_posint(e.h, sym)
            if e.length is not INF:
                n = num.near_int(self._poly(e.length, sym))
                if n is None or n < 0:
                    raise NonIntegerExponent("product length must be a non-negative integer")
            return ev(e.quotient, sym, memo)
        if isinstance(e, Theta):
            fn = (num.theta_psi_numeric if e.kind == "psi"
                  else num.theta_phi_minus_numeric)
            return fn(self.q, self.tol)
        if isinstance(e, Sum):
            return self._eval_sum((e.index,), e.start, e.stride, e.summand, sym)
        if isinstance(e, MultiSum):
            return self._eval_sum(tuple(e.indices), 0, 1, e.summand, sym)
        raise TypeError(f"unknown expression node {e!r}")

    def _eval_sum(self, indices, start, stride, summand, sym) -> mpc:
        """Each index runs through start, start + stride, ...  One index
        sums its terms; several sum shells of equal total step, at most
        MAX_NUMERIC_MSUM_TERMS terms in all."""
        memo = IndexMemo(indices, [node for node, bound in walk(summand) if not bound])
        m = len(indices)
        if m == 1:
            ix, = indices
            return num.sum_with_tail_bound(
                lambda k: self._eval(summand, {**sym, ix: start + stride * k}, memo),
                self.tol)
        terms = 0

        def shell(d):
            nonlocal terms
            terms += math.comb(d + m - 1, m - 1)
            if terms > MAX_NUMERIC_MSUM_TERMS:
                raise NonConvergence(f"multisum did not converge within "
                                     f"{MAX_NUMERIC_MSUM_TERMS} terms")
            total = mpc(0)
            for values in _compositions(d, m, start, stride):
                total += self._eval(summand, {**sym, **dict(zip(indices, values))}, memo)
            return total

        return num.sum_with_tail_bound(shell, self.tol, tail_run=5)


def _cnum_values(values: dict) -> dict:
    """Integers as they are (exact powers, exact polynomial values); any
    other number as an mpc."""
    return {k: v if isinstance(v, int) else num.to_cnum(v)
            for k, v in values.items()}


def _compositions(total, parts, start, stride):
    """The index values start + stride*j of every tuple of `parts` steps
    j >= 0 summing to `total`, in lexicographic order of the steps."""
    if parts == 1:
        yield (start + stride * total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1, start, stride):
            yield (start + stride * first,) + rest


def eval_numeric(e: Expr, env: NumericEnv) -> mpc:
    return NumericEvaluator(env).eval(e)

