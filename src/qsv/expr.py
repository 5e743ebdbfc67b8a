"""Expression AST for q-series identities, plus structural normalization
and capture-avoiding substitution.

The surface AST is what the parser produces and the engine evaluates.
Normalization converts a surface tree into a canonical form (flattened,
sorted products; folded constants; Pochhammer symbols with length offsets
split into explicit leading factors; index-free factors pulled out of
sums) so that derivation checking can compare two encodings of the same
display by structural equality alone.  No general algebraic rewriting is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexShadowing, UnknownName
from .exact import ParamValue
from .intpoly import IntPoly

# ---------------------------------------------------------------------------
# surface AST
# ---------------------------------------------------------------------------


class Inf:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Inf()


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class QPow(Expr):
    exponent: IntPoly


@dataclass(frozen=True)
class Poch(Expr):
    """poch(arg; q^base)_length with base a polynomial in the exponent
    symbols and length a polynomial in indices/symbols or INF."""

    arg: Expr
    base: IntPoly
    length: object  # IntPoly | Inf


@dataclass(frozen=True)
class OmegaProd(Expr):
    """(q*w, q*w^2, ..., q*w^{h-1}; q)_length for w a primitive h-th root
    of unity; rational-coefficient value (q^h;q^h)_len / (q;q)_len."""

    h: IntPoly
    length: object


@dataclass(frozen=True)
class StrideProd(Expr):
    """(q, q^2, ..., q^{h-1}; q^h)_length = (q;q)_{h*len} / (q^h;q^h)_len."""

    h: IntPoly
    length: object


@dataclass(frozen=True)
class Theta(Expr):
    kind: str  # "psi" | "phi_minus"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: IntPoly


@dataclass(frozen=True)
class Sum(Expr):
    index: str
    start: int
    stride: int
    summand: Expr


@dataclass(frozen=True)
class MultiSum(Expr):
    indices: tuple
    summand: Expr


def const(v) -> Const:
    return Const(Fraction(v))


ONE = const(1)
ZERO = const(0)


def pv_expr(pv: ParamValue) -> Expr:
    """Surface expression for a monomial parameter value c*q^m."""
    if pv.coeff == 0:
        return ZERO
    if pv.qpow == 0:
        return const(pv.coeff)
    qp = QPow(IntPoly.const(pv.qpow))
    if pv.coeff == 1:
        return qp
    if pv.coeff == -1:
        return Neg(qp)
    return Mul(const(pv.coeff), qp)


# ---------------------------------------------------------------------------
# free names and substitution
# ---------------------------------------------------------------------------


def free_names(e: Expr) -> set:
    """All free names: parameters plus symbols inside exponent polynomials
    (summation indices bound by enclosing sums are excluded)."""
    out = set()

    def walk(node, bound):
        if isinstance(node, Const):
            return
        if isinstance(node, Param):
            if node.name not in bound:
                out.add(node.name)
        elif isinstance(node, QPow):
            out.update(node.exponent.symbols() - bound)
        elif isinstance(node, Poch):
            walk(node.arg, bound)
            out.update(node.base.symbols() - bound)
            if isinstance(node.length, IntPoly):
                out.update(node.length.symbols() - bound)
        elif isinstance(node, (OmegaProd, StrideProd)):
            out.update(node.h.symbols() - bound)
            if isinstance(node.length, IntPoly):
                out.update(node.length.symbols() - bound)
        elif isinstance(node, Theta):
            return
        elif isinstance(node, Neg):
            walk(node.arg, bound)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            walk(node.left, bound)
            walk(node.right, bound)
        elif isinstance(node, Pow):
            walk(node.base, bound)
            out.update(node.exponent.symbols() - bound)
        elif isinstance(node, Sum):
            walk(node.summand, bound | {node.index})
        elif isinstance(node, MultiSum):
            walk(node.summand, bound | set(node.indices))
        else:
            raise TypeError(f"unknown expression node {node!r}")

    walk(e, set())
    return out


def children(e: Expr) -> tuple:
    """The sub-expressions directly under e (exponent polynomials and
    lengths are IntPoly values, not sub-expressions)."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, (Neg, Poch)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Sum, MultiSum)):
        return (e.summand,)
    return ()


def walk(e: Expr, bound: frozenset = frozenset()):
    """Every node of e in pre-order, each paired with the summation
    indices bound by the sums around it."""
    yield e, bound
    if isinstance(e, Sum):
        bound = bound | {e.index}
    elif isinstance(e, MultiSum):
        bound = bound | set(e.indices)
    for child in children(e):
        yield from walk(child, bound)


def param_names(e: Expr) -> set:
    """Free names used as parameter leaves (as opposed to exponent
    symbols, which only appear inside polynomials)."""
    return {node.name for node, bound in walk(e)
            if isinstance(node, Param) and node.name not in bound}


def substitute(e: Expr, sub: dict, *, check_names: bool = True) -> Expr:
    """Simultaneous substitution of free names.

    Values may be integers (exponent symbols), ParamValue monomials, or
    expressions.  Summation indices are never substitutable; substituting
    a value whose free names would be captured by a binder raises
    IndexShadowing, and a key that is not free in the expression raises
    UnknownName.
    """
    if check_names:
        free = free_names(e)
        for name in sub:
            if name not in free:
                raise UnknownName(f"substitution target {name!r} is not free here")

    poly_env = {}
    expr_env = {}
    for name, value in sub.items():
        if isinstance(value, bool):
            raise TypeError("boolean substitution value")
        if isinstance(value, int):
            poly_env[name] = value
            expr_env[name] = const(value)
        elif isinstance(value, ParamValue):
            expr_env[name] = pv_expr(value)
        elif isinstance(value, Param):
            # symbol renaming works in both value and exponent positions
            poly_env[name] = IntPoly.symbol(value.name)
            expr_env[name] = value
        elif isinstance(value, Expr):
            expr_env[name] = value
        else:
            raise TypeError(f"bad substitution value for {name!r}: {value!r}")

    def sub_poly(p: IntPoly, bound) -> IntPoly:
        env = {}
        for s in p.symbols():
            if s in bound:
                continue
            if s in poly_env:
                env[s] = poly_env[s]
            elif s in sub:
                raise UnknownName(
                    f"{s!r} appears in an exponent polynomial; only integer "
                    f"values or plain symbols can be substituted there"
                )
        return p.subst(env) if env else p

    def sub_len(length, bound):
        return sub_poly(length, bound) if isinstance(length, IntPoly) else length

    def walk(node, bound):
        if isinstance(node, Const):
            return node
        if isinstance(node, Param):
            if node.name in bound or node.name not in expr_env:
                return node
            value = expr_env[node.name]
            captured = free_names(value) & bound
            if captured:
                raise IndexShadowing(
                    f"substituting {node.name!r} would capture {sorted(captured)}"
                )
            return value
        if isinstance(node, QPow):
            return QPow(sub_poly(node.exponent, bound))
        if isinstance(node, Poch):
            return Poch(walk(node.arg, bound), sub_poly(node.base, bound),
                        sub_len(node.length, bound))
        if isinstance(node, OmegaProd):
            return OmegaProd(sub_poly(node.h, bound), sub_len(node.length, bound))
        if isinstance(node, StrideProd):
            return StrideProd(sub_poly(node.h, bound), sub_len(node.length, bound))
        if isinstance(node, Theta):
            return node
        if isinstance(node, Neg):
            return Neg(walk(node.arg, bound))
        if isinstance(node, (Add, Sub, Mul, Div)):
            return type(node)(walk(node.left, bound), walk(node.right, bound))
        if isinstance(node, Pow):
            return Pow(walk(node.base, bound), sub_poly(node.exponent, bound))
        if isinstance(node, Sum):
            if node.index in sub:
                raise IndexShadowing(f"cannot substitute bound index {node.index!r}")
            return Sum(node.index, node.start, node.stride,
                       walk(node.summand, bound | {node.index}))
        if isinstance(node, MultiSum):
            for ix in node.indices:
                if ix in sub:
                    raise IndexShadowing(f"cannot substitute bound index {ix!r}")
            return MultiSum(node.indices, walk(node.summand, bound | set(node.indices)))
        raise TypeError(f"unknown expression node {node!r}")

    return walk(e, set())


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------
#
# canon(expr) -> CSum: a sorted sum of CTerm products.  Each CTerm is
#   coef * q^qexp * prod(atom^exp).
# Atoms are canonical leaves; a composite sum appearing as a factor is
# wrapped in AAdd.  Bound indices are renamed positionally (i0, i1, ...)
# so that alpha-equivalent trees share one canonical form.


@dataclass(frozen=True)
class CTerm:
    coef: Fraction
    qexp: IntPoly
    factors: tuple  # ((atom, IntPoly exponent), ...) sorted


@dataclass(frozen=True)
class CSum:
    terms: tuple  # (CTerm, ...) sorted

    def is_zero(self):
        return not self.terms

    def single(self):
        return self.terms[0] if len(self.terms) == 1 else None


@dataclass(frozen=True)
class AParam:
    name: str


@dataclass(frozen=True)
class AConstPow:
    base: Fraction  # |base| != 1 or base == -1; raised to a symbolic exponent


@dataclass(frozen=True)
class APoch:
    arg: CSum
    base: IntPoly
    length: object  # IntPoly | Inf


@dataclass(frozen=True)
class AOmega:
    h: IntPoly
    length: object


@dataclass(frozen=True)
class AStride:
    h: IntPoly
    length: object


@dataclass(frozen=True)
class ATheta:
    kind: str


@dataclass(frozen=True)
class ASum:
    index: str
    start: int
    stride: int
    body: CSum


@dataclass(frozen=True)
class AMulti:
    indices: tuple
    body: CSum


@dataclass(frozen=True)
class AAdd:
    body: CSum


def _len_key(length):
    if isinstance(length, IntPoly):
        return (0, length.key())
    return (1,)


def _atom_key(atom):
    if isinstance(atom, AParam):
        return (0, atom.name)
    if isinstance(atom, AConstPow):
        return (1, atom.base)
    if isinstance(atom, APoch):
        return (2, _csum_key(atom.arg), atom.base.key(), _len_key(atom.length))
    if isinstance(atom, AOmega):
        return (3, atom.h.key(), _len_key(atom.length))
    if isinstance(atom, AStride):
        return (4, atom.h.key(), _len_key(atom.length))
    if isinstance(atom, ATheta):
        return (5, atom.kind)
    if isinstance(atom, ASum):
        return (6, atom.index, atom.start, atom.stride, _csum_key(atom.body))
    if isinstance(atom, AMulti):
        return (7, atom.indices, _csum_key(atom.body))
    if isinstance(atom, AAdd):
        return (8, _csum_key(atom.body))
    raise TypeError(f"unknown atom {atom!r}")


def _term_shape_key(t: CTerm):
    return (t.qexp.key(), tuple((_atom_key(a), e.key()) for a, e in t.factors))


def _term_key(t: CTerm):
    return (_term_shape_key(t), t.coef)


def _csum_key(s: CSum):
    return tuple(_term_key(t) for t in s.terms)


CS_ZERO = CSum(())


def _cs_const(c) -> CSum:
    c = Fraction(c)
    if c == 0:
        return CS_ZERO
    return CSum((CTerm(c, IntPoly(), ()),))


CS_ONE = _cs_const(1)


def _parity_reduce(p: IntPoly) -> IntPoly:
    """Reduce an exponent of (-1) modulo 2: c*s1^a*s2^b with integer c and
    integer symbol values satisfies (-1)^(c*s1^a*s2^b) = (-1)^((c%2)*s1*s2).
    If any coefficient is fractional the polynomial is returned unchanged."""
    if any(c.denominator != 1 for c in p.terms.values()):
        return p
    acc = {}
    for mono, c in p.terms.items():
        radical = tuple(sorted((s, 1) for s, _ in mono))
        acc[radical] = (acc.get(radical, 0) + int(c)) % 2
    return IntPoly({m: Fraction(c) for m, c in acc.items() if c})


def _binomial_shape(atom):
    """If atom is AAdd(1 - y) with y a monomial term, return y's CTerm."""
    if not isinstance(atom, AAdd) or len(atom.body.terms) != 2:
        return None
    t0, t1 = atom.body.terms
    if not (t0.coef == 1 and t0.qexp.is_zero() and not t0.factors):
        t0, t1 = t1, t0
    if not (t0.coef == 1 and t0.qexp.is_zero() and not t0.factors):
        return None
    return CTerm(-t1.coef, t1.qexp, t1.factors)


def _normalize_factors(coef: Fraction, qexp: IntPoly, factor_map: dict):
    """Final cleanup of a factor multiset: drop zero exponents, fold
    constant powers of rational bases into the coefficient, reduce powers
    of -1 modulo 2, pair (x;b)_L * (-x;b)_L -> (x^2;2b)_L, and absorb or
    shed explicit binomials on infinite products:
      (1-y)^e * (y q^b; b)_inf^e   -> (y; b)_inf^e
      (1-y)^-e * (y; b)_inf^e      -> (1-y)^0 * (y q^b; b)_inf^e
    so that the same display reshaped by pulling one factor out of an
    infinite product still normalizes to one canonical form."""
    changed = True
    while changed:
        changed = False
        # pairing pass: (x;b)_L^e * (-x;b)_L^e -> (x^2;2b)_L^e, x a monomial
        poch_atoms = sorted((a for a in factor_map if isinstance(a, APoch)),
                            key=_atom_key)
        for atom in poch_atoms:
            if atom not in factor_map:
                continue
            single = atom.arg.single()
            if single is None:
                continue
            partner_arg = CSum((CTerm(-single.coef, single.qexp, single.factors),))
            partner = APoch(partner_arg, atom.base, atom.length)
            if partner in factor_map and partner != atom:
                if factor_map[partner] == factor_map[atom]:
                    exp = factor_map.pop(atom)
                    factor_map.pop(partner)
                    sq = CTerm(single.coef ** 2, single.qexp * 2,
                               tuple((a, x * 2) for a, x in single.factors))
                    merged = APoch(CSum((sq,)), atom.base * 2, atom.length)
                    factor_map[merged] = _poly_add(factor_map.get(merged), exp)
                    changed = True
        # binomial absorption into / out of infinite products
        binomials = sorted((a for a in factor_map if isinstance(a, AAdd)),
                           key=_atom_key)
        for bin_atom in binomials:
            if bin_atom not in factor_map:
                continue
            y = _binomial_shape(bin_atom)
            if y is None:
                continue
            f = factor_map[bin_atom]
            done = False
            for atom in sorted((a for a in factor_map if isinstance(a, APoch)
                                and a.length is INF), key=_atom_key):
                single = atom.arg.single()
                if single is None or single.factors != y.factors:
                    continue
                e = factor_map[atom]
                if (single.coef == y.coef and single.qexp == y.qexp + atom.base
                        and e == f):
                    # (1-y)(y q^b;b)_inf -> (y;b)_inf
                    factor_map.pop(bin_atom)
                    factor_map.pop(atom)
                    merged = APoch(CSum((y,)), atom.base, INF)
                    factor_map[merged] = _poly_add(factor_map.get(merged), e)
                    done = True
                    break
                if (single.coef == y.coef and single.qexp == y.qexp
                        and e == -f):
                    # (y;b)_inf^e = (1-y)^e (y q^b;b)_inf^e cancels the binomial
                    factor_map.pop(bin_atom)
                    factor_map.pop(atom)
                    shifted = CTerm(y.coef, y.qexp + atom.base, y.factors)
                    new_atom = APoch(CSum((shifted,)), atom.base, INF)
                    factor_map[new_atom] = _poly_add(factor_map.get(new_atom), e)
                    done = True
                    break
            if done:
                changed = True

    out = []
    for atom, exp in factor_map.items():
        if exp.is_zero():
            continue
        if isinstance(atom, AConstPow):
            if atom.base == 1:
                continue
            if atom.base == -1:
                exp = _parity_reduce(exp)
            # the constant part of the exponent folds into the coefficient:
            # c^(P + n) = c^n * c^P
            n = exp.constant_part()
            if n != 0 and n.denominator == 1:
                coef *= atom.base ** int(n)
                exp = exp.without_constant()
            if exp.is_zero():
                continue
        out.append((atom, exp))
    out.sort(key=lambda fe: (_atom_key(fe[0]), fe[1].key()))
    return coef, qexp, tuple(out)


def _poly_add(a, b):
    return b if a is None else a + b


def _make_term(coef, qexp, factor_map) -> CSum:
    if coef == 0:
        return CS_ZERO
    coef, qexp, factors = _normalize_factors(coef, qexp, factor_map)
    if coef == 0:
        return CS_ZERO
    if (qexp.is_zero() and len(factors) == 1
            and isinstance(factors[0][0], AAdd)
            and factors[0][1] == IntPoly.const(1)):
        # a bare constant multiple of a composite sum distributes, matching
        # the constant-distribution rule applied when the sum is built up
        body = factors[0][0].body
        return CSum(tuple(CTerm(coef * t.coef, t.qexp, t.factors)
                          for t in body.terms))
    return CSum((CTerm(coef, qexp, factors),))


def _cs_add(*sums) -> CSum:
    acc = {}
    for s in sums:
        for t in s.terms:
            shape = _term_shape_key(t)
            if shape in acc:
                old = acc[shape]
                acc[shape] = CTerm(old.coef + t.coef, t.qexp, t.factors)
            else:
                acc[shape] = t
    terms = tuple(sorted((t for t in acc.values() if t.coef != 0), key=_term_key))
    return CSum(terms)


def _term_mul(a: CTerm, b: CTerm) -> CSum:
    fm = {}
    for atom, exp in a.factors:
        fm[atom] = _poly_add(fm.get(atom), exp)
    for atom, exp in b.factors:
        fm[atom] = _poly_add(fm.get(atom), exp)
    return _make_term(a.coef * b.coef, a.qexp + b.qexp, fm)


def _content_split(s: CSum):
    """Normalize a multi-term sum to content * body with the first term's
    coefficient scaled to 1, so that c*(x+y) and (c*x+c*y) share one
    canonical factor shape."""
    c0 = s.terms[0].coef
    if c0 == 1:
        return Fraction(1), s
    body = CSum(tuple(CTerm(t.coef / c0, t.qexp, t.factors) for t in s.terms))
    return c0, body


def _as_factor_term(s: CSum) -> CTerm:
    single = s.single()
    if single is not None:
        return single
    content, body = _content_split(s)
    return CTerm(content, IntPoly(), ((AAdd(body), IntPoly.const(1)),))


def _is_const_term(t: CTerm) -> bool:
    return not t.factors and t.qexp.is_zero()


def _cs_mul(a: CSum, b: CSum) -> CSum:
    if a.is_zero() or b.is_zero():
        return CS_ZERO
    sa, sb = a.single(), b.single()
    # a bare rational constant distributes over a sum (so -(x+y) and
    # c*(x+y) share canonical forms with their written-out duals);
    # anything heavier stays factored -- no general distribution
    if sa is not None and sb is None and _is_const_term(sa):
        return _cs_add(*[_term_mul(sa, t) for t in b.terms])
    if sb is not None and sa is None and _is_const_term(sb):
        return _cs_add(*[_term_mul(sb, t) for t in a.terms])
    return _term_mul(_as_factor_term(a), _as_factor_term(b))


def _term_pow_const(t: CTerm, n: int) -> CSum:
    if n == 0:
        return CS_ONE
    if t.coef == 0:
        return CS_ZERO
    fm = {atom: exp * n for atom, exp in t.factors}
    return _make_term(t.coef ** n, t.qexp * n, fm)


def _cs_pow(s: CSum, e: IntPoly) -> CSum:
    if s.is_zero():
        if e.is_const() and e.const_value() > 0:
            return CS_ZERO
        from .errors import ZeroConstantTerm

        raise ZeroConstantTerm(
            "a canonically zero expression cannot be inverted or raised "
            "to a symbolic power"
        )
    if e.is_const():
        n = e.const_value()
        if n.denominator == 1:
            n = int(n)
            single = s.single()
            if single is not None:
                return _term_pow_const(single, n)
            if n == 0:
                return CS_ONE
            if n == 1:
                return s
            content, body = _content_split(s)
            return _cs_mul(_cs_pow(_cs_const(content), e),
                           _make_term(Fraction(1), IntPoly(),
                                      {AAdd(body): IntPoly.const(n)}))
    # symbolic exponent
    single = s.single()
    if single is None:
        content, body = _content_split(s)
        return _cs_mul(_cs_pow(_cs_const(content), e),
                       _make_term(Fraction(1), IntPoly(), {AAdd(body): e}))
    if single.coef == 0:
        return CS_ZERO
    fm = {atom: exp * e for atom, exp in single.factors}
    coef = Fraction(1)
    c = single.coef
    if c < 0:
        fm[AConstPow(Fraction(-1))] = _poly_add(fm.get(AConstPow(Fraction(-1))), e)
        c = -c
    if c != 1:
        fm[AConstPow(c)] = _poly_add(fm.get(AConstPow(c)), e)
    return _make_term(coef, single.qexp * e, fm)


def _cs_inv(s: CSum) -> CSum:
    return _cs_pow(s, IntPoly.const(-1))


def _cs_qpow(p: IntPoly) -> CSum:
    return CSum((CTerm(Fraction(1), p, ()),))


def _canon_poch(arg: CSum, base: IntPoly, length) -> CSum:
    """Canonical Pochhammer: zero argument or zero length collapse to 1;
    a constant offset in the length is split into explicit leading factors
    (x;b)_{P+c} = prod_{i<c}(1 - x q^{b i}) * (x q^{b c}; b)_P."""
    if arg.is_zero():
        return CS_ONE
    if isinstance(length, IntPoly):
        if length.is_zero():
            return CS_ONE
        c = length.constant_part()
        rest = length.without_constant()
        if c.denominator == 1 and int(c) > 0:
            c = int(c)
            out = CS_ONE
            for i in range(c):
                factor = _cs_add(CS_ONE,
                                 _cs_mul(_cs_const(-1),
                                         _cs_mul(arg, _cs_qpow(base * i))))
                out = _cs_mul(out, factor)
            if rest.is_zero():
                return out
            shifted = _cs_mul(arg, _cs_qpow(base * c))
            inner = _make_term(Fraction(1), IntPoly(),
                               {APoch(shifted, base, rest): IntPoly.const(1)})
            return _cs_mul(out, inner)
    return _make_term(Fraction(1), IntPoly(),
                      {APoch(arg, base, length): IntPoly.const(1)})


def _canon_omega(h: IntPoly, length) -> CSum:
    if h.is_const():
        hv = h.const_value()
        if hv == 1:
            return CS_ONE
        if hv == 2:
            neg_q = CSum((CTerm(Fraction(-1), IntPoly.const(1), ()),))
            return _canon_poch(neg_q, IntPoly.const(1), length)
    qh = _cs_qpow(h)
    q1 = _cs_qpow(IntPoly.const(1))
    num = _canon_poch(qh, h, length)
    den = _canon_poch(q1, IntPoly.const(1), length)
    return _cs_mul(num, _cs_inv(den))


def _canon_stride(h: IntPoly, length) -> CSum:
    if h.is_const():
        hv = h.const_value()
        if hv == 1:
            return CS_ONE
        if hv == 2:
            q1 = _cs_qpow(IntPoly.const(1))
            return _canon_poch(q1, IntPoly.const(2), length)
    q1 = _cs_qpow(IntPoly.const(1))
    qh = _cs_qpow(h)
    outer_len = length if not isinstance(length, IntPoly) else h * length
    num = _canon_poch(q1, IntPoly.const(1), outer_len)
    den = _canon_poch(qh, h, length)
    return _cs_mul(num, _cs_inv(den))


def _atom_free_names(atom) -> set:
    if isinstance(atom, AParam):
        return {atom.name}
    if isinstance(atom, AConstPow):
        return set()
    if isinstance(atom, APoch):
        names = _csum_free_names(atom.arg) | atom.base.symbols()
        if isinstance(atom.length, IntPoly):
            names |= atom.length.symbols()
        return names
    if isinstance(atom, (AOmega, AStride)):
        names = set(atom.h.symbols())
        if isinstance(atom.length, IntPoly):
            names |= atom.length.symbols()
        return names
    if isinstance(atom, ATheta):
        return set()
    if isinstance(atom, ASum):
        return _csum_free_names(atom.body) - {atom.index}
    if isinstance(atom, AMulti):
        return _csum_free_names(atom.body) - set(atom.indices)
    if isinstance(atom, AAdd):
        return _csum_free_names(atom.body)
    raise TypeError(f"unknown atom {atom!r}")


def _csum_free_names(s: CSum) -> set:
    names = set()
    for t in s.terms:
        names |= t.qexp.symbols()
        for atom, exp in t.factors:
            names |= _atom_free_names(atom) | exp.symbols()
    return names


def _canon_sum_body(index: str, start: int, stride: int, body: CSum) -> CSum:
    """Wrap a canonical summand into an ASum, first extracting every
    factor (and the index-free part of coefficient and q-power) that does
    not involve the summation index."""
    if index not in _csum_free_names(body):
        trivial = ASum(index, start, stride, CS_ONE)
        return _cs_mul(body, _make_term(Fraction(1), IntPoly(),
                                        {trivial: IntPoly.const(1)}))
    single = body.single()
    if single is None:
        atom = ASum(index, start, stride, body)
        return _make_term(Fraction(1), IntPoly(), {atom: IntPoly.const(1)})
    dep_q, free_q = single.qexp.split_on({index})
    dep_f, free_f = {}, {}
    for atom, exp in single.factors:
        if index in _atom_free_names(atom) or index in exp.symbols():
            dep_f[atom] = exp
        else:
            free_f[atom] = exp
    inner = _make_term(Fraction(1), dep_q, dep_f)
    atom = ASum(index, start, stride, inner)
    free_f[atom] = _poly_add(free_f.get(atom), IntPoly.const(1))
    return _make_term(single.coef, free_q, free_f)


def _canon_multi_body(indices: tuple, body: CSum) -> CSum:
    idxset = set(indices)
    if not (idxset & _csum_free_names(body)):
        trivial = AMulti(indices, CS_ONE)
        return _cs_mul(body, _make_term(Fraction(1), IntPoly(),
                                        {trivial: IntPoly.const(1)}))
    single = body.single()
    if single is None:
        atom = AMulti(indices, body)
        return _make_term(Fraction(1), IntPoly(), {atom: IntPoly.const(1)})
    dep_q, free_q = single.qexp.split_on(idxset)
    dep_f, free_f = {}, {}
    for atom, exp in single.factors:
        if (_atom_free_names(atom) & idxset) or (exp.symbols() & idxset):
            dep_f[atom] = exp
        else:
            free_f[atom] = exp
    inner = _make_term(Fraction(1), dep_q, dep_f)
    atom = AMulti(indices, inner)
    free_f[atom] = _poly_add(free_f.get(atom), IntPoly.const(1))
    return _make_term(single.coef, free_q, free_f)


def canon(e: Expr) -> CSum:
    """Canonical form; alpha-renames bound indices to i0, i1, ... by
    binder depth."""

    def walk(node, binders, depth) -> CSum:
        if isinstance(node, Const):
            return _cs_const(node.value)
        if isinstance(node, Param):
            if node.name in binders:
                raise UnknownName(
                    f"index {node.name!r} used as a value outside an exponent"
                )
            return _make_term(Fraction(1), IntPoly(),
                              {AParam(node.name): IntPoly.const(1)})
        if isinstance(node, QPow):
            return _cs_qpow(node.exponent.subst(binders_to_polys(binders)))
        if isinstance(node, Poch):
            arg = walk(node.arg, binders, depth)
            base = node.base.subst(binders_to_polys(binders))
            length = node.length
            if isinstance(length, IntPoly):
                length = length.subst(binders_to_polys(binders))
            return _canon_poch(arg, base, length)
        if isinstance(node, OmegaProd):
            h = node.h.subst(binders_to_polys(binders))
            length = node.length
            if isinstance(length, IntPoly):
                length = length.subst(binders_to_polys(binders))
            return _canon_omega(h, length)
        if isinstance(node, StrideProd):
            h = node.h.subst(binders_to_polys(binders))
            length = node.length
            if isinstance(length, IntPoly):
                length = length.subst(binders_to_polys(binders))
            return _canon_stride(h, length)
        if isinstance(node, Theta):
            return _make_term(Fraction(1), IntPoly(),
                              {ATheta(node.kind): IntPoly.const(1)})
        if isinstance(node, Neg):
            return _cs_mul(_cs_const(-1), walk(node.arg, binders, depth))
        if isinstance(node, Add):
            return _cs_add(walk(node.left, binders, depth),
                           walk(node.right, binders, depth))
        if isinstance(node, Sub):
            return _cs_add(walk(node.left, binders, depth),
                           _cs_mul(_cs_const(-1), walk(node.right, binders, depth)))
        if isinstance(node, Mul):
            return _cs_mul(walk(node.left, binders, depth),
                           walk(node.right, binders, depth))
        if isinstance(node, Div):
            return _cs_mul(walk(node.left, binders, depth),
                           _cs_inv(walk(node.right, binders, depth)))
        if isinstance(node, Pow):
            return _cs_pow(walk(node.base, binders, depth),
                           node.exponent.subst(binders_to_polys(binders)))
        if isinstance(node, Sum):
            cname = f"i{depth}"
            inner = walk(node.summand, {**binders, node.index: cname}, depth + 1)
            return _canon_sum_body(cname, node.start, node.stride, inner)
        if isinstance(node, MultiSum):
            if len(node.indices) == 1:
                return walk(Sum(node.indices[0], 0, 1, node.summand), binders, depth)
            cnames = tuple(f"i{depth + i}" for i in range(len(node.indices)))
            newb = {**binders, **dict(zip(node.indices, cnames))}
            inner = walk(node.summand, newb, depth + len(node.indices))
            return _canon_multi_body(cnames, inner)
        raise TypeError(f"unknown expression node {node!r}")

    def binders_to_polys(binders):
        return {old: IntPoly.symbol(new) for old, new in binders.items()}

    return walk(e, {}, 0)


# ---------------------------------------------------------------------------
# rebuild: canonical -> surface
# ---------------------------------------------------------------------------


def _rebuild_atom(atom) -> Expr:
    if isinstance(atom, AParam):
        return Param(atom.name)
    if isinstance(atom, AConstPow):
        return const(atom.base)
    if isinstance(atom, APoch):
        return Poch(rebuild(atom.arg), atom.base, atom.length)
    if isinstance(atom, AOmega):
        return OmegaProd(atom.h, atom.length)
    if isinstance(atom, AStride):
        return StrideProd(atom.h, atom.length)
    if isinstance(atom, ATheta):
        return Theta(atom.kind)
    if isinstance(atom, ASum):
        return Sum(atom.index, atom.start, atom.stride, rebuild(atom.body))
    if isinstance(atom, AMulti):
        return MultiSum(atom.indices, rebuild(atom.body))
    if isinstance(atom, AAdd):
        return rebuild(atom.body)
    raise TypeError(f"unknown atom {atom!r}")


def _rebuild_term(t: CTerm) -> Expr:
    num_parts = []
    den_parts = []
    coef = t.coef
    neg = coef < 0
    coef = abs(coef)
    if coef != 1:
        num_parts.append(const(coef))
    if not t.qexp.is_zero():
        num_parts.append(QPow(t.qexp))
    for atom, exp in t.factors:
        surface = _rebuild_atom(atom)
        if exp.is_const() and exp.const_value().denominator == 1:
            n = int(exp.const_value())
            if n == 1:
                num_parts.append(surface)
            elif n == -1:
                den_parts.append(surface)
            elif n > 1:
                num_parts.append(Pow(surface, IntPoly.const(n)))
            else:
                den_parts.append(Pow(surface, IntPoly.const(-n)))
        else:
            num_parts.append(Pow(surface, exp))
    if not num_parts:
        expr = ONE
    else:
        expr = num_parts[0]
        for p in num_parts[1:]:
            expr = Mul(expr, p)
    for p in den_parts:
        expr = Div(expr, p)
    if neg:
        expr = Neg(expr)
    return expr


def rebuild(s: CSum) -> Expr:
    if s.is_zero():
        return ZERO
    exprs = [_rebuild_term(t) for t in s.terms]
    out = exprs[0]
    for e in exprs[1:]:
        if isinstance(e, Neg):
            out = Sub(out, e.arg)
        else:
            out = Add(out, e)
    return out


def normalize(e: Expr) -> Expr:
    """Canonical surface form: normalize(normalize(e)) == normalize(e),
    and two encodings of one display normalize identically whenever they
    differ only by product order, constant folding, length-offset
    bookkeeping, or index-free factors inside sums."""
    return rebuild(canon(e))


def canon_equal(a: Expr, b: Expr) -> bool:
    return canon(a) == canon(b)
