"""Parser, renderer, normalization, and substitution."""

import dataclasses
import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsv.dsl import parse_catalog, parse_expr, render_expr
from qsv.errors import (
    DuplicateId,
    IndexShadowing,
    ParseError,
    UndeclaredParam,
    UnknownName,
    ZeroConstantTerm,
)
from qsv.exact import ParamValue
from qsv.expr import (
    _ATOMS,
    FIELDS,
    INF,
    AAdd,
    Add,
    APoch,
    ASum,
    Const,
    CSum,
    CTerm,
    Div,
    Expr,
    Mul,
    MultiSum,
    Neg,
    Param,
    Poch,
    Pow,
    QPow,
    Sum,
    Theta,
    _atom_free_names,
    _atom_key,
    canon,
    child_fields,
    free_names,
    normalize,
    slot_names,
    substitute,
)
from qsv.intpoly import IntPoly


# -- parsing goldens ---------------------------------------------------------------


def test_parse_simple_poch():
    e = parse_expr("poch(a; q)_inf")
    assert e == Poch(Param("a"), IntPoly.const(1), INF)


def test_parse_summand_with_builtins():
    text = ("sum(j=0..inf; b^j * q^(t*tri(j)) "
            "/ (poch(q^t; q^t)_j * poch(-a*q^h; q^h)_(t*j)))")
    e = parse_expr(text)
    assert isinstance(e, Sum)
    assert e.index == "j" and e.start == 0 and e.stride == 1
    # t*tri(j) expands to (t j + t j^2)/2
    qpow_node = e.summand.left.right
    assert isinstance(qpow_node, QPow)
    expected = IntPoly.symbol("t") * IntPoly.tri(IntPoly.symbol("j"))
    assert qpow_node.exponent == expected


def test_parse_error_unclosed():
    with pytest.raises(ParseError) as err:
        parse_expr("poch(q; q)_(")
    assert err.value.line == 1
    assert err.value.expected


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("1 +\n  poch(q q)_2")
    assert err.value.line == 2


@pytest.mark.parametrize("parse, text, line, col, message", [
    (parse_expr, "1 + # note\n\t  )", 2, 4, "expected an expression, found ')'"),
    (parse_expr, "a +\r\n\t)", 2, 2, "expected an expression, found ')'"),
    (parse_catalog, 'identity x {\n  anchor "a b" 7;', 2, 16, "expected ';', found '7'"),
    (parse_catalog, "identity gb-1.4.2-h 5", 1, 21, "expected '{', found '5'"),
    (parse_catalog, 'identity x {\n  anchor "abc\n', 2, 10, "unterminated string"),
    (parse_expr, "a +\t½", 1, 5, "unexpected character '½'"),
    (parse_expr, "poch(q; q)_(  # open\n", 2, 1, "expected an exponent term, found ''"),
])
def test_parse_error_line_and_column(parse, text, line, col, message):
    # comments, tabs and \r count as columns; only \n starts a new line
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"{message} at line {line}, col {col}")


def test_parse_names_numbers_and_non_ascii_digits():
    assert parse_expr("x²") == Param("x²")  # a name goes on with any \w
    assert parse_expr("٣") == Const(F(3))  # a decimal digit int() reads
    for text, ch in (("q^²", "²"), ("2²", "²"), ("½", "½")):
        with pytest.raises(ParseError, match=f"^unexpected character {ch!r}"):
            parse_expr(text)


_BLOCK = 'identity x {{\n  params a;\n  lhs = {lhs};\n  {extra}\n}}'


@pytest.mark.parametrize("text, line, col, message", [
    (_BLOCK.format(lhs="sum(k=0..inf step 0; a^k)", extra="rhs = a;"), 3, 27,
     "step must be >= 1"),
    (_BLOCK.format(lhs="a", extra="rhs = a; backend fast;"), 4, 12, "unknown clause 'backend'"),
    (_BLOCK.format(lhs="a", extra="rhs = a; lineage parent=y kind=odd;"), 4, 34,
     "unknown lineage kind 'odd'"),
    (_BLOCK.format(lhs="a", extra=""), 5, 1, "identity 'x' must define both lhs and rhs"),
    # checks on a whole record point at its id
    (_BLOCK.format(lhs="a", extra="rhs = a; exps a;"), 1, 10,
     "identity 'x': params and exps overlap"),
    (_BLOCK.format(lhs="b", extra="rhs = a;"), 1, 10,
     "identity 'x': undeclared parameter 'b' in lhs"),
    ("identity x { params a; lhs = a; rhs = a; }\n" + _BLOCK.format(lhs="a", extra="rhs = a;"),
     2, 10, "duplicate identity id 'x'"),
])
def test_record_errors_point_at_the_token_at_fault(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_catalog(text)
    assert str(err.value) == f"{message} at line {line}, col {col}"


def test_minus_is_add_of_neg():
    a, b = Param("a"), Param("b")
    assert parse_expr("a - b") == Add(a, Neg(b))
    assert parse_expr("a - 2") == Add(a, Neg(Const(F(2))))
    assert render_expr(parse_expr("a + -b")) == "a - b"
    assert render_expr(parse_expr("a - -b")) == "a - (-b)"
    assert render_expr(parse_expr("a + -2")) == "a + (-2)"


def test_parse_sum_with_step():
    e = parse_expr("sum(k=1..inf step 2; z^k)")
    assert e == Sum("k", 1, 2, Pow(Param("z"), IntPoly.symbol("k")))


def test_parse_msum():
    e = parse_expr("msum(k1, k2; z1^k1 * z2^k2)")
    assert isinstance(e, MultiSum)
    assert e.indices == ("k1", "k2")


def test_parse_unary_minus_folds_into_literal():
    assert parse_expr("-3") == Const(F(-3))
    assert parse_expr("(-1)^k") == Pow(Const(F(-1)), IntPoly.symbol("k"))
    assert parse_expr("-a") == Neg(Param("a"))


def test_parse_fraction_coefficient_in_poly():
    e = parse_expr("q^(1/2*k^2 + 1/2*k)")
    assert e == QPow(IntPoly.tri(IntPoly.symbol("k")))


def test_parse_theta_builtins():
    from qsv.expr import Theta

    assert parse_expr("psi()") == Theta("psi")
    assert parse_expr("phi_minus()") == Theta("phi_minus")


# -- round trips ----------------------------------------------------------------------

names = st.sampled_from(["a", "b", "c", "w", "z"])
exp_syms = st.sampled_from(["h", "t"])


@st.composite
def intpoly_strategy(draw, idx, nonneg=False):
    terms = draw(st.integers(1, 2))
    poly = IntPoly()
    lo = 0 if nonneg else -3
    for _ in range(terms):
        coeff = draw(st.integers(lo, 3))
        sym = draw(st.sampled_from([idx, "h", "t"])) if idx else draw(exp_syms)
        power = draw(st.integers(1, 2))
        poly = poly + IntPoly({((sym, power),): F(coeff)})
    const = draw(st.integers(0, 3))
    return poly + IntPoly.const(const)


@st.composite
def expr_strategy(draw, depth=3, idx=None):
    if depth <= 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Const(F(draw(st.integers(1, 7))))
        if choice == 1:
            return Param(draw(names))
        return QPow(draw(intpoly_strategy(idx)))
    choice = draw(st.integers(0, 7))
    if choice == 0:
        return Add(draw(expr_strategy(depth=depth - 1, idx=idx)),
                   draw(expr_strategy(depth=depth - 1, idx=idx)))
    if choice == 1:
        return Mul(draw(expr_strategy(depth=depth - 1, idx=idx)),
                   draw(expr_strategy(depth=depth - 1, idx=idx)))
    if choice == 2:
        return Div(draw(expr_strategy(depth=depth - 1, idx=idx)),
                   draw(expr_strategy(depth=depth - 1, idx=idx)))
    if choice == 3:
        length = draw(st.one_of(st.just(INF), intpoly_strategy(idx, nonneg=True)))
        return Poch(draw(expr_strategy(depth=depth - 1, idx=idx)),
                    IntPoly.symbol(draw(exp_syms)), length)
    if choice == 4:
        return Pow(draw(expr_strategy(depth=0, idx=idx)), draw(intpoly_strategy(idx)))
    if choice == 5 and idx is None:
        return Sum("k", draw(st.integers(0, 1)), draw(st.integers(1, 2)),
                   draw(expr_strategy(depth=depth - 1, idx="k")))
    if choice == 6 and idx is None:
        return MultiSum(("j", "k"), Mul(draw(expr_strategy(depth=depth - 1, idx="j")),
                                        draw(expr_strategy(depth=depth - 1, idx="k"))))
    inner = draw(expr_strategy(depth=depth - 1, idx=idx))
    if isinstance(inner, Const):
        # the concrete syntax folds a minus sign into a literal
        return Const(-inner.value)
    return Neg(inner)


@given(expr_strategy())
@settings(max_examples=120, deadline=None)
def test_parse_render_round_trip(e):
    assert parse_expr(render_expr(e)) == e


@given(expr_strategy())
@settings(max_examples=80, deadline=None)
def test_normalize_idempotent(e):
    try:
        n = normalize(e)
    except ZeroConstantTerm:
        return  # randomized tree divided by a structurally zero expression
    assert normalize(n) == n


@given(expr_strategy())
@settings(max_examples=60, deadline=None)
def test_normalized_form_reparses_to_same_canon(e):
    try:
        n = normalize(e)
    except ZeroConstantTerm:
        return
    assert canon(parse_expr(render_expr(n))) == canon(e)


@given(expr_strategy())
@settings(max_examples=60, deadline=None)
def test_substitute_commutes_with_normalize(e):
    sub = {}
    free = free_names(e)
    if "a" in free:
        sub["a"] = ParamValue(F(-1, 2), 1)
    if "h" in free:
        sub["h"] = 2
    if not sub:
        return
    try:
        direct = normalize(substitute(e, sub, check_names=False))
        via_normal = normalize(substitute(normalize(e), sub, check_names=False))
    except ZeroConstantTerm:
        return
    assert direct == via_normal


# -- normalize goldens -------------------------------------------------------------------


def test_normalize_mul_one():
    assert normalize(parse_expr("a * 1")) == Param("a")


def test_normalize_poch_length_zero():
    assert canon(parse_expr("poch(x;q)_0 * f")) == canon(parse_expr("f"))


def test_normalize_zero_argument_poch():
    assert canon(parse_expr("poch(0; q)_inf")) == canon(parse_expr("1"))


def test_normalize_power_distribution():
    assert canon(parse_expr("(-b*q)^k * q^(2*binom2(k))")) == canon(
        parse_expr("(-1)^k * b^k * q^(k^2)"))


def test_normalize_front_split():
    assert canon(parse_expr("poch(c*q; q^2)_(t*j+1)")) == canon(
        parse_expr("(1 - c*q) * poch(c*q^3; q^2)_(t*j)"))


def test_normalize_constant_length_expansion():
    assert canon(parse_expr("poch(a; q)_3")) == canon(
        parse_expr("(1-a)*(1-a*q)*(1-a*q^2)"))


def test_normalize_pairing():
    assert canon(parse_expr("poch(q;q)_k * poch(-q;q)_k")) == canon(
        parse_expr("poch(q^2;q^2)_k"))


def test_normalize_binomial_absorption():
    assert canon(parse_expr("(1 + b*q) * poch(-b*q^3; q^2)_inf")) == canon(
        parse_expr("poch(-b*q; q^2)_inf"))
    assert canon(parse_expr("poch(q^t; q^t)_inf / (1 - q^t)")) == canon(
        parse_expr("poch(q^(2*t); q^t)_inf"))


def test_normalize_omega_stride_families():
    assert canon(parse_expr("qomega(1)_j")) == canon(parse_expr("1"))
    assert canon(parse_expr("qomega(2)_j")) == canon(parse_expr("poch(-q;q)_j"))
    assert canon(parse_expr("qstride(2)_k")) == canon(parse_expr("poch(q;q^2)_k"))
    assert canon(parse_expr("qomega(h)_j")) == canon(
        parse_expr("poch(q^h;q^h)_j / poch(q;q)_j"))
    assert canon(parse_expr("qstride(h)_inf")) == canon(
        parse_expr("poch(q;q)_inf / poch(q^h;q^h)_inf"))


def test_normalize_sum_extraction_and_alpha():
    n1 = normalize(parse_expr("sum(k=0..inf; (1 + b*q) * a^k * q^k)"))
    n2 = normalize(parse_expr("(1 + b*q) * sum(j=0..inf; a^j * q^j)"))
    assert n1 == n2


def test_normalize_minus_one_parity():
    assert canon(parse_expr("(-1)^k * (-1)^k")) == canon(parse_expr("1"))
    assert canon(parse_expr("(-1)^(3*k)")) == canon(parse_expr("(-1)^k"))
    assert canon(parse_expr("(-1)^(j^2 + j)")) == canon(parse_expr("1"))


def test_normalize_multisum_single_index_is_sum():
    assert canon(parse_expr("msum(k; a^k)")) == canon(parse_expr("sum(k=0..inf; a^k)"))


# -- substitution -------------------------------------------------------------------------


def test_substitute_param_by_constant():
    e = substitute(Param("a"), {"a": ParamValue(F(-1), 0)})
    assert e == Const(F(-1))


def test_substitute_gb_heine_form(catalog):
    sym = catalog["gb-sym-heine"]
    target = catalog["gb-heine"]
    sub = {"w": parse_expr("b"), "b": parse_expr("c/b")}
    got_lhs = substitute(sym.lhs, sub)
    # child lhs differs by the moved product prefix; removing the prefix
    # from the substituted parent must match the child sum exactly
    prefix = parse_expr("poch(c; q^t)_inf / poch(b; q^t)_inf")
    assert canon(got_lhs) == canon(Mul(prefix, target.lhs))


def test_substitute_unknown_name():
    with pytest.raises(UnknownName):
        substitute(parse_expr("a + b"), {"nope": 1})


def test_substitute_index_shadowing():
    with pytest.raises(IndexShadowing):
        substitute(parse_expr("sum(k=0..inf; a^k)"), {"a": parse_expr("k")})
    with pytest.raises(IndexShadowing):
        substitute(parse_expr("sum(k=0..inf; a^k)"), {"k": 2}, check_names=False)


def test_substitute_exponent_symbol():
    e = substitute(parse_expr("poch(a; q^h)_(h*k+1)"), {"h": 2})
    assert e == parse_expr("poch(a; q^2)_(2*k+1)")


# one expression per node kind: (text, free names, text after h = 2,
# sub-expression fields of the root)
NODE_KIND_CASES = [
    ("a - b^h", {"a", "b", "h"}, "a - b^2", ("left", "right")),
    ("psi()", set(), "psi()", ()),
    ("poch(a; q^h)_inf", {"a", "h"}, "poch(a; q^2)_inf", ("arg",)),
    ("qomega(h)_(h*n)", {"h", "n"}, "qomega(2)_(2*n)", ()),
    ("qstride(h)_inf", {"h"}, "qstride(2)_inf", ()),
    ("sum(k=1..inf step 2; z^k * q^(h*k))", {"z", "h"},
     "sum(k=1..inf step 2; z^k * q^(2*k))", ("summand",)),
    ("msum(j, k; a^j * q^(h*k))", {"a", "h"}, "msum(j, k; a^j * q^(2*k))",
     ("summand",)),
]


@pytest.mark.parametrize("text,names,substituted,fields", NODE_KIND_CASES,
                         ids=[case[0] for case in NODE_KIND_CASES])
def test_every_node_kind_walks(text, names, substituted, fields):
    e = parse_expr(text)
    assert free_names(e) == names
    assert set.union(*slot_names(e)) == names
    assert substitute(e, {"h": 2}, check_names=False) == parse_expr(substituted)
    assert tuple(name for name, _ in child_fields(e)) == fields


def test_slot_names_by_position():
    # a parameter leaf, an exponent symbol, or both; bound indices are neither
    assert slot_names(parse_expr("a*q^a")) == ({"a"}, {"a"})
    assert slot_names(parse_expr("sum(k=0..inf; z^k * poch(a; q^h)_(n+k))")) == (
        {"z", "a"}, {"h", "n"})


def test_substitute_each_msum_index_is_shadowing():
    e = parse_expr("msum(j, k; a^j * q^(h*k))")
    for ix in ("j", "k"):
        with pytest.raises(IndexShadowing, match=repr(ix)):
            substitute(e, {ix: 1}, check_names=False)
    # indices are checked in declared order
    with pytest.raises(IndexShadowing, match="'j'"):
        substitute(e, {"k": 1, "j": 1}, check_names=False)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_field_table_covers_every_node_class():
    import qsv.cli  # noqa: F401  (loads every module that might add a node)

    for cls in _subclasses(Expr):
        assert tuple(name for name, _ in FIELDS[cls]) == tuple(
            f.name for f in dataclasses.fields(cls))
    assert FIELDS[Poch] == (("arg", "expr"), ("base", "poly"), ("length", "poly"))
    assert FIELDS[Sum] == (("index", "data"), ("start", "data"),
                           ("stride", "data"), ("summand", "expr"))


def test_field_table_reads_every_canonical_atom(catalog_records):
    import qsv.expr

    # every canonical atom class the module defines has a rank and a field
    # table, and the catalog's canonical forms use each of them
    canonical = {cls for cls in vars(qsv.expr).values()
                 if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                 and cls.__module__ == qsv.expr.__name__ and not issubclass(cls, Expr)}
    assert (canonical - {CTerm, CSum}) | {Param, Const, Theta} == set(_ATOMS)
    assert list(_ATOMS) == [Param, Const, APoch, Theta, ASum, AAdd]  # the rank order
    used = set()

    def visit(s):
        for t in s.terms:
            for atom, _ in t.factors:
                used.add(type(atom))
                for name, kind in _ATOMS[type(atom)][1]:
                    if kind == "csum":
                        visit(getattr(atom, name))

    for record in catalog_records:
        for side in (record.lhs, record.rhs):
            visit(canon(side))
    assert used == set(_ATOMS)
    # the key is the rank, then one key per field; free names skip bound indices
    k = IntPoly.symbol("k")
    body = canon(parse_expr("a^k * q^(n*k)"))
    atoms = [Param("a"), Const(F(-1)), APoch(body, IntPoly.const(1), INF), Theta("psi"),
             ASum(("k",), 0, 1, body), AAdd(canon(parse_expr("1 + a")))]
    for rank, atom in enumerate(atoms):
        key = _atom_key(atom)
        assert key[0] == rank and len(key) == 1 + len(_ATOMS[type(atom)][1])
    assert [_atom_free_names(a) for a in atoms] == [
        {"a"}, set(), {"a", "k", "n"}, set(), {"a", "n"}, {"a"}]
    assert _atom_key(APoch(body, k, INF)) > _atom_key(APoch(body, k, k))


def test_unknown_atom_is_a_type_error():
    @dataclasses.dataclass(frozen=True)
    class Stray:
        body: CSum

    for stray in (Stray(canon(Param("a"))), Add(Param("a"), Param("b"))):
        for read in (_atom_key, _atom_free_names):
            with pytest.raises(TypeError, match="unknown atom"):
                read(stray)


def test_unknown_node_is_a_type_error():
    stray = IntPoly.const(1)
    for call in (lambda: free_names(Add(Param("a"), stray)),
                 lambda: substitute(Add(Param("a"), stray), {},
                                    check_names=False),
                 lambda: child_fields(stray)):
        with pytest.raises(TypeError, match="unknown expression node"):
            call()


# -- catalog-level parsing ------------------------------------------------------------------


def test_parse_catalog_single_block():
    text = """
    identity demo {
      anchor "demo";
      params a;
      lhs = poch(a; q)_inf;
      rhs = poch(a; q)_inf;
    }
    """
    records = parse_catalog(text)
    assert len(records) == 1
    assert records[0].id == "demo"


def test_parse_catalog_duplicate_id():
    block = """
    identity dup { params a; lhs = a; rhs = a; }
    """
    with pytest.raises(DuplicateId):
        parse_catalog(block + block)


def test_parse_catalog_undeclared_param():
    text = """
    identity bad { params a; lhs = a * x; rhs = a; }
    """
    with pytest.raises(UndeclaredParam):
        parse_catalog(text)


def test_shipped_catalog_parses(catalog_records):
    assert len(catalog_records) >= 44


def test_records_render_and_reparse(catalog_records):
    for record in catalog_records:
        for side in (record.lhs, record.rhs):
            assert parse_expr(render_expr(side)) == side


#: sha256 of render_expr(normalize(side)) + "\n" over both sides of every
#: shipped record, in catalog order.  It moves only when the catalog or the
#: canonical form (its atom order, its rewrite rules) changes.
NORMALIZE_SHA256 = "df3fd0429e6f505661ba27971b9072f82d91c24e2e4f28ba7f0947b4cfede86d"


def test_catalog_normalize_output_is_pinned(catalog_records):
    text = "".join(render_expr(normalize(side)) + "\n"
                   for record in catalog_records for side in (record.lhs, record.rhs))
    assert hashlib.sha256(text.encode()).hexdigest() == NORMALIZE_SHA256


def test_catalog_normalize_idempotent(catalog_records):
    for record in catalog_records:
        for side in (record.lhs, record.rhs):
            n = normalize(side)
            assert normalize(n) == n
