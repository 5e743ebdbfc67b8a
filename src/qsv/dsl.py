"""Text DSL for the identity catalog: tokenizer, recursive-descent parser,
and renderer.

A catalog file is a sequence of identity blocks:

    identity gb-sym-heine {
      anchor "bibasic Heine transformation";
      params a, b, w, z;
      exps h, t;
      constraints abs(z) < 1, abs(w) < 1, abs(q^(h*t)) < 1;
      lineage parent=other-id kind=direct sub(h=2, t=1) factor(1/(1+b*q)) swap;
      lhs = ...;
      rhs = ...;
    }

Expressions use explicit Pochhammer syntax poch(x; q^h)_len with len one
of `inf`, a symbol, an integer, or a parenthesized exponent polynomial;
sums are always to infinity (`sum(k=0..inf; ...)`, optional `step`);
`msum(k1, k2; ...)` is the multi-index form.  `qomega(h)_len` and
`qstride(h)_len` denote the root-of-unity product (qw, ..., qw^{h-1}; q)_len
and the stride family (q, ..., q^{h-1}; q^h)_len.  '#' starts a comment.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DuplicateId, ParseError, UndeclaredParam
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
)
from .intpoly import IntPoly

_BLANK = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
# The group names are the token kinds.  NUMBER is the decimal digits int()
# reads.  A NAME goes on with \w (str.isalnum or '_') and starts with a
# str.isalpha letter, which _scan checks: [^\W\d_] also takes '½' and '²'.
_TOKEN = re.compile(r'(?P<NUMBER>\d+)|(?P<NAME>[^\W\d_]\w*)|"(?P<STRING>[^"\n]*)"'
                    r"|(?P<PUNCT>\.\.|[{}();,=+\-*/^_<])")
_ID = re.compile(r"[\w.-]+")

# binary operator tables for Parser._fold, one per precedence level
_SUM_OPS = {"+": Add, "-": lambda left, right: Add(left, Neg(right))}
_PRODUCT_OPS = {"*": Mul, "/": Div}
_POLY_SUM_OPS = {"+": operator.add, "-": operator.sub}
_POLY_PRODUCT_OPS = {"*": operator.mul}


@dataclass
class Token:
    kind: str  # NAME NUMBER STRING PUNCT ID EOF
    value: str
    line: int
    col: int


class Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.line_start = 0  # offset of the current line's first character
        self._peeked = None

    def _match(self, pattern):
        """Skip blanks and comments, the only text a newline can be in, then
        match pattern: (match or None, line, col)."""
        blank = _BLANK.match(self.text, self.pos)
        self.pos = blank.end()
        if "\n" in blank.group():
            self.line += blank.group().count("\n")
            self.line_start = self.text.rindex("\n", 0, self.pos) + 1
        return pattern.match(self.text, self.pos), self.line, self.pos - self.line_start + 1

    def peek(self) -> Token:
        if self._peeked is None:
            self._peeked = self._scan()
        return self._peeked

    def next(self) -> Token:
        tok = self.peek()
        self._peeked = None
        return tok

    def read_id(self) -> Token:
        """Scan a raw identity id; ids may contain dots and dashes, which
        are operators in expression position."""
        if self._peeked is not None:
            raise RuntimeError("read_id after peek")
        m, line, col = self._match(_ID)
        if m is None:
            raise ParseError("expected an identity id", line, col, ["id"])
        self.pos = m.end()
        return Token("ID", m.group(), line, col)

    def _scan(self) -> Token:
        m, line, col = self._match(_TOKEN)
        if self.pos == len(self.text):
            return Token("EOF", "", line, col)
        ch = self.text[self.pos]
        if m is None or (m.lastgroup == "NAME" and not ch.isalpha()):
            if ch == '"':
                raise ParseError("unterminated string", line, col, ['"'])
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.pos = m.end()
        return Token(m.lastgroup, m.group(m.lastgroup), line, col)


@dataclass(frozen=True)
class Constraint:
    """Magnitude constraint |expr| < bound on admissible substitutions."""

    expr: Expr
    bound: Fraction


@dataclass(frozen=True)
class Lineage:
    parent: str
    kind: str  # direct | limit | rebase
    sub: tuple  # ((name, int | Expr), ...)
    factor: Expr | None = None
    swap: bool = False


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    anchor: str
    params: tuple
    exps: tuple
    lhs: Expr
    rhs: Expr
    constraints: tuple = ()
    lineage: Lineage | None = None


class Parser:
    def __init__(self, text: str):
        self.lex = Lexer(text)

    # -- token helpers -------------------------------------------------------

    def _err(self, message, tok, expected=None):
        raise ParseError(message, tok.line, tok.col, expected)

    def expect_punct(self, value):
        tok = self.lex.next()
        if tok.kind != "PUNCT" or tok.value != value:
            self._err(f"expected {value!r}, found {tok.value!r}", tok, [value])
        return tok

    def expect_name(self, value=None):
        tok = self.lex.next()
        if tok.kind != "NAME" or (value is not None and tok.value != value):
            want = value or "name"
            self._err(f"expected {want}, found {tok.value!r}", tok, [want])
        return tok

    def expect_number(self) -> int:
        tok = self.lex.next()
        if tok.kind != "NUMBER":
            self._err(f"expected a number, found {tok.value!r}", tok, ["number"])
        return int(tok.value)

    def at_punct(self, value) -> bool:
        tok = self.lex.peek()
        return tok.kind == "PUNCT" and tok.value == value

    def at_name(self, value=None) -> bool:
        tok = self.lex.peek()
        return tok.kind == "NAME" and (value is None or tok.value == value)

    def accept_punct(self, value) -> bool:
        if self.at_punct(value):
            self.lex.next()
            return True
        return False

    # -- expressions ----------------------------------------------------------

    def _fold(self, operand, ops):
        """operand (op operand)*, folded to the left: `ops` maps each
        operator to the function of (left, right) that joins them."""
        left = operand()
        while True:
            tok = self.lex.peek()
            if tok.kind != "PUNCT" or tok.value not in ops:
                return left
            self.lex.next()
            left = ops[tok.value](left, operand())

    def parse_expr(self) -> Expr:
        return self._fold(self.parse_mulchain, _SUM_OPS)

    def parse_mulchain(self) -> Expr:
        return self._fold(self.parse_unary, _PRODUCT_OPS)

    def parse_unary(self) -> Expr:
        if self.accept_punct("-"):
            inner = self.parse_postfix()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        atom = self.parse_atom()
        if self.accept_punct("^"):
            return Pow(atom, self.parse_ipart())
        return atom

    def parse_atom(self) -> Expr:
        tok = self.lex.peek()
        if tok.kind == "NUMBER":
            self.lex.next()
            return Const(Fraction(int(tok.value)))
        if tok.kind == "PUNCT" and tok.value == "(":
            self.lex.next()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if tok.kind != "NAME":
            self._err(f"expected an expression, found {tok.value!r}", tok,
                      ["number", "name", "("])
        name = tok.value
        if name == "q":
            self.lex.next()
            if self.accept_punct("^"):
                return QPow(self.parse_ipart())
            return QPow(IntPoly.const(1))
        if name == "poch":
            return self.parse_poch()
        if name in ("qomega", "qstride"):
            self.lex.next()
            self.expect_punct("(")
            h = self.parse_intpoly()
            self.expect_punct(")")
            self.expect_punct("_")
            length = self.parse_length()
            return (OmegaProd if name == "qomega" else StrideProd)(h, length)
        if name == "sum":
            return self.parse_sum()
        if name == "msum":
            return self.parse_msum()
        if name in ("psi", "phi_minus"):
            self.lex.next()
            self.expect_punct("(")
            self.expect_punct(")")
            return Theta(name)
        self.lex.next()
        return Param(name)

    def parse_poch(self) -> Expr:
        self.expect_name("poch")
        self.expect_punct("(")
        arg = self.parse_expr()
        self.expect_punct(";")
        self.expect_name("q")
        base = IntPoly.const(1)
        if self.accept_punct("^"):
            base = self.parse_ipart()
        self.expect_punct(")")
        self.expect_punct("_")
        length = self.parse_length()
        return Poch(arg, base, length)

    def parse_length(self):
        if self.at_name("inf"):
            self.lex.next()
            return INF
        return self.parse_ipart()

    def parse_ipart(self) -> IntPoly:
        """An exponent position: a bare symbol, a bare integer, or a
        parenthesized polynomial."""
        tok = self.lex.peek()
        if tok.kind == "NAME":
            self.lex.next()
            return IntPoly.symbol(tok.value)
        if tok.kind == "NUMBER":
            self.lex.next()
            return IntPoly.const(int(tok.value))
        if tok.kind == "PUNCT" and tok.value == "(":
            self.lex.next()
            poly = self.parse_intpoly()
            self.expect_punct(")")
            return poly
        self._err(f"expected an exponent, found {tok.value!r}", tok,
                  ["name", "number", "("])

    # exponent polynomials ----------------------------------------------------

    def parse_intpoly(self) -> IntPoly:
        return self._fold(self.parse_ipterm, _POLY_SUM_OPS)

    def parse_ipterm(self) -> IntPoly:
        neg = self.accept_punct("-")
        poly = self._fold(self.parse_ipfactor, _POLY_PRODUCT_OPS)
        return -poly if neg else poly

    def parse_ipfactor(self) -> IntPoly:
        tok = self.lex.peek()
        if tok.kind == "NUMBER":
            self.lex.next()
            value = Fraction(int(tok.value))
            if self.accept_punct("/"):
                den = self.expect_number()
                if den == 0:
                    self._err("zero denominator", tok)
                value = value / den
            return IntPoly.const(value)
        if tok.kind == "NAME" and tok.value in ("tri", "binom2"):
            self.lex.next()
            self.expect_punct("(")
            inner = self.parse_intpoly()
            self.expect_punct(")")
            return IntPoly.tri(inner) if tok.value == "tri" else IntPoly.binom2(inner)
        if tok.kind == "NAME":
            self.lex.next()
            poly = IntPoly.symbol(tok.value)
        elif tok.kind == "PUNCT" and tok.value == "(":
            self.lex.next()
            poly = self.parse_intpoly()
            self.expect_punct(")")
        else:
            self._err(f"expected an exponent term, found {tok.value!r}", tok,
                      ["number", "name", "(", "tri", "binom2"])
        return poly.pow(self.expect_number()) if self.accept_punct("^") else poly

    # sums ---------------------------------------------------------------------

    def parse_sum(self) -> Expr:
        self.expect_name("sum")
        self.expect_punct("(")
        index = self.expect_name().value
        self.expect_punct("=")
        start = self.expect_number()
        self.expect_punct("..")
        self.expect_name("inf")
        stride = 1
        if self.at_name("step"):
            self.lex.next()
            tok = self.lex.peek()
            stride = self.expect_number()
            if stride < 1:
                self._err("step must be >= 1", tok)
        self.expect_punct(";")
        summand = self.parse_expr()
        self.expect_punct(")")
        return Sum(index, start, stride, summand)

    def parse_msum(self) -> Expr:
        self.expect_name("msum")
        self.expect_punct("(")
        indices = self._name_list()
        self.expect_punct(";")
        summand = self.parse_expr()
        self.expect_punct(")")
        return MultiSum(indices, summand)

    # catalog blocks -------------------------------------------------------------

    def parse_catalog(self) -> list:
        records = {}
        while True:
            tok = self.lex.peek()
            if tok.kind == "EOF":
                break
            if not (tok.kind == "NAME" and tok.value == "identity"):
                self._err(f"expected 'identity', found {tok.value!r}", tok,
                          ["identity"])
            record = self.parse_identity(records)
            records[record.id] = record
        return list(records.values())

    def parse_identity(self, seen) -> IdentityRecord:
        """One identity block; `seen` holds the ids of the blocks before it."""
        self.expect_name("identity")
        id_tok = self.lex.read_id()
        rid = id_tok.value
        self.expect_punct("{")
        fields = {"anchor": "", "params": (), "exps": (), "constraints": (),
                  "lineage": None, "lhs": None, "rhs": None}
        while not self.at_punct("}"):
            tok = self.lex.next()
            if tok.kind != "NAME":
                self._err(f"expected a clause, found {tok.value!r}", tok, list(self._CLAUSES))
            if tok.value not in self._CLAUSES:
                self._err(f"unknown clause {tok.value!r}", tok)
            fields[tok.value] = self._CLAUSES[tok.value](self)
            self.expect_punct(";")
        end = self.expect_punct("}")
        if fields["lhs"] is None or fields["rhs"] is None:
            self._err(f"identity {rid!r} must define both lhs and rhs", end)
        record = IdentityRecord(rid, **fields)
        _validate_record(record, id_tok, seen)
        return record

    def _comma_list(self, parse_item) -> tuple:
        """One or more items, each read by parse_item, separated by commas."""
        items = [parse_item()]
        while self.accept_punct(","):
            items.append(parse_item())
        return tuple(items)

    def _name_list(self) -> tuple:
        return self._comma_list(lambda: self.expect_name().value)

    def _parse_constraint(self) -> Constraint:
        self.expect_name("abs")
        self.expect_punct("(")
        inner = self.parse_expr()
        self.expect_punct(")")
        self.expect_punct("<")
        bound = Fraction(self.expect_number())
        return Constraint(inner, bound)

    def _parse_lineage(self) -> Lineage:
        self.expect_name("parent")
        self.expect_punct("=")
        parent = self.lex.read_id().value
        self.expect_name("kind")
        self.expect_punct("=")
        tok = self.expect_name()
        kind = tok.value
        if kind not in ("direct", "limit", "rebase"):
            self._err(f"unknown lineage kind {kind!r}", tok)
        sub = []
        factor = None
        swap = False
        while self.at_name("sub") or self.at_name("factor") or self.at_name("swap"):
            which = self.lex.next().value
            if which == "sub":
                self.expect_punct("(")
                sub.extend(self._comma_list(self._parse_sub_item))
                self.expect_punct(")")
            elif which == "factor":
                self.expect_punct("(")
                factor = self.parse_expr()
                self.expect_punct(")")
            else:
                swap = True
        return Lineage(parent, kind, tuple(sub), factor, swap)

    def _parse_sub_item(self):
        name = self.expect_name().value
        self.expect_punct("=")
        return (name, sub_value(self.parse_expr()))

    # the reader of each clause, in the order errors list them
    def _read_anchor(self) -> str:
        tok = self.lex.next()
        if tok.kind != "STRING":
            self._err("anchor needs a quoted string", tok, ['"'])
        return tok.value

    def _read_side(self) -> Expr:
        self.expect_punct("=")
        return self.parse_expr()

    _CLAUSES = {"anchor": _read_anchor, "params": _name_list, "exps": _name_list,
                "constraints": lambda self: self._comma_list(self._parse_constraint),
                "lineage": _parse_lineage, "lhs": _read_side, "rhs": _read_side}


def _validate_record(record: IdentityRecord, id_tok: Token, seen):
    """Checks on a whole record, each raised at the record's id token."""
    declared = set(record.params) | set(record.exps)
    if set(record.params) & set(record.exps):
        raise ParseError(f"identity {record.id!r}: params and exps overlap",
                         id_tok.line, id_tok.col)
    parts = [("lhs", record.lhs), ("rhs", record.rhs)]
    parts += [("constraints", c.expr) for c in record.constraints]
    for part, expr in parts:
        undeclared = sorted(free_names(expr) - declared)
        if undeclared:
            raise UndeclaredParam(
                f"identity {record.id!r}: undeclared parameter {undeclared[0]!r} in {part}",
                id_tok.line, id_tok.col)
    if record.id in seen:
        raise DuplicateId(f"duplicate identity id {record.id!r}", id_tok.line, id_tok.col)


def parse_expr(text: str) -> Expr:
    parser = Parser(text)
    expr = parser.parse_expr()
    tok = parser.lex.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.value!r}",
                         tok.line, tok.col, ["end of input"])
    return expr


def sub_value(e: Expr):
    """A substitution value: an integer Const as an int (an exponent value), else e."""
    return int(e.value) if isinstance(e, Const) and e.value.denominator == 1 else e


def parse_catalog(text: str) -> list:
    return Parser(text).parse_catalog()


# ---------------------------------------------------------------------------
# renderer
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _render_poly_part(p: IntPoly) -> str:
    """Render an exponent position: bare token when possible, else parens."""
    text = p.render()
    if text.isalnum() and "-" not in text:
        return text
    return f"({text})"


def _render_length(length) -> str:
    if length is INF:
        return "inf"
    return _render_poly_part(length)


def render_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            text = str(v.numerator)
        else:
            text = f"{v.numerator}/{v.denominator}"
        if (v < 0 or v.denominator != 1) and prec >= _PREC_MUL:
            return f"({text})"
        return text
    if isinstance(e, Param):
        return e.name
    if isinstance(e, QPow):
        if e.exponent == IntPoly.const(1):
            return "q"
        return "q^" + _render_poly_part(e.exponent)
    if isinstance(e, Poch):
        arg = render_expr(e.arg, 0)
        base = "q" if e.base == IntPoly.const(1) else "q^" + _render_poly_part(e.base)
        return f"poch({arg}; {base})_{_render_length(e.length)}"
    if isinstance(e, OmegaProd):
        return f"qomega({e.h.render()})_{_render_length(e.length)}"
    if isinstance(e, StrideProd):
        return f"qstride({e.h.render()})_{_render_length(e.length)}"
    if isinstance(e, Theta):
        return f"{e.kind}()"
    if isinstance(e, Neg):
        text = "-" + render_expr(e.arg, _PREC_UNARY)
        return f"({text})" if prec >= _PREC_MUL else text
    if isinstance(e, Add):  # Add(x, Neg(y)) is x - y
        op, right = (" - ", e.right.arg) if isinstance(e.right, Neg) else (" + ", e.right)
        text = render_expr(e.left, _PREC_ADD) + op + render_expr(right, _PREC_MUL)
        return f"({text})" if prec > _PREC_ADD else text
    if isinstance(e, (Mul, Div)):
        op = " * " if isinstance(e, Mul) else " / "
        text = render_expr(e.left, _PREC_MUL) + op + render_expr(e.right, _PREC_UNARY)
        return f"({text})" if prec > _PREC_MUL else text
    if isinstance(e, Pow):
        base = render_expr(e.base, _PREC_ATOM)
        if isinstance(e.base, (QPow, Pow)):
            base = f"({base})"
        return base + "^" + _render_poly_part(e.exponent)
    if isinstance(e, Sum):
        step = f" step {e.stride}" if e.stride != 1 else ""
        return f"sum({e.index}={e.start}..inf{step}; {render_expr(e.summand, 0)})"
    if isinstance(e, MultiSum):
        return f"msum({', '.join(e.indices)}; {render_expr(e.summand, 0)})"
    raise TypeError(f"cannot render {e!r}")
