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
    Sub,
    Sum,
    Theta,
    free_names,
)
from .intpoly import IntPoly

_PUNCT = ("..", "{", "}", "(", ")", ";", ",", "=", "+", "-", "*", "/", "^", "_", "<")

_KEYWORDS = {
    "identity", "anchor", "params", "exps", "constraints", "lineage",
    "backend", "lhs", "rhs", "sum", "msum", "poch", "qomega", "qstride",
    "psi", "phi_minus", "inf", "step", "tri", "binom2", "abs", "parent",
    "kind", "sub", "factor", "swap", "q",
}


@dataclass
class Token:
    kind: str  # NAME NUMBER STRING PUNCT EOF
    value: str
    line: int
    col: int


class Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self._peeked = None

    def _advance(self, n=1):
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _skip_ws(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            else:
                break

    def peek(self) -> Token:
        if self._peeked is None:
            self._peeked = self._scan()
        return self._peeked

    def next(self) -> Token:
        tok = self.peek()
        self._peeked = None
        return tok

    def read_id(self) -> Token:
        """Scan a raw identity id ([A-Za-z0-9._-]+); ids may contain dots
        and dashes, which are operators in expression position."""
        if self._peeked is not None:
            raise RuntimeError("read_id after peek")
        self._skip_ws()
        line, col = self.line, self.col
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "._-"
        ):
            self._advance()
        if self.pos == start:
            raise ParseError("expected an identity id", line, col, ["id"])
        return Token("ID", self.text[start:self.pos], line, col)

    def _scan(self) -> Token:
        self._skip_ws()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return Token("EOF", "", line, col)
        ch = self.text[self.pos]
        if ch == '"':
            self._advance()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] not in '"\n':
                self._advance()
            if self.pos >= len(self.text) or self.text[self.pos] != '"':
                raise ParseError("unterminated string", line, col, ['"'])
            value = self.text[start:self.pos]
            self._advance()
            return Token("STRING", value, line, col)
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self._advance()
            return Token("NUMBER", self.text[start:self.pos], line, col)
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self._advance()
            return Token("NAME", self.text[start:self.pos], line, col)
        for p in _PUNCT:
            if self.text.startswith(p, self.pos):
                self._advance(len(p))
                return Token("PUNCT", p, line, col)
        raise ParseError(f"unexpected character {ch!r}", line, col)


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
    numeric_only: bool = False


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

    def parse_expr(self) -> Expr:
        left = self.parse_mulchain()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.lex.next().value
            right = self.parse_mulchain()
            left = Add(left, right) if op == "+" else Sub(left, right)
        return left

    def parse_mulchain(self) -> Expr:
        left = self.parse_unary()
        while self.at_punct("*") or self.at_punct("/"):
            op = self.lex.next().value
            right = self.parse_unary()
            left = Mul(left, right) if op == "*" else Div(left, right)
        return left

    def parse_unary(self) -> Expr:
        if self.accept_punct("-"):
            inner = self.parse_postfix()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        atom = self.parse_atom()
        if self.at_punct("^"):
            self.lex.next()
            exponent = self.parse_ipart()
            return Pow(atom, exponent)
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
            if self.at_punct("^"):
                self.lex.next()
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
        left = self.parse_ipterm()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.lex.next().value
            right = self.parse_ipterm()
            left = left + right if op == "+" else left - right
        return left

    def parse_ipterm(self) -> IntPoly:
        neg = self.accept_punct("-")
        poly = self.parse_ipfactor()
        while self.at_punct("*"):
            self.lex.next()
            poly = poly * self.parse_ipfactor()
        return -poly if neg else poly

    def parse_ipfactor(self) -> IntPoly:
        tok = self.lex.peek()
        if tok.kind == "NUMBER":
            self.lex.next()
            value = Fraction(int(tok.value))
            if self.at_punct("/"):
                self.lex.next()
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
            if self.at_punct("^"):
                self.lex.next()
                poly = poly.pow(self.expect_number())
            return poly
        if tok.kind == "PUNCT" and tok.value == "(":
            self.lex.next()
            poly = self.parse_intpoly()
            self.expect_punct(")")
            if self.at_punct("^"):
                self.lex.next()
                poly = poly.pow(self.expect_number())
            return poly
        self._err(f"expected an exponent term, found {tok.value!r}", tok,
                  ["number", "name", "(", "tri", "binom2"])

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
            stride = self.expect_number()
            if stride < 1:
                raise ParseError("step must be >= 1")
        self.expect_punct(";")
        summand = self.parse_expr()
        self.expect_punct(")")
        return Sum(index, start, stride, summand)

    def parse_msum(self) -> Expr:
        self.expect_name("msum")
        self.expect_punct("(")
        indices = [self.expect_name().value]
        while self.accept_punct(","):
            indices.append(self.expect_name().value)
        self.expect_punct(";")
        summand = self.parse_expr()
        self.expect_punct(")")
        return MultiSum(tuple(indices), summand)

    # catalog blocks -------------------------------------------------------------

    def parse_catalog(self) -> list:
        records = []
        seen = set()
        while True:
            tok = self.lex.peek()
            if tok.kind == "EOF":
                break
            if not (tok.kind == "NAME" and tok.value == "identity"):
                self._err(f"expected 'identity', found {tok.value!r}", tok,
                          ["identity"])
            record = self.parse_identity()
            if record.id in seen:
                raise DuplicateId(f"duplicate identity id {record.id!r}")
            seen.add(record.id)
            records.append(record)
        return records

    def parse_identity(self) -> IdentityRecord:
        self.expect_name("identity")
        rid = self.lex.read_id().value
        self.expect_punct("{")
        anchor = ""
        params: tuple = ()
        exps: tuple = ()
        constraints: tuple = ()
        lineage = None
        numeric_only = False
        lhs = rhs = None
        while not self.at_punct("}"):
            tok = self.lex.peek()
            if tok.kind != "NAME":
                self._err(f"expected a clause, found {tok.value!r}", tok,
                          ["anchor", "params", "exps", "constraints",
                           "lineage", "backend", "lhs", "rhs"])
            clause = tok.value
            if clause == "anchor":
                self.lex.next()
                stok = self.lex.next()
                if stok.kind != "STRING":
                    self._err("anchor needs a quoted string", stok, ['"'])
                anchor = stok.value
            elif clause == "params":
                self.lex.next()
                params = tuple(self._name_list())
            elif clause == "exps":
                self.lex.next()
                exps = tuple(self._name_list())
            elif clause == "constraints":
                self.lex.next()
                constraints = tuple(self._constraint_list())
            elif clause == "lineage":
                self.lex.next()
                lineage = self._parse_lineage()
            elif clause == "backend":
                self.lex.next()
                which = self.expect_name().value
                if which not in ("exact", "numeric"):
                    raise ParseError(f"unknown backend {which!r}")
                numeric_only = which == "numeric"
            elif clause == "lhs":
                self.lex.next()
                self.expect_punct("=")
                lhs = self.parse_expr()
            elif clause == "rhs":
                self.lex.next()
                self.expect_punct("=")
                rhs = self.parse_expr()
            else:
                self._err(f"unknown clause {clause!r}", tok)
            self.expect_punct(";")
        self.expect_punct("}")
        if lhs is None or rhs is None:
            raise ParseError(f"identity {rid!r} must define both lhs and rhs")
        record = IdentityRecord(rid, anchor, params, exps, lhs, rhs,
                                constraints, lineage, numeric_only)
        _validate_record(record)
        return record

    def _name_list(self):
        names = [self.expect_name().value]
        while self.accept_punct(","):
            names.append(self.expect_name().value)
        return names

    def _constraint_list(self):
        out = [self._parse_constraint()]
        while self.accept_punct(","):
            out.append(self._parse_constraint())
        return out

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
        kind = self.expect_name().value
        if kind not in ("direct", "limit", "rebase"):
            raise ParseError(f"unknown lineage kind {kind!r}")
        sub = []
        factor = None
        swap = False
        while self.at_name("sub") or self.at_name("factor") or self.at_name("swap"):
            which = self.lex.next().value
            if which == "sub":
                self.expect_punct("(")
                sub.append(self._parse_sub_item())
                while self.accept_punct(","):
                    sub.append(self._parse_sub_item())
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
        value = self.parse_expr()
        if isinstance(value, Const) and value.value.denominator == 1:
            return (name, int(value.value))
        return (name, value)


def _validate_record(record: IdentityRecord):
    declared = set(record.params) | set(record.exps)
    if set(record.params) & set(record.exps):
        raise ParseError(f"identity {record.id!r}: params and exps overlap")
    for side_name, side in (("lhs", record.lhs), ("rhs", record.rhs)):
        for name in sorted(free_names(side)):
            if name not in declared:
                raise UndeclaredParam(
                    f"identity {record.id!r}: undeclared parameter {name!r} in {side_name}"
                )
    for constraint in record.constraints:
        for name in sorted(free_names(constraint.expr)):
            if name not in declared:
                raise UndeclaredParam(
                    f"identity {record.id!r}: undeclared parameter {name!r} in constraints"
                )


def parse_expr(text: str) -> Expr:
    parser = Parser(text)
    expr = parser.parse_expr()
    tok = parser.lex.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.value!r}",
                         tok.line, tok.col, ["end of input"])
    return expr


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
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        text = render_expr(e.left, _PREC_ADD) + op + render_expr(e.right, _PREC_MUL)
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
