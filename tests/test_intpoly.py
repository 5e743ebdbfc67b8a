"""Exponent polynomials: the compiled integer evaluation against the
rational one, its errors, and how the exact backend binds its symbols."""

import random
from fractions import Fraction as F

import pytest

from qsv.dsl import parse_expr
from qsv.engine import ExactEnv, eval_exact
from qsv.errors import NonIntegerExponent, UnknownName
from qsv.exact import series_const
from qsv.intpoly import IntPoly

k, j, t = IntPoly.symbol("k"), IntPoly.symbol("j"), IntPoly.symbol("t")

POLYS = (
    t * IntPoly.tri(k),
    IntPoly.binom2(k) - j * 3 + 1,
    IntPoly.tri(k + j) * t - IntPoly.binom2(t),
    IntPoly.tri(k).pow(2) + IntPoly.binom2(j * 2 - 1),
    IntPoly.const(7),
    IntPoly(),
)


@pytest.mark.parametrize("poly", POLYS, ids=lambda p: p.render())
def test_eval_int_agrees_with_eval(poly):
    rng = random.Random(poly.render())
    for _ in range(50):
        env = {name: rng.randint(-30, 30) for name in "kjt"}
        assert poly.eval_int(env) == poly.eval(env)
        assert type(poly.eval_int(env)) is int


def test_eval_int_rejects_half_integers_and_unbound_symbols():
    half = k * F(1, 2)
    assert half.eval_int({"k": 4}) == 2
    with pytest.raises(NonIntegerExponent):
        half.eval_int({"k": 3})
    with pytest.raises(UnknownName):
        IntPoly.tri(k).eval_int({"j": 1})


def test_sum_index_shadows_exponent_symbol():
    # with the exponent k = 0 winning, every term would be q^0 and stall
    env = ExactEnv(order=8, exps={"k": 0})
    got = eval_exact(parse_expr("sum(k=0..inf; q^k)"), env)
    assert got.coeffs == (F(1),) * 8
    assert eval_exact(parse_expr("q^k"), env) == series_const(1, 8)
