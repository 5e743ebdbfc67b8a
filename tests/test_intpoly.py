"""Exponent polynomials: the compiled integer evaluation against the
rational one, the numeric evaluation against its unskipped formula, their
errors, and how the exact backend binds its symbols."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mpc

from qsv.dsl import parse_expr
from qsv.engine import ExactEnv, eval_exact
from qsv.errors import NonIntegerExponent, UnknownName
from qsv.exact import series_const
from qsv.intpoly import IntPoly
from qsv.numeric import WORK_DPS

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


def unskipped_eval(poly, env):
    """Every operation of the term-by-term formula: 0 + c*x^p*... ."""
    total = 0
    for m, c in poly.terms.items():
        v = c
        for s, p in m:
            v = v * env[s] ** p
        total = total + v
    return total


def random_poly(rng):
    """Up to four terms over k, j, t with powers 1..3 and coefficients
    drawn to hit 1 often; sometimes constant-only or empty."""
    terms = {}
    for _ in range(rng.choice([0, 1, 1, 2, 3, 4])):
        names = sorted(rng.sample("kjt", rng.randint(0, 3)))
        mono = tuple((s, rng.choice([1, 1, 2, 3])) for s in names)
        terms[mono] = rng.choice([F(1), F(1), F(-1), F(3), F(1, 2), F(-5, 3)])
    return IntPoly(terms)


def test_eval_equals_the_unskipped_formula():
    rng = random.Random(32)
    envs = (
        lambda: {s: rng.randint(-9, 9) for s in "kjt"},
        lambda: {s: F(rng.randint(-9, 9), rng.randint(1, 6)) for s in "kjt"},
        lambda: {s: mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for s in "kjt"},
        lambda: {"k": rng.randint(0, 9), "j": mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                 "t": F(rng.randint(-9, 9), 4)},
    )
    polys = [IntPoly(), IntPoly.const(1), IntPoly.const(F(-7, 2)), k, k.pow(3) + 1,
             t * IntPoly.tri(k)] + [random_poly(rng) for _ in range(200)]
    with mpmath.workdps(WORK_DPS):
        for poly in polys:
            for make_env in envs:
                env = make_env()
                assert poly.eval(env) == unskipped_eval(poly, env), poly.render()


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
