"""Dual-route check of the exact evaluator: a deliberately naive
interpreter (dict-based polynomial arithmetic, fixed generous term
bounds, no caches, no valuation shortcuts) must produce the same
truncated series on randomized expressions and on catalog sides."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsv.dsl import parse_expr
from qsv.engine import ExactEnv, eval_exact
from qsv.exact import ParamValue, QSeries
from qsv.expr import (
    INF,
    Add,
    Const,
    Div,
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

# -- naive reference interpreter -----------------------------------------------


def p_add(f, g):
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, F(0)) + v
    return {k: v for k, v in out.items() if v}


def p_mul(f, g, order):
    out = {}
    for i, a in f.items():
        for j, b in g.items():
            if i + j < order:
                out[i + j] = out.get(i + j, F(0)) + a * b
    return {k: v for k, v in out.items() if v}


def p_inv(f, order):
    c0 = f.get(0, F(0))
    assert c0 != 0
    g = {0: 1 / c0}
    for k in range(1, order):
        acc = F(0)
        for i in range(1, k + 1):
            if i in f and (k - i) in g:
                acc += f[i] * g[k - i]
        if acc:
            g[k] = -acc / c0
    return g


def naive_eval(e, env, idxenv, order):
    if isinstance(e, Const):
        return {0: e.value} if e.value else {}
    if isinstance(e, Param):
        pv = env.params[e.name]
        return {pv.qpow: pv.coeff} if pv.coeff else {}
    if isinstance(e, QPow):
        v = e.exponent.eval_int({**env.exps, **idxenv})
        return {v: F(1)} if v < order else {}
    if isinstance(e, Neg):
        return {k: -v for k, v in naive_eval(e.arg, env, idxenv, order).items()}
    if isinstance(e, Add):
        return p_add(naive_eval(e.left, env, idxenv, order),
                     naive_eval(e.right, env, idxenv, order))
    if isinstance(e, Sub):
        right = naive_eval(e.right, env, idxenv, order)
        return p_add(naive_eval(e.left, env, idxenv, order),
                     {k: -v for k, v in right.items()})
    if isinstance(e, Mul):
        return p_mul(naive_eval(e.left, env, idxenv, order),
                     naive_eval(e.right, env, idxenv, order), order)
    if isinstance(e, Div):
        return p_mul(naive_eval(e.left, env, idxenv, order),
                     p_inv(naive_eval(e.right, env, idxenv, order), order), order)
    if isinstance(e, Pow):
        n = e.exponent.eval_int({**env.exps, **idxenv})
        base = naive_eval(e.base, env, idxenv, order)
        out = {0: F(1)}
        for _ in range(abs(n)):
            out = p_mul(out, base, order)
        if n < 0:
            out = p_inv(out, order)
        return out
    if isinstance(e, Poch):
        base = e.base.eval_int({**env.exps, **idxenv})
        arg = naive_eval(e.arg, env, idxenv, order)
        if e.length is INF:
            count = order  # enough factors: later ones are 1 mod q^order
        else:
            count = e.length.eval_int({**env.exps, **idxenv})
        out = {0: F(1)}
        for i in range(count):
            step = {base * i: F(1)} if base * i < order else {}
            factor = p_add({0: F(1)}, {k: -v for k, v in p_mul(arg, step, order).items()})
            out = p_mul(out, factor, order)
        return out
    if isinstance(e, OmegaProd):
        h = e.h.eval_int({**env.exps, **idxenv})
        num = naive_eval(Poch(QPow(e.h), e.h, e.length), env, idxenv, order)
        den = naive_eval(Poch(QPow(e.h * 0 + _one()), _one(), e.length),
                         env, idxenv, order)
        return p_mul(num, p_inv(den, order), order)
    if isinstance(e, StrideProd):
        length = e.length if e.length is INF else e.length * e.h
        num = naive_eval(Poch(QPow(_one()), _one(), length), env, idxenv, order)
        den = naive_eval(Poch(QPow(e.h), e.h, e.length), env, idxenv, order)
        return p_mul(num, p_inv(den, order), order)
    if isinstance(e, Theta):
        out = {}
        if e.kind == "psi":
            k = 0
            while k * (k + 1) // 2 < order:
                out[k * (k + 1) // 2] = F(1)
                k += 1
        else:
            out[0] = F(1)
            k = 1
            while k * k < order:
                out[k * k] = F(2 * (-1) ** k)
                k += 1
        return out
    if isinstance(e, Sum):
        total = {}
        idx = e.start
        for _ in range(3 * order + 40):
            term = naive_eval(e.summand, env, {**idxenv, e.index: idx}, order)
            total = p_add(total, term)
            idx += e.stride
        return total
    if isinstance(e, MultiSum):
        total = {}
        bound = order + 4
        import itertools

        for combo in itertools.product(range(bound), repeat=len(e.indices)):
            if sum(combo) > bound:
                continue
            term = naive_eval(e.summand, env,
                              {**idxenv, **dict(zip(e.indices, combo))}, order)
            total = p_add(total, term)
        return total
    raise TypeError(e)


def _one():
    from qsv.intpoly import IntPoly

    return IntPoly.const(1)


def to_series(poly, order):
    return QSeries(order, tuple(poly.get(i, F(0)) for i in range(order)))


# -- randomized agreement ---------------------------------------------------------

PVALS = [ParamValue(F(1), 1), ParamValue(F(-1), 1), ParamValue(F(1, 2), 1),
         ParamValue(F(2), 2), ParamValue(F(-1, 3), 1)]


@st.composite
def closed_expr(draw, depth=2, idx=None):
    """Expressions evaluable on both routes: monomial-friendly leaves,
    Pochhammer symbols with safe arguments, one level of summation."""
    from qsv.intpoly import IntPoly

    if depth <= 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Const(F(draw(st.integers(1, 3))))
        if choice == 1:
            return Param(draw(st.sampled_from(["a", "b"])))
        coeff = draw(st.integers(0, 2))
        poly = IntPoly.const(draw(st.integers(0, 2)))
        if idx and coeff:
            poly = poly + IntPoly({((idx, 1),): F(coeff)})
        return QPow(poly)
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return Add(draw(closed_expr(depth=depth - 1, idx=idx)),
                   draw(closed_expr(depth=depth - 1, idx=idx)))
    if choice == 1:
        return Mul(draw(closed_expr(depth=depth - 1, idx=idx)),
                   draw(closed_expr(depth=depth - 1, idx=idx)))
    if choice == 2:
        from qsv.intpoly import IntPoly

        length = draw(st.sampled_from(["int", "idx", "inf"]))
        if length == "int":
            ln = IntPoly.const(draw(st.integers(0, 3)))
        elif length == "idx" and idx:
            ln = IntPoly.symbol(idx) + IntPoly.const(draw(st.integers(0, 1)))
        else:
            ln = INF
        arg = draw(st.sampled_from(["a", "b", "q"]))
        arg_expr = QPow(IntPoly.const(1)) if arg == "q" else Param(arg)
        return Poch(arg_expr, IntPoly.const(draw(st.integers(1, 2))), ln)
    if choice == 3:
        from qsv.intpoly import IntPoly

        exp = IntPoly.const(draw(st.integers(0, 3)))
        if idx:
            exp = exp + IntPoly({((idx, 1),): F(draw(st.integers(0, 2)))})
        return Pow(Param(draw(st.sampled_from(["a", "b"]))), exp)
    if choice == 4 and idx is None:
        summand = Mul(draw(closed_expr(depth=depth - 1, idx="k")),
                      Pow(Param("a"), __import__("qsv.intpoly",
                                                 fromlist=["IntPoly"]).IntPoly.symbol("k")))
        return Sum("k", draw(st.integers(0, 1)), draw(st.integers(1, 2)), summand)
    return Neg(draw(closed_expr(depth=depth - 1, idx=idx)))


@given(closed_expr(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_engine_matches_naive_interpreter(e, rotation):
    order = 14
    params = {"a": PVALS[rotation % len(PVALS)],
              "b": PVALS[(rotation + 2) % len(PVALS)]}
    env = ExactEnv(order=order, params=params, exps={})
    got = eval_exact(e, env)
    expected = to_series(naive_eval(e, env, {}, order), order)
    assert got == expected


def test_catalog_sides_match_naive_interpreter(catalog):
    # spot-check whole catalog sides on the slow route at a small order
    cases = [
        ("q-bin", {"a": PVALS[1], "z": PVALS[2]}, {}),
        ("gb-sym-heine", {"a": PVALS[0], "b": PVALS[1], "w": PVALS[2],
                          "z": PVALS[3]}, {"h": 2, "t": 1}),
        ("1.4.12", {"a": PVALS[0], "b": PVALS[2]}, {"t": 2}),
        ("gb-1.6.6", {"a": PVALS[3]}, {"t": 1, "s": 2}),
        ("gb-qlauricella-1.4.10a-m2", {}, {}),
        ("gb-1.4.2-h", {"a": PVALS[2], "b": PVALS[0]}, {"h": 3}),
    ]
    order = 16
    for rid, params, exps in cases:
        record = catalog[rid]
        env = ExactEnv(order=order, params=params, exps=exps)
        for side in (record.lhs, record.rhs):
            fast = eval_exact(side, env)
            slow = to_series(naive_eval(side, env, {}, order), order)
            assert fast == slow, rid


@pytest.mark.parametrize("length", ["0", "1", "4", "inf"])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("form", ["qomega(h)_n", "1/qomega(h)_n",
                                  "qstride(h)_n", "1/qstride(h)_n"])
def test_collapsed_products_and_reciprocals_match_naive(form, h, length):
    # no catalog record divides by qomega or qstride; this checks that route
    e = parse_expr(form.replace("(h)", f"({h})").replace("_n", f"_{length}"))
    order = 16
    env = ExactEnv(order=order)
    assert eval_exact(e, env) == to_series(naive_eval(e, env, {}, order), order)
