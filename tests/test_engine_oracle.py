"""Dual-route check of the exact evaluator: a deliberately naive
interpreter (dict-based polynomial arithmetic, fixed generous term
bounds, no caches, no valuation shortcuts) must produce the same
truncated series on randomized expressions and on catalog sides.  The
numeric sum plans get the same treatment: every sum must equal, bit for
bit, the sum of its summand evaluated whole at each term."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc

from qsv import numeric as num
from qsv.dsl import parse_expr
from qsv.engine import (
    ExactEnv,
    ExactEvaluator,
    NumericEnv,
    NumericEvaluator,
    SumPlan,
    _compositions,
    eval_exact,
)
from qsv.errors import (
    NonTruncatable,
    TermCapExceeded,
    ValuationStall,
    ZeroConstantTerm,
)
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
    Sum,
    Theta,
    free_names,
    walk,
)
from qsv.verifier import (
    default_catalog_path,
    default_exact_grid,
    default_numeric_grid,
    load_catalog_file,
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
        if idx and draw(st.booleans()):
            poly = poly + dipping(draw, idx)
        return QPow(poly)
    choice = draw(st.integers(0, 7))
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
        from qsv.intpoly import IntPoly

        summand = Mul(Mul(draw(closed_expr(depth=depth - 1, idx="k")),
                          Pow(Param("a"), IntPoly.symbol("k"))), QPow(dipping(draw, "k")))
        return Sum("k", draw(st.integers(0, 1)), draw(st.integers(1, 2)), summand)
    if choice == 5 and idx is None:
        return MultiSum(("j", "k"), two_index_summand(draw, depth))
    if choice == 6:
        return Div(draw(closed_expr(depth=depth - 1, idx=idx)), draw(invertible()))
    return Neg(draw(closed_expr(depth=depth - 1, idx=idx)))


@st.composite
def invertible(draw):
    """An index-free series whose constant term is nonzero at every value
    of PVALS: c + q*x (negated, or to a power >= 1), (a; q)_len, (b; q)_len,
    a theta series or sum(m=0..inf; q^m)."""
    from qsv.intpoly import IntPoly

    kind = draw(st.integers(0, 3))
    if kind == 0:
        e = Add(Const(F(draw(st.sampled_from([-2, -1, 1, 3])))),
                Mul(QPow(IntPoly.const(1)), draw(closed_expr(depth=0))))
        if draw(st.booleans()):
            e = Neg(e)
        if draw(st.booleans()):
            e = Pow(e, IntPoly.const(draw(st.integers(1, 2))))
        return e
    if kind == 1:
        length = draw(st.sampled_from([INF, IntPoly.const(1), IntPoly.const(3)]))
        return Poch(Param(draw(st.sampled_from(["a", "b"]))), IntPoly.const(1), length)
    if kind == 2:
        return Theta(draw(st.sampled_from(["psi", "phi_minus"])))
    return Sum("m", 0, 1, QPow(IntPoly.symbol("m")))


def dipping(draw, idx):
    """(idx - a/2)^2 + c >= 0: with a = 16 the terms' valuations fall for
    eight steps from 64, far past the order, before they rise again."""
    from qsv.intpoly import IntPoly

    a, c = draw(st.sampled_from([0, 6, 16])), draw(st.integers(0, 2))
    k = IntPoly.symbol(idx)
    return k * k - k * a + (a * a // 4 + c)


def two_index_summand(draw, depth):
    """A j-part times a k-part times q^(b*j*k + dip in j) times a^j * a^k,
    which makes every term's valuation at least j + k."""
    from qsv.intpoly import IntPoly

    j, k = IntPoly.symbol("j"), IntPoly.symbol("k")
    exponent = j * k * draw(st.integers(0, 2))
    if draw(st.booleans()):
        exponent = exponent + dipping(draw, "j")
    factors = [draw(closed_expr(depth=depth - 1, idx="j")),
               draw(closed_expr(depth=depth - 1, idx="k")),
               QPow(exponent), Pow(Param("a"), j), Pow(Param("a"), k)]
    out = factors[0]
    for factor in factors[1:]:
        out = Mul(out, factor)
    return out


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


# -- compiled sum plans ------------------------------------------------------------

# One summand per shape of the sum plan, with the number of its parts that
# are evaluated whole at each term (0: every part is stepped by Pochhammer
# ratios).
PLAN_CASES = [
    ("sum(k=0..inf; poch(a; q^h)_(h*k+1) / poch(q; q^h)_(h*k+1) * z^k)", 0),
    ("sum(k=0..inf; q^k / poch(q; q)_k^2)", 0),
    ("sum(k=0..inf; poch(a; q)_k^2 * z^k / poch(q^2; q^2)_k)", 0),
    ("sum(k=0..inf; (-1)^k * q^(tri(k)) * (1 - q^(k+1)))", 0),
    ("sum(k=0..inf; z^k / ((1 - q^(k+1)) * poch(q; q)_k))", 0),
    ("sum(k=0..inf; z^k / (poch(q; q)_k * (1 + a*q^(2*k+1))))", 0),
    ("sum(k=0..inf; qomega(2)_k * z^k)", 0),
    ("sum(k=0..inf; z^k / qstride(3)_k)", 0),
    ("sum(k=0..inf; poch(1/2*q; q)_k / poch(-1/3*q; q)_k * z^k)", 0),
    ("sum(k=0..inf; poch(b; q)_k / poch(-b*q; q^2)_k * z^k)", 0),
    ("sum(k=0..inf; poch(-1/3; q)_k * z^k / poch(3/2; q)_(2*k))", 0),
    ("msum(j, k; poch(w; q^h)_(2*j+k) / (poch(q; q)_j * poch(q; q)_k)"
     " * q^(j+2*k))", 0),
    ("sum(k=1..inf step 2; poch(a; q)_k / poch(q; q)_k * z^k)", 0),
    ("sum(k=0..inf; q^k * poch(a*q^k; q)_3)", 1),
    ("sum(k=0..inf; z^k * sum(j=0..inf; q^(j*(k+1))))", 1),
    ("sum(k=0..inf; z^k * poch(1; q)_k)", 1),
    ("sum(k=0..inf; poch(a; q)_k * poch(b*q^k; q)_2 * z^k / poch(w*q^(k+1); q)_inf)", 1),
    ("sum(k=0..inf; poch(a*q^(2*k+1); q^2)_inf * q^(k^2 - 4*k + 4))", 0),
    ("sum(k=0..inf; q^k / poch(a*q^(k+1); q^3)_inf)", 1),
    ("sum(k=0..inf; z^k * q^k + q^(k*k))", 1),
]

PLAN_PARAMS = [
    {"a": ParamValue(F(1, 2), 1), "b": ParamValue(F(-1, 3), 0),
     "z": ParamValue(F(1), 1), "w": ParamValue(F(-1), 1)},
    {"a": ParamValue(F(-2), 2), "b": ParamValue(F(1, 2), 0),
     "z": ParamValue(F(-1, 3), 1), "w": ParamValue(F(2, 3), 0)},
]


def _first_plan(e, env):
    """The plan of the sum e, compiled at its first term."""
    indices = (e.index,) if isinstance(e, Sum) else e.indices
    start = e.start if isinstance(e, Sum) else 0
    plan = SumPlan(ExactEvaluator(env), indices, e.summand, env.exps)
    plan.term({**env.exps, **{ix: start for ix in indices}})
    return plan


@pytest.mark.parametrize("params", PLAN_PARAMS, ids=["p0", "p1"])
@pytest.mark.parametrize("text,per_term", PLAN_CASES,
                         ids=[t for t, _ in PLAN_CASES])
def test_sum_plan_matches_naive(text, per_term, params):
    e = parse_expr(text)
    order = 16
    env = ExactEnv(order=order, params=params, exps={"h": 2})
    assert eval_exact(e, env) == to_series(naive_eval(e, env, {}, order), order)
    plan = _first_plan(e, env)
    assert sum(kind == "eval" for kind, *_ in plan.steps) == per_term


# Each index level's running series is kept only to the precision the
# terms still to come from it can use.  At its boundaries: a monomial
# q-power that dips after the first term, one that dips along an msum's
# inner index, and an infinite product whose argument moves with the index,
# stepped as a chain (base q^2) or evaluated whole (base q^3).
CUT_CASES = [
    "sum(k=0..inf; (1+1) * a^k * q^(9 - 6*k + k^2))",
    "msum(j, k; q^(j + k^2 - 6*k + 9) * poch(a; q)_(j+k))",
    "sum(k=0..inf; poch(a*q^(2*k+1); q^2)_inf * q^(k^2 - 4*k + 4))",
    "sum(k=0..inf; q^k / poch(a*q^(k+1); q^3)_inf)",
]


@pytest.mark.parametrize("text", CUT_CASES)
def test_running_series_cut_matches_naive(text):
    e = parse_expr(text)
    order = 24
    env = ExactEnv(order=order, params={"a": ParamValue(F(-1, 3), 1)})
    assert eval_exact(e, env) == to_series(naive_eval(e, env, {}, order), order)


def test_sum_plan_raises_for_a_vanishing_denominator():
    # 1/(1; q)_k is 1 at k = 0 and has no inverse after, so the summand has
    # no valuation bound: the sum evaluates its first term and stalls, and
    # the plan raises at k = 1
    e = parse_expr("sum(k=0..inf; z^k / poch(1; q)_k)")
    env = ExactEnv(order=16, params=PLAN_PARAMS[0])
    with pytest.raises(ValuationStall, match=r"over 'k' stopped gaining "
                                             r"q-valuation \(no valuation bound\)"):
        eval_exact(e, env)
    plan = _first_plan(e, env)
    assert sum(kind == "eval" for kind, *_ in plan.steps) == 1
    with pytest.raises(ZeroConstantTerm, match=r"\(x;q\^h\)_k with x = 1 vanishes"):
        plan.term({"k": 1})


def outer_sums(e):
    return [node for node, bound in walk(e)
            if not bound and isinstance(node, (Sum, MultiSum))]


def test_msum_with_a_flat_first_step_matches_naive():
    # the bound j*j - j + k stays 0 from j = 0 to j = 1: no per-index rate
    # read from those two points can bound the sum
    e = parse_expr("msum(j, k; q^(2*binom2(j)) * q^k)")
    order = 32
    env = ExactEnv(order=order)
    assert eval_exact(e, env) == to_series(naive_eval(e, env, {}, order), order)


def test_msum_term_cap_bounds_one_index_run(monkeypatch):
    # the walk visits over 500 index vectors, but no index runs through
    # more than about 33 values under one value of the indices outside it
    import qsv.engine

    e = parse_expr("msum(j, k; q^(j+k))")
    order = 32
    env = ExactEnv(order=order)
    monkeypatch.setattr(qsv.engine, "MAX_EXACT_TERMS", 100)
    assert eval_exact(e, env) == to_series(naive_eval(e, env, {}, order), order)
    monkeypatch.setattr(qsv.engine, "MAX_EXACT_TERMS", 20)
    with pytest.raises(TermCapExceeded, match=r"^sum over 'k' exceeded the term cap of 20$"):
        eval_exact(e, env)


def test_sum_over_an_index_free_nested_sum_denominator():
    # sum_j q^j = 1/(1-q) has constant term 1, so the outer terms have a
    # valuation bound
    e = parse_expr("sum(k=0..inf; q^k / sum(j=0..inf; q^j))")
    order = 8
    env = ExactEnv(order=order)
    got = eval_exact(e, env)
    assert got == to_series({0: F(1)}, order)
    assert got == to_series(naive_eval(e, env, {}, order), order)


# Exact branches that neither the catalog nor the cases above reach, at
# PLAN_PARAMS[0] and h = 2: each must match the naive interpreter.
RARE_BRANCH_CASES = [
    "poch(1 + a; q)_3",  # a Pochhammer symbol over a non-monomial argument
    "1/poch(a + q; q^2)_2",
    "poch(b + a; q^h)_2^2",
    "sum(k=0..inf; q^k * poch(a + q^k; q)_2)",
    "sum(k=0..inf; z^k * 0^k * psi())",  # the valuation bound of 0^k
    "sum(k=0..inf; z^k * (1 + q^k)^(-1))",  # ... of a non-monomial power
    "sum(k=1..inf; z^k / (1 - q^(k*k)))",  # an inverted binomial
    "0 * psi()",  # a zero numerator
    "sum(k=0..inf; q^k * 2 / 3)",  # index-free monomials in a summand
    "sum(k=0..inf; q^k / 3)",
]


@pytest.mark.parametrize("text", RARE_BRANCH_CASES)
def test_rare_exact_branches_match_naive(text):
    e = parse_expr(text)
    order = 16
    env = ExactEnv(order=order, params=PLAN_PARAMS[0], exps={"h": 2})
    assert eval_exact(e, env) == to_series(naive_eval(e, env, {}, order), order)


@pytest.mark.parametrize("text,error,match", [
    ("poch(a*q + 1; q)_inf", NonTruncatable, "non-monomial argument"),
    # 1 - q^k has no inverse at k = 0
    ("sum(k=0..inf; q^(k+1) / (1 - q^k))", ZeroConstantTerm, "zero constant term"),
    # q + z^k has constant term 0 at k >= 1, so no bound holds
    ("sum(k=0..inf; z^k / (q + z^k))", ValuationStall, "no valuation bound"),
])
def test_rare_exact_branches_raise(text, error, match):
    env = ExactEnv(order=16, params=PLAN_PARAMS[0], exps={"h": 2})
    with pytest.raises(error, match=match):
        eval_exact(parse_expr(text), env)


def assert_plan_sound(e, env, check_skipped=True):
    """Over every term the plan of the sum e evaluates, the compiled bound
    is at most the term's valuation wherever no guard vanishes; for a single
    sum, every skipped term from its start to five steps past the last
    evaluated one has valuation at least the order."""
    indices = (e.index,) if isinstance(e, Sum) else tuple(e.indices)
    start, stride = (e.start, e.stride) if isinstance(e, Sum) else (0, 1)
    ev = ExactEvaluator(env)
    plan = SumPlan(ev, indices, e.summand, env.exps)
    assert plan.bound is not None
    evaluated = []
    for point in plan.points(env.exps, start, stride):
        term = plan.term(point)
        evaluated.append(point[indices[0]])
        if plan.bound and all(g.eval_int(point) for g in plan.guards):
            low = min(p.eval_int(point) for p in plan.bound)
            assert term.is_zero() or term.valuation() >= low, (point, plan.bound)
    if check_skipped and len(indices) == 1:
        last = max(evaluated, default=start)
        for value in range(start, last + 5 * stride + 1, stride):
            if value not in evaluated:
                term = ev.eval(e.summand, {indices[0]: value})
                assert term.valuation() >= env.order, (indices[0], value)


def catalog_sums():
    for record in load_catalog_file(default_catalog_path()):
        for e in outer_sums(record.lhs) + outer_sums(record.rhs):
            yield record, e


@pytest.mark.parametrize("record,e", list(catalog_sums()),
                         ids=lambda x: x.id if hasattr(x, "id") else "")
def test_compiled_bound_is_sound_on_catalog(record, e):
    point = default_exact_grid(record)[0]
    assert_plan_sound(e, ExactEnv(order=24, params=point.params, exps=point.exps))


@given(closed_expr(depth=3), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_compiled_bound_is_sound_on_generated_sums(e, rotation):
    env = ExactEnv(order=14, params={"a": PVALS[rotation % len(PVALS)],
                                     "b": PVALS[(rotation + 2) % len(PVALS)]})
    for s in outer_sums(e):
        assert_plan_sound(s, env)


# -- numeric sum plans ---------------------------------------------------------


class PlainNumeric(NumericEvaluator):
    """The numeric evaluator without sum plans: every term evaluates the
    whole summand, through the same tail-bounded loop and shell order."""

    def _eval(self, e, sym, plan=None):
        return self._eval_node(e, sym, None)

    def _eval_sum(self, indices, start, stride, summand, sym):
        if len(indices) == 1:
            return num.sum_with_tail_bound(
                lambda k: self._eval(summand, {**sym, indices[0]: start + stride * k}),
                self.tol)

        def shell(d):
            total = mpc(0)
            for values in _compositions(d, len(indices), start, stride):
                total += self._eval(summand, {**sym, **dict(zip(indices, values))})
            return total

        return num.sum_with_tail_bound(shell, self.tol, tail_run=5)


def bits(z):
    """The exact binary value of an mpc, so that equality means every bit."""
    return z.real._mpf_, z.imag._mpf_


NUMERIC_RECORDS = {r.id: r for r in load_catalog_file(default_catalog_path())
                   if outer_sums(r.lhs) or outer_sums(r.rhs)}


@pytest.mark.parametrize("rid", sorted(NUMERIC_RECORDS))
def test_numeric_plan_matches_plain_sum_on_catalog(rid):
    record = NUMERIC_RECORDS[rid]
    points = default_numeric_grid(record)
    if not points:
        pytest.skip("no admissible numeric grid point")
    point = points[0]
    env = NumericEnv(q=point.q, params=point.params, exps=point.exps)
    for node in outer_sums(record.lhs) + outer_sums(record.rhs):
        assert bits(NumericEvaluator(env).eval(node)) == bits(PlainNumeric(env).eval(node))


NUMERIC_PLAN_CASES = {
    # an inner sum whose summand mentions the outer index
    "nested": "sum(k=0..inf; z^k / poch(q; q)_k"
    " * sum(j=0..inf; poch(a; q)_j / poch(q; q)_j * b^j * q^(j*(k+1))))",
    # factors in one, two and all three indices, and index-free ones
    "three-indices": "msum(k1, k2, k3; poch(a; q)_k1 / poch(q; q)_k1 * z^k1"
    " * poch(b; q^2)_(k2+k3) * q^(k2*k3) * c^k2 / (1 - c*q^(k2+1))"
    " * poch(w; q)_(k1+k2+k3) / poch(c*w; q)_(k1+k2+k3) * b^k3 * poch(a*b; q)_inf)",
    # complex lengths, one coupled across the indices
    "complex-length": "sum(k=0..inf; poch(a; q^h)_(h*k) / poch(q^h; q^h)_k * z^k)",
    "coupled-complex-length": "msum(j, k; poch(a; q^h)_j / poch(q^h; q^h)_j * poch(b; q^t)_k / poch(q^t; q^t)_k"
    " * poch(w; q)_(h*j+t*k) / poch(c*w; q)_(h*j+t*k) * z^j * b^k)",
}

NUMERIC_PLAN_POINTS = [
    NumericEnv(q=0.3, params={"a": 0.4, "b": -0.2, "c": 0.15, "w": 0.5, "z": 0.2},
               exps={"h": 0.5, "t": 1.5}),
    NumericEnv(q=0.2 + 0.1j, params={"a": -0.5, "b": 0.1 + 0.15j, "c": 0.15, "w": -0.4,
                                     "z": 0.2j}, exps={"h": 1.25 + 0.25j, "t": 2}),
]


@pytest.mark.parametrize("case", NUMERIC_PLAN_CASES)
def test_numeric_plan_matches_plain_sum(case):
    # one summand at two grid points: a plan kept past its own sum call
    # would hand the second point values of the first
    e = parse_expr(NUMERIC_PLAN_CASES[case])
    for env in NUMERIC_PLAN_POINTS:
        assert bits(NumericEvaluator(env).eval(e)) == bits(PlainNumeric(env).eval(e))


def test_numeric_plan_matches_plain_sum_sectioned_roots():
    summand = parse_expr("poch(a; q)_k / poch(q; q)_k * z^k * poch(b; q)_inf")
    env = NUMERIC_PLAN_POINTS[0]
    for r, s in ((2, 1), (3, 0)):
        got = NumericEvaluator(env).sum_sectioned_roots(summand, "k", r, s)
        assert bits(got) == bits(PlainNumeric(env).sum_sectioned_roots(summand, "k", r, s))


def test_numeric_plan_evaluates_a_one_index_factor_once_per_value(monkeypatch):
    e = parse_expr("msum(k1, k2, k3; poch(a; q)_k1 * z^k1 * poch(b; q)_k2 * b^k2"
                   " * poch(w; q)_(k1+k2+k3) * c^k3)")
    factor = next(node for node, _ in walk(e) if isinstance(node, Poch)
                  and free_names(node) & {"k1", "k2", "k3"} == {"k1"})
    seen = []
    eval_node = NumericEvaluator._eval_node

    def counting(self, node, sym, plan):
        if node is factor:
            seen.append(sym["k1"])
        return eval_node(self, node, sym, plan)

    monkeypatch.setattr(NumericEvaluator, "_eval_node", counting)
    NumericEvaluator(NUMERIC_PLAN_POINTS[0]).eval(e)
    assert len(seen) == len(set(seen)) > 5
