import dataclasses
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import settings

# reproducible property runs: the acceptance gate must be deterministic
settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")

from qsv import numeric as num
from qsv.dsl import parse_catalog, parse_expr
from qsv.engine import NumericEnv, eval_numeric
from qsv.expr import INF, Const, Param, Poch, Pow, QPow, child_fields
from qsv.intpoly import IntPoly
from qsv.verifier import default_catalog_path


@pytest.fixture(scope="session")
def catalog_records():
    with open(default_catalog_path(), encoding="utf-8") as fh:
        return parse_catalog(fh.read())


@pytest.fixture(scope="session")
def catalog(catalog_records):
    return {r.id: r for r in catalog_records}


def multibasic_record(m: int) -> str:
    """Catalog text of the multibasic transformation over m indices, in the
    shape of gb-qlauricella-m3 (its m = 3 case), under the id
    multibasic-m<m>."""
    ix = range(1, m + 1)
    params = ", ".join([f"a{i}" for i in ix] + ["b", "w"] + [f"z{i}" for i in ix])
    exps = ", ".join([f"h{i}" for i in ix] + ["t"])
    constraints = ", ".join([f"abs(z{i}) < 1" for i in ix] + ["abs(w) < 1"]
                            + [f"abs(q^h{i}) < 1" for i in ix] + ["abs(q^t) < 1"])
    length = "+".join(f"h{i}*k{i}" for i in ix)
    lhs = " * ".join([f"poch(a{i}; q^h{i})_k{i} / poch(q^h{i}; q^h{i})_k{i}" for i in ix]
                     + [f"poch(w; q^t)_({length}) / poch(b*w; q^t)_({length})"]
                     + [f"z{i}^k{i}" for i in ix])
    rhs = " * ".join(["poch(w; q^t)_inf / poch(b*w; q^t)_inf"]
                     + [f"poch(a{i}*z{i}; q^h{i})_inf / poch(z{i}; q^h{i})_inf" for i in ix])
    body = " * ".join(["poch(b; q^t)_j / poch(q^t; q^t)_j"]
                      + [f"poch(z{i}; q^h{i})_(t*j) / poch(a{i}*z{i}; q^h{i})_(t*j)"
                         for i in ix] + ["w^j"])
    indices = ", ".join(f"k{i}" for i in ix)
    return f"""
identity multibasic-m{m} {{
  anchor "multibasic transformation, {m} indices";
  params {params};
  exps {exps};
  constraints {constraints};
  lhs = msum({indices}; {lhs});
  rhs = {rhs} * sum(j=0..inf; {body});
}}
"""


#: node class -> the fault a site of that class takes
SITE_KINDS = {QPow: "qpow", Pow: "pow", Poch: "len", Const: "const", Param: "param"}


def fundamental_lemma_sides(r: int, s: int):
    """Both sides of Andrews' Fundamental Lemma in its r-section form, at
    p = q = 0.3, a = 0.25, b = 0.15, c = 0.4, z = 0.25, u = 2, v = 1, on
    the numeric evaluator at tolerance 1e-11:

        sum_k (a;q)_{rk+s}/(q;q)_{rk+s} * (b;q)_{uk+v}/(c;q)_{uk+v} * z^k
          = (1/r) sum_{nu<r} w^{-s nu} z^{-s/r} (b;q)_inf/(c;q)_inf
            * sum_j (c/b;q)_j/(q;q)_j * (a x q^{uj/r};q)_inf/(x q^{uj/r};q)_inf
              * (b q^{v-us/r})^j,

    with w = exp(2 pi i/r) and x = w^nu z^{1/r}, a complex parameter value
    of one parsed sum."""
    params, q, u, v, tol = {"a": 0.25, "b": 0.15, "c": 0.4, "z": 0.25}, 0.3, 2, 1, 1e-11
    lhs = eval_numeric(parse_expr(
        f"sum(k=0..inf; poch(a; q)_({r}*k+{s}) / poch(q; q)_({r}*k+{s})"
        f" * poch(b; q)_({u}*k+{v}) / poch(c; q)_({u}*k+{v}) * z^k)"),
        NumericEnv(q=q, params=params, tol=tol))
    inner = parse_expr(
        f"poch(b; q)_inf / poch(c; q)_inf * sum(j=0..inf; poch(c/b; q)_j / poch(q; q)_j"
        f" * poch(a*x*q^({Fraction(u, r)}*j); q)_inf / poch(x*q^({Fraction(u, r)}*j); q)_inf"
        f" * (b*q^({v - Fraction(u * s, r)}))^j)")
    with mpmath.workdps(num.WORK_DPS):
        w, z = mpmath.exp(2j * mpmath.pi / r), mpmath.mpf(params["z"])
        total = 0
        for nu in range(r):
            x = w ** nu * z ** (mpmath.mpf(1) / r)
            total += w ** (-s * nu) * z ** (-mpmath.mpf(s) / r) * eval_numeric(
                inner, NumericEnv(q=q, params={**params, "x": x}, tol=tol))
        return lhs, total / r


def site_kind(node):
    """The fault kind node is a site of, or None: a Pochhammer symbol only
    with a non-zero polynomial length, a constant only when non-zero."""
    kind = SITE_KINDS.get(type(node))
    if kind == "len" and (node.length is INF or node.length.is_zero()):
        return None
    if kind == "const" and node.value == 0:
        return None
    return kind


def perturb_expr(expr, rng: random.Random):
    """Inject exactly one fault: a sign flip or an off-by-one exponent.

    Collects every mutable site, picks one at random, and rebuilds the
    tree around it.
    """
    sites = []

    def collect(node, path):
        kind = site_kind(node)
        if kind is not None:
            sites.append((path, kind))
        for name, child in child_fields(node):
            collect(child, path + (name,))

    collect(expr, ())
    if not sites:
        return None
    path, kind = rng.choice(sites)

    def rebuild(node, path):
        if not path:
            if kind == "qpow":
                return QPow(node.exponent + IntPoly.const(1))
            if kind == "pow":
                return Pow(node.base, node.exponent + IntPoly.const(1))
            if kind == "len":
                return Poch(node.arg, node.base, node.length + IntPoly.const(1))
            if kind == "const":
                return Const(-node.value)
            if kind == "param":
                return Pow(node, IntPoly.const(2))
            raise AssertionError(kind)
        attr, rest = path[0], path[1:]
        return dataclasses.replace(node, **{attr: rebuild(getattr(node, attr), rest)})

    return rebuild(expr, path)


def perturb_record(record, rng: random.Random):
    """Return a copy of the record with one fault injected on one side."""
    for _ in range(20):
        side = rng.choice(["lhs", "rhs"])
        mutated = perturb_expr(getattr(record, side), rng)
        if mutated is not None:
            return dataclasses.replace(record, **{side: mutated})
    return None
