import dataclasses
import random

import pytest
from hypothesis import settings

# reproducible property runs: the acceptance gate must be deterministic
settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")

from qsv.dsl import parse_catalog
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


#: node class -> the fault a site of that class takes
SITE_KINDS = {QPow: "qpow", Pow: "pow", Poch: "len", Const: "const", Param: "param"}


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
