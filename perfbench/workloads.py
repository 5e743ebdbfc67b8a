"""Inputs of each benchmark workload, made from the catalog and a seed.

A job is the catalog text the worker parses plus the list of operations
it runs, each with its known answer.  The seed permutes the operations
and places the known-answer controls (which records get one, and which
k).  Only this module
reads the catalog file; the worker sees the generated text.
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("exact-catalog", "numeric-catalog", "exact-high-order",
             "catalog-lineage")

CATALOG = "src/qsv/catalog/identities.qsv"

#: truncation order of the catalog sweep (the CI sweep's order)
CATALOG_ORDER = 64

#: records that controls are made from on the two catalog sweeps: sums
#: and products that are cheap on both backends (under 0.15 s each on a
#: 2-core x86-64 box), so which of them the seed picks barely moves a
#: pass's wall time
CONTROL_BASES = (
    "gr90-ii.1", "elementary1", "gri-27-r2", "gri-i28", "1.4.10", "1.4.11",
    "1.4.12", "1.4.17", "m-soros", "1.5.1", "gb-1.6.5", "1.6.6",
)

#: a control multiplies the right side by (1 + q^k), k = 1..6: q^6 at
#: q = 0.2 is about 6e-5, far above the numeric tolerance of 1e-9
CONTROL_KS = (1, 2, 3, 4, 5, 6)

#: sum over k of q^((k-20)^2) = 1 + 2q + 2q^4 + ..., which is not 0.  Its
#: terms dip to valuation 0 at k = 20, after more than four terms whose
#: valuation is at least the order, so the exact single-sum stop rule
#: ends the sum before the dip and the false identity passes.
DIP_ID = "dip-square"
DIP = """
identity dip-square {
  anchor "false: a sum whose term valuations dip after a run of high ones";
  lhs = sum(k=0..inf; q^(k*k - 40*k + 400));
  rhs = 0;
}
"""

#: operations whose wrong verdict is an open defect of qsv.  They still
#: count as failed; ``correct`` is false only for failures not listed.
KNOWN_DEFECTS = {
    DIP_ID: "exact single-sum stop rule is a run-length heuristic, "
            "not a proven bound",
}

#: exact-high-order slots: (record, order, size of its default grid).
#: Every grid point runs, as one operation each.  Single points differ in
#: cost up to threefold (gb-heine at order 256: 1.7 to 4.7 s), so a seed
#: that picked points would move the pass's work, not only its order.
HIGH_ORDER = (
    ("gb-heine", 128, 5),
    ("heine-original", 128, 4),
    ("gb-sym-heine", 128, 5),
    ("q-bin", 256, 5),
    ("1.6.6", 256, 1),
    ("1.6.6", 512, 1),
)

#: the high-order control: one grid point, so its cost is fixed
HIGH_ORDER_CONTROL = ("1.6.6", 512)

_BLOCK = re.compile(r"^identity\s+(\S+)\s*\{.*?^\}\n", re.M | re.S)
_RHS = re.compile(r"^\s*rhs\s*=", re.M)
_DIRECT = re.compile(r"^\s*lineage\s+parent=\S+\s+kind=direct\b", re.M)
_NUMERIC_ONLY = re.compile(r"^\s*backend\s+numeric\s*;", re.M)


def split_blocks(text: str) -> dict:
    """Map each identity id to its block of catalog text."""
    return {m.group(1): m.group(0) for m in _BLOCK.finditer(text)}


def control_block(block: str, rid: str, k: int) -> tuple:
    """A false variant of a record: its right side times (1 + q^k), under
    a new id.  Any lineage line is kept, so a derivation check of the
    variant must fail too."""
    m = _RHS.search(block)
    if m is None:
        raise ValueError(f"record {rid!r} has no rhs")
    depth = 0
    for end in range(m.end(), len(block)):
        ch = block[end]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == ";" and depth == 0:
            break
    else:
        raise ValueError(f"record {rid!r}: unterminated rhs")
    cid = f"ctl{k}-{rid}"
    expr = block[m.end():end].strip()
    out = (block[:m.end()] + f" ({expr}) * (1 + q^{k})" + block[end:])
    return cid, out.replace(f"identity {rid} {{", f"identity {cid} {{", 1)


def _controls(rng, blocks, bases, count):
    picked = rng.sample(sorted(bases), count)
    ks = rng.sample(CONTROL_KS, count)
    return [control_block(blocks[rid], rid, k) for rid, k in zip(picked, ks)]


def make_job(workload: str, seed: int, catalog_text: str) -> dict:
    """The catalog text and the seeded operation list of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    blocks = split_blocks(catalog_text)
    extra = []
    ops = []
    if workload in ("exact-catalog", "numeric-catalog"):
        backend = workload.split("-")[0]
        controls = _controls(rng, blocks, CONTROL_BASES, len(CONTROL_KS))
        for rid, block in blocks.items():
            expect = ("error" if backend == "exact"
                      and _NUMERIC_ONLY.search(block) else "pass")
            ops.append({"kind": "record", "id": rid, "expect": expect})
        for cid, block in controls:
            extra.append(block)
            ops.append({"kind": "record", "id": cid, "expect": "mismatch"})
        if backend == "exact":
            extra.append(DIP)
            ops.append({"kind": "record", "id": DIP_ID, "expect": "mismatch"})
        for op in ops:
            op.update(backend=backend, order=CATALOG_ORDER)
    elif workload == "exact-high-order":
        for rid, order, size in HIGH_ORDER:
            for point in range(size):
                ops.append({"kind": "point", "id": rid, "order": order,
                            "point": point, "expect": "pass"})
        rid, order = HIGH_ORDER_CONTROL
        cid, block = control_block(blocks[rid], rid, rng.choice(CONTROL_KS))
        extra.append(block)
        ops.append({"kind": "point", "id": cid, "order": order, "point": 0,
                    "expect": "mismatch"})
    else:
        direct = [rid for rid, block in blocks.items() if _DIRECT.search(block)]
        for rid in direct:
            ops.append({"kind": "derive", "id": rid, "expect": True})
        for cid, block in _controls(rng, blocks, direct, len(CONTROL_KS)):
            extra.append(block)
            ops.append({"kind": "derive", "id": cid, "expect": False})
    rng.shuffle(ops)
    return {"workload": workload, "catalog": catalog_text + "".join(extra),
            "ops": ops}


def verdict_ok(op: dict, verdict) -> bool:
    """Whether an operation's verdict equals its known answer."""
    return verdict == op["expect"]
