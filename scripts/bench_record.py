#!/usr/bin/env python3
"""Append one labelled benchmark entry, measured on one source tree, to a
JSON file of entries.

    python3 scripts/bench_record.py --tree DIR --seed N --label L --out BENCH_6.json

The entry holds:
  * for each of the four workloads, the final JSON line of
    ``DIR/perfbench/run.py --workload W --seed N --seconds 10 --trace 0``
    and the number of passes it ran;
  * order scaling: gb-heine's first default exact grid point verified at
    orders 64, 128, 256 and 512, each in a fresh interpreter on
    ``DIR/src``, with its wall time, status and digests;
  * index scaling: gb-qlauricella-m1, -m2 and -m3 (the multibasic
    theorem with 1, 2 and 3 summation indices) verified over their default
    grids on the numeric backend, and on the exact backend at order 64,
    each in a fresh interpreter on ``DIR/src``, with its wall time and each
    point's status and digests;
  * the seed, the platform, the Python version and the mpmath version.

It checks nothing.  The bounds live in BENCHMARK.json; this file only
keeps the figures that a performance claim rests on.  Alternate the
trees of a comparison (parent, change, parent, ...) so that drift of the
host shows in both.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("exact-catalog", "numeric-catalog", "exact-high-order",
             "catalog-lineage")

SCALING_RECORD = "gb-heine"
SCALING_ORDERS = (64, 128, 256, 512)

INDEX_RECORDS = ("gb-qlauricella-m1", "gb-qlauricella-m2", "gb-qlauricella-m3")

#: truncation order of the exact index scaling (the catalog sweep's order)
INDEX_ORDER = 64

#: run in a fresh interpreter with the tree's src first on the path
_POINT = """
import json, sys, time
from qsv.verifier import default_catalog_path, default_exact_grid, load_catalog_file, verify
record = {r.id: r for r in load_catalog_file(default_catalog_path())}[sys.argv[1]]
point = default_exact_grid(record)[0]
start = time.perf_counter()
report = verify(record, point, backend="exact", order=int(sys.argv[2]))
print(json.dumps({"seconds": time.perf_counter() - start, "status": report.status,
                  "lhs_digest": report.lhs_digest, "rhs_digest": report.rhs_digest}))
"""

#: run like _POINT: every default grid point of one record on one backend
#: (the order is read by the exact backend only)
_GRID = """
import json, sys, time
from qsv.verifier import default_catalog_path, load_catalog_file, verify_record
record = {r.id: r for r in load_catalog_file(default_catalog_path())}[sys.argv[1]]
start = time.perf_counter()
reports = verify_record(record, backend=sys.argv[2], order=int(sys.argv[3]))
print(json.dumps({"seconds": time.perf_counter() - start,
                  "points": [{"status": r.status, "lhs_digest": r.lhs_digest,
                              "rhs_digest": r.rhs_digest} for r in reports]}))
"""


def run_workload(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    passes = re.search(r"samples: (\d+) passes", out)
    return {"passes": int(passes.group(1)) if passes else None,
            "result": json.loads(lines[-1])}


def run_fresh(tree: Path, script: str, *args) -> dict:
    """The JSON line that `script` prints in a fresh interpreter on tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-c", script, *args], cwd=tree, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", required=True, type=Path,
                        help="source tree to measure (holds src/ and perfbench/)")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()

    import mpmath

    entry = {
        "label": args.label,
        "seed": args.seed,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
                        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "platform": platform.platform(),
        "python": sys.version,
        "mpmath": mpmath.__version__,
        "workloads": {},
        "order_scaling": {"record": SCALING_RECORD, "point": 0, "orders": {}},
        "index_scaling": {"backend": "numeric", "grid": "default", "records": {}},
        "exact_index_scaling": {"backend": "exact", "order": INDEX_ORDER,
                                "grid": "default", "records": {}},
    }
    for workload in WORKLOADS:
        entry["workloads"][workload] = result = run_workload(tree, workload, args.seed)
        wall = result["result"]["metrics"]["wall_s"]["value"]
        print(f"{args.label} {workload}: wall_s {wall:.3f}", flush=True)
    for order in SCALING_ORDERS:
        entry["order_scaling"]["orders"][str(order)] = timed = run_fresh(
            tree, _POINT, SCALING_RECORD, str(order))
        print(f"{args.label} {SCALING_RECORD} order {order}: "
              f"{timed['seconds']:.2f} s", flush=True)
    for key, backend in (("index_scaling", "numeric"), ("exact_index_scaling", "exact")):
        for rid in INDEX_RECORDS:
            entry[key]["records"][rid] = timed = run_fresh(
                tree, _GRID, rid, backend, str(INDEX_ORDER))
            print(f"{args.label} {rid} {backend} grid: {timed['seconds']:.2f} s", flush=True)

    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
