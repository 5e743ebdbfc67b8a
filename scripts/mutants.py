#!/usr/bin/env python3
"""Check that the tests under tests/ kill one-token mutants of the exact
backend's proven rules.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py M1 M6      # the named ones

Each mutant changes one rule site: where a sum stops, which term it
skips, which Pochhammer factor it steps, which coefficients a shift may
drop, how far a running series is cut, which infinite product becomes a
chain, or where a term is added into its sum.  For each one the script
copies src/ and tests/ to a temporary directory, applies the change
there, runs ``pytest -x -q tests`` on the copy and prints ``killed``
(with the first failing test) or ``survived``, and the time taken.  The
working tree is never edited.  It exits 1 when a mutant survives.  A full
pass takes a few minutes: it is a check for a change that touches these
sites, not a test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, file under src/qsv, text, replacement, what the change does);
#: each text occurs exactly once in its file
MUTANTS = [
    ("M1", "engine.py", "if k > K[j]:", "if k >= K[j]:",
     "SumPlan.points stops an index one value early"),
    ("M2", "intpoly.py", "math.floor(1 + max(", "math.floor(max(",
     "increasing_from drops the 1 + of Cauchy's bound"),
    ("M3", "engine.py", "tuple(p - d[0] for p in a)", "tuple(p for p in a)",
     "_bound's Div ignores the denominator's valuation"),
    ("M4", "engine.py", "b[0].const_value() > 0", "b[0].const_value() >= 0",
     "_nonzero takes a guard that can be 0 as proven nonzero"),
    ("M5", "engine.py", "if e >= order:", "if e >= order - 1:",
     "SumPlan._move skips the last factor below the order"),
    ("M6", "exact.py", "any(f.nums[:-m])", "any(f.nums[:-m - 1])",
     "series_shift drops a negative shift's last coefficient unchecked"),
    ("M7", "engine.py", "range(first, max(first, rises[level] + 1) + 1)",
     "range(first, first + 1)",
     "SumPlan._precision takes the level's minimum at the current term only"),
    ("M8", "engine.py", "first = values[level]", "first = values[level] + 1",
     "SumPlan._precision starts the level's range one value late"),
    ("M9", "engine.py", "c.denominator != 1", "c.denominator < 1",
     "SumPlan._moving_product takes a chain length that h does not divide"),
    ("M10", "engine.py", "term.nums.index(next(filter(None, term.nums), 0))",
     "term.nums.index(next(filter(None, term.nums), 0)) + 1",
     "_eval_sum adds each term from one past its valuation"),
]


def mutate(tree: Path, filename: str, text: str, replacement: str):
    path = tree / "src" / "qsv" / filename
    source = path.read_text(encoding="utf-8")
    if source.count(text) != 1:
        raise SystemExit(f"{filename}: {text!r} occurs {source.count(text)} times, not once")
    path.write_text(source.replace(text, replacement), encoding="utf-8")


def run_mutant(filename, text, replacement):
    """(killed, the first failing test or '', seconds)."""
    with tempfile.TemporaryDirectory(prefix="qsv-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        mutate(tree, filename, text, replacement)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - t0
    failed = next((line.split(" - ")[0] for line in done.stdout.splitlines()
                   if line.startswith(("FAILED", "ERROR"))), "")
    return done.returncode != 0, failed, seconds


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    survivors = 0
    for name, filename, text, replacement, what in chosen:
        killed, failed, seconds = run_mutant(filename, text, replacement)
        survivors += not killed
        verdict = f"killed   {failed}" if killed else "survived"
        print(f"{name}  {seconds:6.1f} s  {verdict}  ({what})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
