#!/usr/bin/env python3
"""Check that the tests under tests/ kill one-token mutants of the exact
backend's proven rules, of the numeric infinite product's stop count and
of how a complex Pochhammer length is classified.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py M1 M6      # the named ones

Each mutant changes one rule site: where a sum or an infinite product
stops, which term it skips, which Pochhammer factor it steps, which
coefficients a shift may drop, how far a running series is cut, which
infinite product becomes a chain, where a term is added into its sum,
what bound a power of zero gets, when a guard lets a term be skipped,
when a product is zero, or which power path a length takes.
For each one the script copies src/, tests/ and perfbench/ (a test reads
its tracer) to a temporary directory, applies the change there, runs
``pytest -x -q tests`` on the copy and prints ``killed`` (with the node
id of the first failing test) or ``survived``, and the time taken.  The
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
    ("M11", "engine.py", "if sum(lows) >= need:", "if sum(lows) >= need - 1:",
     "SumPlan.points drops a row one short of its threshold at every term"),
    ("M12", "qkernel.py", "below = max(-(-(order - x.qpow) // h), 0)",
     "below = max((order - x.qpow) // h, 0)",
     "qkernel._poch counts the factors below the order rounding down"),
    ("M13", "exact.py", "if e >= n or not c:", "if e >= n - 1 or not c:",
     "series_apply_binomials skips a factor at the last power below the order"),
    ("M14", "engine.py", "        if reduced <= 0:", "        if reduced <= 1:",
     "_product takes a product whose monomial is q^(N-1) as zero"),
    ("M15", "engine.py", "h + rest[j] >= need for h", "h + rest[j] >= need - 1 for h",
     "SumPlan.points skips a prefix one short of a threshold"),
    ("M16", "engine.py", "            lows = [min(_horner(f, k) for k in range(r + 2))",
     "            lows = [min(_horner(f, k) for k in range(max(r + 1, 1)))",
     "SumPlan.points' lows leave K + 1 out of each part's window"),
    ("M17", "engine.py", "return (ZERO,) if fixed is None", "return () if fixed is None",
     "_bound takes 0^n as zero where n may be 0"),
    ("M18", "engine.py", '(g, 1, "guard")', '(g, 0, "guard")',
     "SumPlan.points skips a term whose guard is 0"),
    ("M19", "engine.py", "self.const0(node, idxenv) not in (None, 0)",
     "self.const0(node, idxenv) not in (None,)",
     "_product takes a product as zero past the order over a vanishing denominator"),
    ("M20", "engine.py", "dict.fromkeys(p * n for p in b)", "dict.fromkeys(p for p in b)",
     "_bound's Pow keeps the base's valuation, unscaled by the power"),
    ("M21", "numeric.py", "while r > 0 and not above(r - 1):",
     "while r > 0 and not above(r):",
     "_stop_count stops an infinite product one factor early"),
    ("M22", "numeric.py", "log_qbase) if n is None", "log_qbase) if n is not None",
     "complex_index raises q to a length next to a negative integer by exp/log"),
]

#: a pytest plugin, written into the copy, that appends the node id of
#: each failed test or collection to failed.txt
REPORTER = """def pytest_runtest_logreport(report):
    if report.failed:
        with open("failed.txt", "a", encoding="utf-8") as fh:
            fh.write(report.nodeid + "\\n")


pytest_collectreport = pytest_runtest_logreport
"""


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
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        mutate(tree, filename, text, replacement)
        (tree / "mutant_reporter.py").write_text(REPORTER, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree)]),
               "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-p", "mutant_reporter", "tests"],
            cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - t0
        report = tree / "failed.txt"
        failed = report.read_text(encoding="utf-8").split("\n")[0] if report.exists() else ""
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
