#!/usr/bin/env python3
"""qsv benchmark: time to verdict on four workloads, and a traced run
that splits the time by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-catalog --seed 1 \
        --seconds 10 --trace 0

Each pass runs in a fresh interpreter (``worker.py``), so qsv's prefix
caches start cold as they do for ``qsv check-all``.  One pass runs at a
time and issues each operation when the previous one returns: a closed
loop with one client.  Passes repeat until ``--seconds`` is used up
(at least one), then set-up-only interpreters run until there are
SETUP_SAMPLES set-up times.  Every verdict is checked against the
known answer of its input.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  Human-
readable lines come first; the last line is one JSON object.  See
DESIGN.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import CATALOG, KNOWN_DEFECTS, WORKLOADS, make_job, verdict_ok  # noqa: E402

#: a run ends by then, its unfinished operations counted as failed, so
#: that it exits well within three minutes even if qsv stalls
RUN_LIMIT_S = 165.0

SETUP_SAMPLES = 5

#: samples a tail percentile must leave beyond it
TAIL_SAMPLES = 10

#: per-layer metrics: (name, unit, source, key).  Sources read one traced
#: pass's summary: calls/self_s/incl_s of a span name, or a counter.
PER_LAYER = (
    ("exact.mul_many_calls", "count", "calls", "exact.mul_many"),
    ("exact.mul_many_s", "s", "self_s", "exact.mul_many"),
    ("exact.mul_calls", "count", "calls", "exact.mul"),
    ("exact.mul_s", "s", "self_s", "exact.mul"),
    ("exact.binomial_calls", "count", "calls", "exact.binomial"),
    ("exact.binomial_s", "s", "self_s", "exact.binomial"),
    ("exact.inv_calls", "count", "calls", "exact.inv"),
    ("exact.inv_s", "s", "self_s", "exact.inv"),
    ("exact.conv_ops", "count", "counter", "exact.conv_ops"),
    ("exact.coeff_bits_max", "bits", "counter", "exact.coeff_bits_max"),
    ("exact.self_s", "s", "layer", "exact"),
    ("qkernel.poch_finite_calls", "count", "calls", "qkernel.poch_finite"),
    ("qkernel.poch_finite_s", "s", "self_s", "qkernel.poch_finite"),
    ("qkernel.poch_infinite_calls", "count", "calls", "qkernel.poch_infinite"),
    ("qkernel.poch_infinite_s", "s", "self_s", "qkernel.poch_infinite"),
    ("qkernel.theta_calls", "count", "calls", "qkernel.theta"),
    ("qkernel.self_s", "s", "layer", "qkernel"),
    ("intpoly.eval_int_calls", "count", "calls", "intpoly.eval_int"),
    ("intpoly.eval_int_s", "s", "self_s", "intpoly.eval_int"),
    ("intpoly.eval_calls", "count", "calls", "intpoly.eval"),
    ("intpoly.eval_s", "s", "self_s", "intpoly.eval"),
    ("intpoly.self_s", "s", "layer", "intpoly"),
    ("engine.eval_exact_calls", "count", "calls", "engine.eval_exact"),
    ("engine.eval_exact_s", "s", "self_s", "engine.eval_exact"),
    ("engine.eval_numeric_calls", "count", "calls", "engine.eval_numeric"),
    ("engine.eval_numeric_s", "s", "self_s", "engine.eval_numeric"),
    ("engine.numeric_term_s", "s", "self_s", "engine.numeric_term"),
    ("engine.val_lb_calls", "count", "counter", "engine.val_lb_calls"),
    ("engine.monomial_calls", "count", "counter", "engine.monomial_calls"),
    ("engine.self_s", "s", "layer", "engine"),
    ("numeric.qpoch_inf_calls", "count", "calls", "numeric.qpoch_inf"),
    ("numeric.qpoch_inf_s", "s", "self_s", "numeric.qpoch_inf"),
    ("numeric.qpoch_finite_calls", "count", "calls", "numeric.qpoch_finite"),
    ("numeric.qpoch_finite_s", "s", "self_s", "numeric.qpoch_finite"),
    ("numeric.cpow_calls", "count", "calls", "numeric.cpow"),
    ("numeric.cpow_s", "s", "self_s", "numeric.cpow"),
    ("numeric.sum_calls", "count", "calls", "numeric.sum"),
    ("numeric.sum_terms", "count", "calls", "engine.numeric_term"),
    ("numeric.sum_s", "s", "self_s", "numeric.sum"),
    ("numeric.self_s", "s", "layer", "numeric"),
    ("verifier.grid_s", "s", "self_s", "verifier.grid"),
    ("verifier.grid_incl_s", "s", "incl_s", "verifier.grid"),
    ("verifier.grid_probes", "count", "counter", "verifier.grid_probes"),
    ("verifier.grid_points", "count", "counter", "verifier.grid_points"),
    ("verifier.grid_accept_ratio", "ratio", "grid_accept", None),
    ("verifier.verify_calls", "count", "calls", "verifier.verify"),
    ("verifier.self_s", "s", "layer", "verifier"),
    ("dsl.parse_s", "s", "self_s", "dsl.parse"),
    ("dsl.records", "count", "counter", "dsl.records"),
    ("dsl.self_s", "s", "layer", "dsl"),
    ("expr.canon_calls", "count", "calls", "expr.canon"),
    ("expr.canon_s", "s", "self_s", "expr.canon"),
    ("expr.substitute_calls", "count", "calls", "expr.substitute"),
    ("expr.substitute_s", "s", "self_s", "expr.substitute"),
    ("expr.self_s", "s", "layer", "expr"),
    ("bench.op_self_s", "s", "self_s", "bench.op"),
    ("trace.overhead_ratio", "ratio", "overhead", None),
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("record_p50_ms", "ms"),
    ("record_tail_ms", "ms"),
    ("correct_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class Pass:
    """What one pass (possibly over several worker processes) produced."""

    def __init__(self, n_ops):
        self.results = [None] * n_ops   # per op: {"ms", "verdict", "cause"}
        self.setup_s = None
        self.wall_s = None
        self.rss_kb = None
        self.trace = None
        self.elapsed_s = 0.0
        self.stalled = False


def _spawn(job: dict, deadline: float, on_line) -> tuple:
    """Run one worker on ``job`` until it exits or the deadline passes.
    Returns (exit code or None if killed, seconds until ready or None)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=str(ROOT), env=env)
    ready = None
    try:
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker died at start; its exit code tells the rest
        fd = proc.stdout.fileno()
        buf = b""
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                return None, ready
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                msg = json.loads(line)
                if msg.get("ready"):
                    ready = time.perf_counter() - start
                else:
                    on_line(msg)
        return proc.wait(), ready
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_pass(job: dict, deadline: float, trace: bool = False,
             spans_path: str | None = None) -> Pass:
    """One pass over the job's operations.  A worker that dies loses only
    the operation it was running; the rest go on in a new worker."""
    ops = job["ops"]
    p = Pass(len(ops))
    t0 = time.perf_counter()
    first = 0
    while first < len(ops):
        sub = dict(job, ops=ops[first:], trace=trace, spans_path=spans_path)
        offset = first

        def on_line(msg):
            if "i" in msg:
                p.results[offset + msg["i"]] = msg
            elif msg.get("done"):
                p.wall_s, p.rss_kb = msg["wall_s"], msg["rss_kb"]
                p.trace = msg.get("trace")

        code, ready = _spawn(sub, deadline, on_line)
        if p.setup_s is None:
            p.setup_s = ready
        if code is None:
            p.stalled = True
            break
        first = next((i for i in range(first, len(ops))
                      if p.results[i] is None), len(ops))
        if first < len(ops):
            p.results[first] = {"ms": None, "verdict": "crash",
                                "cause": f"worker exited with code {code}"}
            p.wall_s = None
            first += 1
    for i, r in enumerate(p.results):
        if r is None:
            p.results[i] = {"ms": None, "verdict": "unfinished",
                            "cause": "run time limit reached"}
    p.elapsed_s = time.perf_counter() - t0
    return p


def setup_only(job: dict, deadline: float):
    _, ready = _spawn(dict(job, ops=[], setup_only=True), deadline,
                      lambda msg: None)
    return ready


def tail(values: list) -> tuple:
    """The highest percentile that leaves TAIL_SAMPLES samples beyond it:
    (value, percentile)."""
    xs = sorted(values)
    k = max(len(xs) - TAIL_SAMPLES - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def score(job: dict, passes: list) -> dict:
    """Check every verdict against its known answer."""
    attempted = failed = 0
    unexpected = []
    for p in passes:
        for op, r in zip(job["ops"], p.results):
            attempted += 1
            if not verdict_ok(op, r["verdict"]):
                failed += 1
                known = op["id"] in KNOWN_DEFECTS
                if not known:
                    unexpected.append((op, r))
                print(f"  failed: {op['id']} expected {op['expect']} got "
                      f"{r['verdict']}"
                      + (f" ({r['cause']})" if r["cause"] else "")
                      + (f" [known defect: {KNOWN_DEFECTS[op['id']]}]"
                         if known else ""))
    return {"attempted": attempted, "failed": failed,
            "correct": not unexpected}


def end_to_end(job, passes, setups) -> dict:
    ms = [r["ms"] for p in passes for r in p.results if r["ms"] is not None]
    walls = [p.wall_s if p.wall_s is not None else p.elapsed_s for p in passes]
    rss = [p.rss_kb / 1024.0 for p in passes if p.rss_kb is not None]
    sc = score(job, passes)
    tail_ms, pct = tail(ms) if ms else (0.0, 0.0)
    values = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(walls),
        "record_p50_ms": statistics.median(ms) if ms else 0.0,
        "record_tail_ms": tail_ms,
        "correct_ratio": (sc["attempted"] - sc["failed"]) / sc["attempted"],
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }
    print(f"  samples: {len(passes)} passes, {len(ms)} operations, "
          f"{len(setups)} set-ups; record_tail_ms is p{pct:.1f}")
    return sc, {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer figures of the traced passes, averaged per pass."""
    n = len(traced)
    summaries = [p.trace for p in traced]

    def total(section, key):
        return sum(s[section].get(key, 0) for s in summaries) / n

    def layer_self(layer):
        return sum(v for s in summaries for k, v in s["self_s"].items()
                   if k.split(".", 1)[0] == layer) / n

    probes = total("counters", "verifier.grid_probes")
    kept = total("counters", "verifier.grid_accepted")
    t_wall = statistics.median(p.wall_s for p in traced)
    u_wall = statistics.median(p.wall_s for p in untraced)
    values = {}
    for name, unit, source, key in PER_LAYER:
        if source in ("calls", "self_s", "incl_s"):
            v = total(source, key)
        elif source == "counter":
            v = (max(s["counters"].get(key, 0) for s in summaries)
                 if key.endswith("_max") else total("counters", key))
        elif source == "layer":
            v = layer_self(key)
        elif source == "grid_accept":
            v = kept / probes if probes else 0.0
        else:
            v = t_wall / u_wall
        values[name] = (v, unit)
    print(f"  samples: {n} traced and {len(untraced)} untraced passes; "
          f"{sum(s['spans'] for s in summaries)} spans kept, "
          f"{sum(s['dropped'] for s in summaries)} dropped")
    return values


def machine() -> str:
    import mpmath  # the interpreter's own; qsv's dependency

    return (f"CPython {platform.python_version()}, mpmath {mpmath.__version__} "
            f"(backend {mpmath.libmp.BACKEND}), nproc {os.cpu_count()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    catalog = ROOT / CATALOG
    if not (ROOT / "src" / "qsv" / "__init__.py").is_file() or not catalog.is_file():
        print(f"error: no qsv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    job = make_job(args.workload, args.seed,
                   catalog.read_text(encoding="utf-8"))
    print(f"{args.workload} seed {args.seed}: {len(job['ops'])} operations "
          f"per pass; {machine()}")

    passes, traced = [], []
    spans = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}.spans.json"
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    while True:
        # a traced run alternates which of its pair runs first
        order = (True, False) if len(traced) % 2 else (False, True)
        for trace in (order if args.trace else (False,)):
            if trace:
                traced.append(run_pass(job, deadline, trace=True,
                                       spans_path=None if traced else str(spans)))
            else:
                passes.append(run_pass(job, deadline))
        last = passes[-1].elapsed_s + (traced[-1].elapsed_s if traced else 0.0)
        now = time.perf_counter()
        if (any(p.stalled for p in passes + traced)
                or now - t0 + last > args.seconds or now + last > deadline):
            break

    if args.trace:
        sc = score(job, passes + traced)
        complete = [p for p in traced if p.trace is not None]
        plain = [p for p in passes if p.wall_s is not None]
        if complete and plain:
            metrics = per_layer(complete, plain)
        else:  # a stall: its operations already count as failed
            metrics = {name: (0.0, unit) for name, unit, *_ in PER_LAYER}
    else:
        setups = [p.setup_s for p in passes if p.setup_s is not None]
        while len(setups) < SETUP_SAMPLES and time.perf_counter() + 5 < deadline:
            ready = setup_only(job, deadline)
            if ready is None:
                break
            setups.append(ready)
        sc, metrics = end_to_end(job, passes, setups)

    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": sc["correct"],
        "attempted": sc["attempted"],
        "failed": sc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
