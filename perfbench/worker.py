"""One benchmark pass in a fresh interpreter.

Reads a job (JSON) from standard input, imports qsv, parses the job's
catalog and prints ``{"ready": true}``: the time from start to that line
is the set-up time.  Unless the job is set-up only, it then runs the
operations one after another (a closed loop with one client) and prints
one JSON line per operation as it finishes, then a closing line with the
pass's wall time, peak RSS and, when traced, the per-layer figures.

Any exception an operation raises is caught here, because ``verify``
catches only qsv's own errors; the operation is reported with its cause
and the pass goes on.

Run by ``run.py``; ``PYTHONPATH`` must name the repository's ``src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


#: the protocol stream; anything else printed goes to standard error
OUT = sys.stdout


def emit(obj):
    OUT.write(json.dumps(obj) + "\n")
    OUT.flush()


def status_of(reports) -> str:
    """One verdict for a record: the common status of its reports, or
    ``mixed`` when grid points disagree."""
    statuses = {r.status for r in reports}
    return statuses.pop() if len(statuses) == 1 else "mixed"


def main():
    sys.stdout = sys.stderr
    job = json.loads(sys.stdin.read())
    tracer = None
    if job.get("trace"):
        from tracer import OP_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    from qsv import dsl, verifier

    records = {r.id: r for r in dsl.parse_catalog(job["catalog"])}
    emit({"ready": True})
    if job.get("setup_only"):
        return

    ops = job["ops"]
    points = {}
    if any(op["kind"] == "point" for op in ops):
        # the grid is set-up work: computed before the pass, untraced
        if tracer:
            tracer.uninstall()
        for op in ops:
            if op["kind"] == "point" and op["id"] not in points:
                points[op["id"]] = verifier.default_exact_grid(records[op["id"]])
        if tracer:
            tracer.install()

    def run(op):
        record = records[op["id"]]
        if op["kind"] == "record":
            return status_of(verifier.verify_record(
                record, backend=op["backend"], order=op["order"]))
        if op["kind"] == "point":
            point = points[op["id"]][op["point"]]
            return verifier.verify(record, point, backend="exact",
                                   order=op["order"]).status
        return verifier.derive_check(record, records)

    pass_start = time.perf_counter()
    for i, op in enumerate(ops):
        cause = None
        start = time.perf_counter()
        try:
            if tracer:
                tracer.op = i
                verdict = tracer.span(OP_SPAN, run, op)
            else:
                verdict = run(op)
        except Exception as exc:  # noqa: BLE001  (recorded, pass goes on)
            verdict = "exception"
            cause = f"{type(exc).__name__}: {exc}"[:300]
        emit({"i": i, "ms": (time.perf_counter() - start) * 1000.0,
              "verdict": verdict, "cause": cause})
    done = {"done": True, "wall_s": time.perf_counter() - pass_start,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        done["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    emit(done)


if __name__ == "__main__":
    main()
