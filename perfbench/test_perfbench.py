"""Tests of the benchmark itself: inputs, scoring, failure handling and
the tracer.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

import json
import sys
import time
from pathlib import Path

import pytest

import run
from run import END_TO_END, PER_LAYER, Pass, score, tail
from workloads import (CATALOG, DIP_ID, WORKLOADS, control_block, make_job,
                       split_blocks, verdict_ok)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
TEXT = (ROOT / CATALOG).read_text(encoding="utf-8")


def one_pass(job, verdicts):
    p = Pass(len(job["ops"]))
    p.results = [{"ms": 1.0, "verdict": v, "cause": None} for v in verdicts]
    return p


def test_control_counted_failed_when_it_passes_and_correct_when_it_mismatches():
    job = make_job("exact-catalog", 3, TEXT)
    job["ops"] = [op for op in job["ops"] if op["id"].startswith("ctl")][:1]
    assert job["ops"][0]["expect"] == "mismatch"
    passed = score(job, [one_pass(job, ["pass"])])
    assert (passed["failed"], passed["correct"]) == (1, False)
    mismatched = score(job, [one_pass(job, ["mismatch"])])
    assert (mismatched["failed"], mismatched["correct"]) == (0, True)


def test_known_defect_counts_as_failed_but_keeps_run_correct():
    job = make_job("exact-catalog", 3, TEXT)
    job["ops"] = [op for op in job["ops"] if op["id"] == DIP_ID]
    result = score(job, [one_pass(job, ["pass"])])
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, True)


def test_control_mismatches_on_both_backends():
    from qsv.dsl import parse_catalog
    from qsv.verifier import verify_record

    blocks = split_blocks(TEXT)
    _, block = control_block(blocks["q-bin"], "q-bin", 6)
    record = parse_catalog(block)[0]
    for backend in ("exact", "numeric"):
        statuses = {r.status for r in verify_record(record, backend=backend)}
        assert statuses == {"mismatch"}, backend


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_one_operation_list_and_seeds_differ(workload):
    first = make_job(workload, 7, TEXT)
    assert make_job(workload, 7, TEXT) == first
    other = make_job(workload, 8, TEXT)
    assert [op["id"] for op in other["ops"]] != [op["id"] for op in first["ops"]]


def test_catalog_workloads_cover_every_record():
    blocks = split_blocks(TEXT)
    assert len(blocks) == TEXT.count("\nidentity ") + TEXT.startswith("identity ")
    job = make_job("exact-catalog", 1, TEXT)
    ids = {op["id"] for op in job["ops"]}
    assert set(blocks) <= ids and DIP_ID in ids
    assert sum(op["expect"] == "mismatch" for op in job["ops"]) == 7


def test_worker_exception_is_recorded_and_the_pass_goes_on():
    job = make_job("catalog-lineage", 1, TEXT)
    good = job["ops"][0]
    job["ops"] = [{"kind": "derive", "id": "no-such-id", "expect": True}, good]
    p = run.run_pass(job, time.perf_counter() + 60)
    assert p.results[0]["verdict"] == "exception"
    assert "KeyError" in p.results[0]["cause"]
    assert verdict_ok(good, p.results[1]["verdict"])
    assert p.wall_s is not None and not p.stalled


def test_stalled_run_counts_unfinished_operations_as_failed():
    job = make_job("catalog-lineage", 1, TEXT)
    p = run.run_pass(job, time.perf_counter() + 0.05)
    assert p.stalled
    result = score(job, [p])
    assert result["failed"] == len(job["ops"]) and not result["correct"]


def test_tail_leaves_ten_samples_beyond_it():
    value, pct = tail(list(range(1, 31)))
    assert value == 20 and sum(v > value for v in range(1, 31)) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, *_ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracer_patches_every_binding_site_and_restores_them():
    import qsv.engine
    import qsv.exact
    import qsv.qkernel
    import qsv.verifier
    from tracer import Tracer

    originals = (qsv.engine.series_mul_many, qsv.qkernel.series_mul_binomial,
                 qsv.verifier.eval_exact)
    tracer = Tracer()
    tracer.install()
    try:
        assert qsv.exact.series_mul_many is qsv.engine.series_mul_many
        assert qsv.engine.series_mul_many is not originals[0]
        assert qsv.qkernel.series_mul_binomial is not originals[1]
        assert qsv.verifier.eval_exact is not originals[2]
        from qsv.dsl import parse_catalog
        record = parse_catalog(split_blocks(TEXT)["q-bin"])[0]
        qsv.verifier.verify_record(record, backend="exact", order=16)
    finally:
        tracer.uninstall()
    assert (qsv.engine.series_mul_many, qsv.qkernel.series_mul_binomial,
            qsv.verifier.eval_exact) == originals
    summary = tracer.summary()
    assert summary["calls"]["verifier.verify_record"] == 1
    assert summary["calls"]["engine.eval_exact"] > 0
    assert summary["counters"]["exact.conv_ops"] > 0
    counters = summary["counters"]
    assert counters["verifier.grid_probes"] >= counters["verifier.grid_accepted"]
    assert counters["verifier.grid_accepted"] == counters["verifier.grid_points"] > 0
    # self times cover the root span's time except the tracer's bookkeeping
    total = sum(summary["self_s"].values())
    assert 0.5 * summary["incl_s"]["verifier.verify_record"] < total
    assert total <= summary["incl_s"]["verifier.verify_record"]
