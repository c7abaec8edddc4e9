"""Tests of the repository benchmark: workloads, statistics, compare rules,
the tracer's span accounting, BENCHMARK.json, and a smoke run."""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import compare
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _first(workload, count):
    return list(itertools.islice(workload.reads(), count))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_schedule_and_another_seed_changes_it(name):
    first, again, other = (workloads.build(name, seed) for seed in (17, 17, 18))
    assert set(first.graph) == set(again.graph)
    assert _first(first, 300) == _first(again, 300)
    assert _first(first, 300) != _first(other, 300)
    if first.updates is not None:
        take = lambda w: list(itertools.islice(w.updates(), 20))
        assert take(first) == take(again) != take(other)


@pytest.mark.parametrize("name", ["fk-membership", "powerlaw-scan"])
def test_no_mapping_repeats_and_the_pool_runs_out_loudly(name):
    seen = set()
    requests = workloads.build(name, 17).reads()
    with pytest.raises(workloads.PoolExhausted):
        for request in requests:
            if request.op == "check":
                for unit in request.units():
                    assert unit not in seen
                    seen.add(unit)
    assert len(seen) > 5000


def test_social_read_window_replays_what_the_warm_up_sent():
    requests = _first(workloads.build("social-read", 17), 2000)
    warm = {unit for request in requests[: workloads.WARMUP_REQUESTS] for unit in request.units()}
    assert all(unit in warm for request in requests[workloads.WARMUP_REQUESTS :] for unit in request.units())


def test_fk_checks_declare_width_one():
    request = _first(workloads.build("fk-membership", 17), 1)[0]
    assert request.message()["width"] == 1 and len(request.bindings) == 2


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.95) == 95
    assert run.percentile(values, 0.50) == 50
    assert run.percentile(reversed(values), 0.95) == 95
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert run.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_compare_flags_a_worsening_beyond_the_bound():
    base = [10.0, 10.1, 10.2, 10.0, 10.1]
    assert compare.verdict(base, [11.5, 11.6, 11.5, 11.7, 11.6], "lower", 0.10) == "regression"
    assert compare.verdict(base, [10.5, 10.6, 10.5, 10.7, 10.6], "lower", 0.10) == "ok"
    assert compare.verdict(base, [8.5, 8.6, 8.5, 8.7, 8.6], "higher", 0.10) == "regression"


def test_compare_reports_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.spread(noisy) > 0.10
    assert compare.verdict(noisy, [9.0, 11.5, 13.0, 10.0, 12.5], "lower", 0.10) == "unresolved"


def test_compare_resolves_a_noisy_metric_when_every_run_is_better():
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.verdict(noisy, [5.0, 6.0, 7.0, 5.5, 6.5], "lower", 0.10) == "better"
    assert compare.verdict(noisy, [14.0, 16.0, 18.0, 15.0, 17.0], "lower", 0.10) == "regression"


def test_compare_treats_any_error_rate_rise_as_a_regression():
    clean = [{"failed": 0, "attempted": 1000}]
    assert compare.error_verdict(clean, [{"failed": 1, "attempted": 1000}])[2] == "regression"
    assert compare.error_verdict(clean, clean)[2] == "ok"


def test_compare_judges_bounded_metrics_and_only_shows_unbounded_ones():
    def document(throughput, latency, failed):
        runs = [
            {"workload": "w", "attempted": 100, "failed": failed,
             "metrics": {"throughput_rps": {"value": t}, "check_p50_ms": {"value": latency}}}
            for t in throughput
        ]
        metrics = {
            "throughput_rps": {"unit": "req/s", "better": "higher", "bound": 0.25},
            "check_p50_ms": {"unit": "ms", "better": "lower", "bound": None},
            "error_rate": {"unit": "fraction", "better": "lower", "bound": 0.0},
        }
        return {"metrics": metrics, "runs": runs}

    rows = compare.compare(document([100, 101, 99], 1.0, 0), document([60, 61, 59], 9.0, 0))
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"throughput_rps": "regression", "check_p50_ms": "unbounded", "error_rate": "ok"}


def test_tracer_charges_self_time_and_generator_items():
    def inner():
        return sum(range(1000))

    def rows(count):
        for index in range(count):
            yield index

    recorder = tracer.Tracer()
    traced_inner = recorder.wrap("inner", inner)
    traced_rows = recorder.wrap("rows", rows)
    traced_outer = recorder.wrap("outer", lambda: traced_inner() + traced_inner() + sum(traced_rows(5)))
    recorder.recording.set()
    thread = threading.Thread(target=traced_outer, name="repro-service-test")
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    spans = {}
    for sid, name, thread_name, parent, rid, start, end, self_time, items in recorder.spans:
        spans.setdefault(name, []).append((sid, parent, start, end, self_time, items))
    (outer_id, outer_parent, start, end, outer_self, _), = spans["outer"]
    assert outer_parent is None
    assert all(parent == outer_id for _, parent, *_ in spans["inner"] + spans["rows"])
    assert spans["rows"][0][5] == 5
    children = sum(e - s for _, _, s, e, _, _ in spans["inner"]) + spans["rows"][0][4]
    assert outer_self == pytest.approx(end - start - children, abs=1e-4)


def test_layer_metrics_split_queue_wait_from_worker_time():
    spans = [
        {"id": 1, "name": "repro.service.core.PendingResponse.result", "thread": "conn", "parent": None,
         "start": 0.0, "end": 0.010, "self": 0.010, "items": None},
        {"id": 2, "name": "repro.evaluation.session.Session.check_many", "thread": "repro-service-0",
         "parent": None, "start": 0.004, "end": 0.009, "self": 0.003, "items": None},
        {"id": 3, "name": "repro.pebble.kernel.ConsistencyKernel.winner", "thread": "repro-service-0",
         "parent": 2, "start": 0.005, "end": 0.007, "self": 0.002, "items": None},
    ]
    metrics = tracer.layer_metrics(spans, requests=1, answers=2)
    assert metrics["service.queue_ms"] == pytest.approx(5.0)
    assert metrics["session.eval_ms"] == pytest.approx(3.0)
    assert metrics["kernel.solve_ms"] == pytest.approx(2.0)
    assert metrics["kernel.solves_per_req"] == 1.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    as_json = lambda metrics, bounded: [
        {"name": m.name, "unit": m.unit, "better": m.better, **({"bound": m.bound} if bounded else {})}
        for m in metrics
    ]
    assert spec["end_to_end"] == as_json(run.END_TO_END, True)
    assert spec["per_layer"] == as_json(run.PER_LAYER, False)
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][0]["bound"]


@pytest.mark.slow
def test_smoke_run_checks_every_workload():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in run.WORKLOADS:
        for metric in run.END_TO_END:
            assert f"{name}/17/{metric.name}" in result["metrics"]
