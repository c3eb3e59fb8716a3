"""Tests of the benchmark harness itself; run with

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from facebench import layers, speed, stats, trace
from facelab import archive, cli, eigenfaces, fisherfaces, hmm1d, numerics
import facelab

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 100, 1000, 1234, 10000])
def test_tail_value_has_at_least_ten_samples_beyond(n):
    values = [float(v) for v in np.random.default_rng(n).permutation(n)]
    pct = stats.tail_percentile(n)
    cut = stats.percentile(values, pct)
    assert sum(v > cut for v in values) >= 10
    assert sum(v <= cut for v in values) * 10000 >= round(pct * 100) * n


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 1001)]
    assert stats.percentile(values, 50) == 500.0
    assert stats.percentile(values, 99) == 990.0
    assert stats.percentile([3.0], 99) == 3.0


# -- busy and self time ------------------------------------------------------

def _span(name, start, end, parent):
    return trace.Span(name, start, end, parent, "r")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, None),
        _span("b", 1.0, 4.0, 0),
        _span("c", 5.0, 9.0, 0),
        _span("d", 6.0, 7.0, 2),
    ]
    got = trace.layer_stats(spans, ["a", "b", "c", "d"])
    assert got["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert got["b"] == {"calls": 1, "busy_s": 3.0, "self_s": 3.0}
    assert got["c"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}
    assert got["d"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_recursive_calls_are_not_counted_twice_in_busy_time():
    spans = [_span("f", 0.0, 8.0, None), _span("f", 2.0, 5.0, 0), _span("f", 10.0, 11.0, None)]
    got = trace.layer_stats(spans, ["f"])["f"]
    assert got["calls"] == 3
    assert got["busy_s"] == 9.0
    assert got["self_s"] == 9.0


def test_keep_filters_spans_by_request():
    spans = [trace.Span("f", 0.0, 2.0, None, "x"), trace.Span("f", 3.0, 4.0, None, "y")]
    got = trace.layer_stats(spans, ["f"], keep=lambda s: s.request == "y")["f"]
    assert got == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


# -- wrapper installation ----------------------------------------------------

def test_wrappers_cover_every_namespace_that_bound_the_function():
    original_sym = numerics.sym_eigen
    original_load = archive.load_model
    recorder = trace.Recorder()
    with trace.installed(recorder, ["numerics.sym_eigen", "archive.load_model"]):
        for module in (numerics, eigenfaces, fisherfaces, hmm1d):
            assert module.sym_eigen is not original_sym
            assert module.sym_eigen.__wrapped__ is original_sym
        for module in (archive, cli, facelab):
            assert module.load_model.__wrapped__ is original_load
    for module in (numerics, eigenfaces, fisherfaces, hmm1d):
        assert module.sym_eigen is original_sym
    for module in (archive, cli, facelab):
        assert module.load_model is original_load


def test_bindings_are_restored_when_the_body_raises():
    original = hmm1d.loglik
    with pytest.raises(ZeroDivisionError):
        with trace.installed(trace.Recorder(), ["hmm1d.loglik"]):
            1 / 0
    assert hmm1d.loglik is original


def test_calls_through_a_by_name_import_are_recorded_with_their_parent():
    rng = np.random.default_rng(0)
    samples = [(f"s{i % 3}", rng.normal(size=16)) for i in range(9)]
    recorder = trace.Recorder()
    with trace.installed(recorder, ["eigenfaces.train_eigen", "numerics.sym_eigen"]):
        recorder.begin("train")
        eigenfaces.train_eigen(samples, 4, (4, 4))
    spans = recorder.finished()
    names = [s.name for s in spans]
    assert names == ["eigenfaces.train_eigen", "numerics.sym_eigen"]
    assert spans[1].parent == 0 and spans[0].parent is None
    assert {s.request for s in spans} == {"train"}


def test_request_spans_number_the_probes():
    recorder = trace.Recorder()
    fn = recorder.wrap("bench.predict", lambda x: x)
    recorder.begin("evaluate:eigen")
    fn(1)
    fn(2)
    assert [s.request for s in recorder.finished()] == ["evaluate:eigen/0", "evaluate:eigen/1"]
    assert recorder.request == "evaluate:eigen"


# -- host-speed correction ----------------------------------------------------

def _gauge(runs):
    gauge = speed.Gauge(warmup=0)
    gauge.merge(runs)
    return gauge


def test_own_time_leaves_out_kernel_runs_inside_the_interval():
    gauge = _gauge([(0.0, 0.1), (1.0, 1.2), (2.0, 2.1), (5.0, 5.1)])
    assert gauge.own((0.1, 2.0)) == pytest.approx(1.7)
    assert gauge.own((0.1, 5.0)) == pytest.approx(4.6)


def test_scaled_uses_the_runs_inside_and_on_either_side():
    ref = speed.REF_SECONDS
    gauge = _gauge([(0.0, ref), (1.0, 1.0 + 3 * ref), (2.0, 2.0 + 2 * ref), (9.0, 9.0 + ref)])
    # inside: the 3*ref run; around: the ref run before and the 2*ref run after
    assert gauge.scaled((0.5, 1.9)) == pytest.approx((1.4 - 3 * ref) / 2)
    # no run inside: the runs on either side (2*ref and ref) set the factor
    assert gauge.scaled((2.5, 8.5)) == pytest.approx(6.0 / 1.5)


def test_hooks_run_the_kernel_at_most_once_per_interval(monkeypatch):
    gauge = speed.Gauge(warmup=0)
    clock = iter([0.0, 0.01, 0.5, 1.1, 1.1, 1.11])
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(speed, "kernel", lambda: None)
    calls = []
    hooked = gauge.wrap("x.f", calls.append)
    for i in range(3):
        hooked(i)
    assert calls == [0, 1, 2]
    assert gauge.runs == [(0.0, 0.01), (1.1, 1.11)]


def test_hooks_are_installed_and_removed_like_trace_wrappers():
    original = archive.load_model
    with trace.installed(speed.Gauge(warmup=0), ["archive.load_model"]):
        assert cli.load_model.__wrapped__ is original
    assert cli.load_model is original


# -- BENCHMARK.json and the smoke run -----------------------------------------

def test_benchmark_json_lists_what_the_harness_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == layers.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == ["train", "evaluate", "dispatch"]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "fast_ms", "mid_ms", "slow_ms"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_run_of_every_workload(traced):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--scale", "smoke",
         "--seed", "0", "--seconds", "0.5", "--trace", str(traced)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    if traced:
        for workload in ("train", "evaluate", "dispatch"):
            for name, _ in layers.per_layer_metrics():
                assert f"{workload}.{name}" in metrics
        assert metrics["train.archive.load_model.calls"]["value"] == 0
        assert metrics["train.archive.save_model.calls"]["value"] == 3
        for route in layers.ROUTES:
            assert metrics[f"dispatch.dispatcher.route.{route}"]["value"] > 0
    else:
        for name in ("train.train_s", "evaluate.evaluate_hmm_s", "dispatch.dispatch_p99_ms",
                     "dispatch.recognize_cli_ms", "evaluate.peak_rss_mb"):
            assert metrics[name]["value"] > 0


def test_fails_without_printing_a_result_where_facelab_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
