"""The train, evaluate and dispatch workloads: set-up, timed passes, checks, metrics.

One process, closed loop, one request at a time. Set-up runs in a child
process (prepare.py) so that the run's peak RSS is the timed part's own.
Untraced runs give the end-to-end metrics; a traced run times one untraced
and one traced unit of every phase and reports the per-layer metrics.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from facelab import archive, cli, dataset, dispatcher
from facelab.dataset import SplitSpec, flatten, write_pgm

from . import data, layers, speed, stats, trace

BENCH_DIR = Path(__file__).resolve().parent.parent
METHODS = dispatcher.METHODS
SETUP_TIMEOUT_S = 150  # subprocess.run kills and reaps the child when this expires
COLD_PROBES = 4  # distinct probe files the cold recognize calls cycle through

# Wrong predictions among the 200 test probes at orl scale, as facelab 0.1.0
# gives them. Accuracy must not drift silently at these seeds.
PINNED_ERRORS = {
    0: {"eigen": 0, "fisher": 0, "hmm": 10},
    1: {"eigen": 0, "fisher": 0, "hmm": 30},
}


class BenchmarkError(RuntimeError):
    """The run cannot measure what it is meant to; it ends without a result."""


@dataclass(frozen=True)
class Phase:
    request: str  # the phase's name, and the request id of its spans
    unit: Callable[[], float]  # one timed unit; returns its wall seconds less kernel runs


@dataclass
class Run:
    workload: str
    seed: int
    mix_seed: int
    seconds: float
    scale_name: str
    traced: bool
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    recorder: trace.Recorder | None = None
    gauge: speed.Gauge = field(default_factory=speed.Gauge)

    @property
    def scale(self) -> data.Scale:
        return data.SCALES[self.scale_name]

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed one is also a problem."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def cli(self, argv: list[str]) -> tuple[int | None, str, tuple[float, float]]:
        """facelab's CLI in-process: (exit code, stdout, (start, end) wall times)."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # an escaped traceback is a failed operation, not a crash
                err.write(traceback.format_exc())
            end = time.perf_counter()
        self.op(rc == 0, f"facelab {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return rc, out.getvalue(), (start, end)

    def corrected(self, intervals: list[tuple[float, float]]) -> float:
        """The median host-speed-corrected seconds of some wall intervals."""
        return statistics.median(self.gauge.scaled(iv) for iv in intervals)


class Workload:
    name = ""
    trains_in_setup = True
    # set-ups per run, setup_s being their median; two where set-up trains,
    # so that seventy runs of the three workloads fit in an hour on 2 cores
    setup_repeats = 2
    setup_covers = ""
    # detail metrics that fill the fast_ms, mid_ms and slow_ms slots
    slots: tuple[str, str, str] = ("", "", "")

    def __init__(self, run: Run):
        self.run = run
        self.data_dir = run.work / "data"
        self.models = run.work / "models"
        self.digests: dict[str, set[str]] = {}

    @property
    def labels(self) -> set[str]:
        return {p.name for p in self.data_dir.iterdir() if p.is_dir()}

    def setup(self) -> tuple[float, float]:
        """One set-up repetition from an empty work directory; returns its wall interval."""
        shutil.rmtree(self.run.work, ignore_errors=True)
        self.run.work.mkdir(parents=True)
        ticks = self.run.work.parent / f"{self.run.work.name}.kernel.json"
        cmd = [sys.executable, str(BENCH_DIR / "prepare.py"), "--out", str(self.run.work),
               "--seed", str(self.run.seed), "--scale", self.run.scale_name,
               "--kernel-runs", str(ticks)]
        if self.trains_in_setup:
            cmd.append("--train")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        self.run.gauge.merge(json.loads(ticks.read_text(encoding="utf-8")))
        ticks.unlink()
        self.after_prepare()
        return start, time.perf_counter()

    def after_prepare(self) -> None:
        pass

    def digest(self, name: str, path: Path) -> None:
        self.digests.setdefault(name, set()).add(hashlib.sha256(path.read_bytes()).hexdigest())

    def check_digests(self) -> dict[str, str]:
        """Each output must be byte-identical across the run's repetitions."""
        out = {}
        for name, seen in sorted(self.digests.items()):
            self.run.check(len(seen) == 1, f"{name} differs between repetitions")
            out[name] = sorted(seen)[0]
        return out

    def phases(self) -> list[Phase]:
        raise NotImplementedError

    def finish(self) -> dict[str, tuple[float, str]]:
        """Output checks after the timed part; returns the detail metrics."""
        raise NotImplementedError


class Train(Workload):
    name = "train"
    trains_in_setup = False
    setup_repeats = 3
    setup_covers = "generate the dataset tree"
    slots = ("train_s", "train_s", "train_s")

    def __init__(self, run: Run):
        super().__init__(run)
        self.times: list[tuple[float, float]] = []

    def phases(self) -> list[Phase]:
        return [Phase("train", self.train_once)]

    def train_once(self) -> float:
        rc, out, (start, end) = self.run.cli([
            "train", "--method", "all", "--dataset", str(self.data_dir),
            "--out", str(self.models), "--split", data.split_arg(self.run.seed)])
        self.times.append((start, end))
        if rc == 0:
            for name in ("eigen.ffm", "fisher.ffm", "hmm.ffm", "policy.cfg"):
                self.digest(name, self.models / name)
        return self.run.gauge.own((start, end))

    def finish(self) -> dict[str, tuple[float, str]]:
        labels = self.labels
        for method in METHODS:
            path = self.models / f"{method}.ffm"
            try:
                model = archive.load_model(path)
                ok = archive.method_of(model) == method and set(model.labels) == labels
                why = "is not a model of that method over the dataset labels"
            except Exception as exc:  # any failure to reload is reported, not raised
                ok, why = False, f"raised {exc!r}"
            self.run.op(ok, f"reloading {path} as a {method} model: {why}")
        try:
            dispatcher.read_policy_file(self.models / "policy.cfg")
            ok, why = True, ""
        except Exception as exc:
            ok, why = False, repr(exc)
        self.run.op(ok, f"policy.cfg does not parse: {why}")
        return {"train_s": (self.run.corrected(self.times), "s")}


class Evaluate(Workload):
    name = "evaluate"
    setup_covers = "generate the dataset tree and train --method all"
    slots = ("evaluate_eigen_s", "evaluate_fisher_s", "evaluate_hmm_s")

    def __init__(self, run: Run):
        super().__init__(run)
        self.times: dict[str, list[tuple[float, float]]] = {m: [] for m in METHODS}
        self.wrong: dict[str, set[int]] = {m: set() for m in METHODS}
        self.n_test = run.scale.subjects * (run.scale.images - data.K_TRAIN)

    def phases(self) -> list[Phase]:
        return [Phase(f"evaluate:{m}", lambda m=m: self.evaluate_once(m)) for m in METHODS]

    def evaluate_once(self, method: str) -> float:
        report = self.run.work / f"{method}.csv"
        rc, out, (start, end) = self.run.cli([
            "evaluate", "--model", str(self.models / f"{method}.ffm"),
            "--dataset", str(self.data_dir), "--split", data.split_arg(self.run.seed, "test"),
            "--report", str(report)])
        self.times[method].append((start, end))
        if rc == 0:
            self.check_report(method, report, out)
        return self.run.gauge.own((start, end))

    def check_report(self, method: str, report: Path, out: str) -> None:
        self.digest(report.name, report)
        rows = list(csv.DictReader(io.StringIO(report.read_text(encoding="utf-8"))))
        labels = self.labels
        self.run.check(len(rows) == self.n_test,
                       f"{report.name}: {len(rows)} rows, expected {self.n_test}")
        for row in rows:
            self.run.op(row["prediction"] in labels,
                        f"{method} predicted {row['prediction']!r} for {row['path']}")
        wrong = sum(row["correct"] != "1" for row in rows)
        self.wrong[method].add(wrong)
        rate = format(wrong / max(len(rows), 1), ".17g")
        self.run.check(out == f"error_rate,{rate}\n",
                       f"{method}: printed {out.strip()!r}, report says error_rate {rate}")

    def finish(self) -> dict[str, tuple[float, str]]:
        detail = {}
        for method in METHODS:
            detail[f"evaluate_{method}_s"] = (self.run.corrected(self.times[method]), "s")
        pinned = PINNED_ERRORS.get(self.run.seed) if self.run.scale_name == "orl" else None
        for method in METHODS:
            wrong = self.wrong[method]
            self.run.check(len(wrong) == 1, f"{method}: error count changed between calls")
            count = max(wrong, default=0)
            if pinned is not None:
                self.run.check(count == pinned[method],
                               f"{method}: {count} wrong, facelab 0.1.0 had {pinned[method]}")
            detail[f"error_rate_{method}"] = (count / self.n_test, "ratio")
        return detail


class Dispatch(Workload):
    name = "dispatch"
    setup_covers = ("generate the dataset tree and train --method all, then load the "
                    "three archives and the policy and build the probe mix")
    slots = ("dispatch_p50_ms", "dispatch_p99_ms", "recognize_cli_ms")

    def __init__(self, run: Run):
        super().__init__(run)
        self.cold: list[tuple[tuple[float, float], int, str]] = []  # (interval, probe, stdout)
        self.latencies: list[tuple[float, float]] = []  # wall interval of each warm probe
        self.streams: list[list[tuple[str | None, str | None]]] = []

    def after_prepare(self) -> None:
        policy, context, ref = dispatcher.read_policy_file(self.models / "policy.cfg")
        eigen, fisher, bank = (archive.load_model(self.models / f"{m}.ffm") for m in METHODS)
        frontal = flatten(dataset.load_pgm_file(Path(ref)))
        self.warm = (eigen, fisher, bank, frontal, policy, context)
        manifest = dataset.scan_dataset(self.data_dir)
        _, test_m = dataset.split(manifest, SplitSpec(k=data.K_TRAIN, seed=self.run.seed))
        test = [(label, img) for label, _, img in dataset.load_labeled_images(test_m)]
        self.mix = data.probe_mix(test, data.PROBES, self.run.mix_seed)
        probe_dir = self.run.work / "probes"
        probe_dir.mkdir()
        self.cold_files = []
        for i, (_, _, image) in enumerate(self.mix[:COLD_PROBES]):
            path = probe_dir / f"cold{i}.pgm"
            path.write_bytes(write_pgm(image))
            self.cold_files.append(path)

    def phases(self) -> list[Phase]:
        return [Phase("recognize", self.cold_once), Phase("dispatch", self.stream_once)]

    def cold_once(self) -> float:
        index = len(self.cold) % COLD_PROBES
        rc, out, (start, end) = self.run.cli([
            "recognize", "--model", str(self.models), "--policy",
            str(self.models / "policy.cfg"), "--multi", "--image", str(self.cold_files[index])])
        self.cold.append(((start, end), index, out if rc == 0 else ""))
        return self.run.gauge.own((start, end))

    def stream_once(self) -> float:
        recorder = self.run.recorder
        labels = self.labels
        results = []
        stream_start = time.perf_counter()
        for i, (_, _, image) in enumerate(self.mix):
            self.run.gauge.maybe_tick(speed.STREAM_INTERVAL_S)
            if recorder is not None:
                recorder.begin(f"dispatch/{i}")
            method = label = None
            start = time.perf_counter()
            try:
                method, label, _ = dispatcher.recognize_multi(*self.warm, image)
            except Exception:
                traceback.print_exc()
            self.latencies.append((start, time.perf_counter()))
            self.run.op(method in METHODS and label in labels,
                        f"probe {i}: dispatched to {method!r}, predicted {label!r}")
            results.append((method, label))
        self.streams.append(results)
        return self.run.gauge.own((stream_start, time.perf_counter()))

    def routes(self) -> dict[str, int]:
        """Probes per route in the last stream, which is the traced one in a traced run."""
        last = self.streams[-1]
        return {m: sum(method == m for method, _ in last) for m in METHODS}

    def finish(self) -> dict[str, tuple[float, str]]:
        first = self.streams[0]
        self.run.check(all(s == first for s in self.streams),
                       "dispatch results differ between streams")
        for _, index, out in self.cold:
            expected = f"{self.cold_files[index]},{first[index][0]},{first[index][1]}\n"
            self.run.check(out == expected,
                           f"cold call on probe {index} printed {out.strip()!r}, "
                           f"warm dispatch gave {expected.strip()!r}")
        routes = self.routes()
        empty = [m for m, count in routes.items() if count == 0]
        if empty:
            raise BenchmarkError(f"no probe took the {', '.join(empty)} route "
                             f"(seed {self.run.seed}, mix seed {self.run.mix_seed}): {routes}")
        latencies = [self.run.gauge.scaled(iv) for iv in self.latencies]
        n = len(latencies)
        tail = stats.tail_percentile(n)
        if tail is None or tail < 99:
            raise BenchmarkError(f"{n} probes are too few for a p99 with ten samples beyond")
        wrong = sum(label != truth for (_, truth, _), (_, label) in zip(self.mix, first))
        counts = {f"dispatch_route_{m}": (count, "count") for m, count in routes.items()}
        return {
            "recognize_cli_ms": (self.run.corrected([c[0] for c in self.cold]) * 1e3, "ms"),
            "dispatch_p50_ms": (stats.percentile(latencies, 50) * 1e3, "ms"),
            "dispatch_p99_ms": (stats.percentile(latencies, 99) * 1e3, "ms"),
            "dispatch_samples": (n, "count"),
            "dispatch_probes_per_s": (n / sum(latencies), "1/s"),
            "dispatch_error_rate": (wrong / len(first), "ratio"),
            **counts,
        }


WORKLOADS = {w.name: w for w in (Train, Evaluate, Dispatch)}

# Per traced phase, layer counts that the workload's design says are zero.
EXPECT_ZERO = {
    "train": [("train", "archive.load_model.calls")],
    "evaluate": [("evaluate:eigen", "hmm1d.loglik.calls"),
                 ("evaluate:fisher", "hmm1d.loglik.calls")],
    "dispatch": [("dispatch", "archive.load_model.calls"),
                 ("dispatch", "dataset.load_pgm_file.calls")],
}


def _to_ms(value: float, unit: str) -> float:
    return value * 1e3 if unit == "s" else value


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def execute(run: Run) -> dict:
    """Set up, run the timed part, check outputs; the whole result of one run."""
    workload = WORKLOADS[run.workload](run)
    gauge = run.gauge
    setups = []
    for _ in range(workload.setup_repeats):
        gauge.tick()
        setups.append(workload.setup())
    gauge.tick()  # every unit below is followed by a tick, so each is bracketed
    phases = workload.phases()
    samples: dict[str, list[float]] = {phase.request: [] for phase in phases}
    traced = None
    if not run.traced:
        # Each phase runs units until they add up to its share of --seconds:
        # half of it in a first pass over the phases, the rest in a second, so
        # the samples of short phases bracket the long ones and a slow spell
        # of the machine does not fall on one phase alone.
        share = run.seconds / len(phases)
        with trace.installed(gauge, speed.HOOKS):
            for fraction in (0.5, 1.0):
                for phase in phases:
                    times = samples[phase.request]
                    while not times or sum(times) < share * fraction:
                        times.append(phase.unit())
                        gauge.tick()
    else:
        with trace.installed(gauge, speed.HOOKS):
            for phase in phases:
                samples[phase.request].append(phase.unit())
                gauge.tick()
        recorder = trace.Recorder()
        run.recorder = recorder
        with trace.installed(recorder, layers.TRACED):
            for phase in phases:
                recorder.begin(phase.request)
                samples[phase.request].append(phase.unit())
                gauge.tick()
        run.recorder = None
        overhead = sum(s[1] - s[0] for s in samples.values())
        traced = (recorder, overhead, phases)
    peak = _peak_rss_mb()

    detail = {"setup_s": (run.corrected(setups), "s")}
    detail.update(workload.finish())
    detail["peak_rss_mb"] = (peak, "MB")
    detail["failure_rate"] = (run.failed / max(run.attempted, 1), "ratio")
    detail["host_speed"] = (gauge.speed(), "ratio")
    end_to_end = {"setup_s": detail["setup_s"], "peak_rss_mb": detail["peak_rss_mb"]}
    for slot, key in zip(("fast_ms", "mid_ms", "slow_ms"), workload.slots):
        end_to_end[slot] = (_to_ms(*detail[key]), "ms")
    result = {
        "workload": run.workload,
        "setup_covers": workload.setup_covers,
        "setup_repeats": [end - start for start, end in setups],
        "unit_seconds": samples,
        "reference_seconds": gauge.seconds,
        "detail": detail,
        "end_to_end": end_to_end,
        "digests": workload.check_digests(),
    }
    if traced is not None:
        recorder, overhead, phases = traced
        routes = workload.routes() if isinstance(workload, Dispatch) else {}
        result.update(_per_layer(recorder, overhead, phases, routes, run))
    return result


def _per_layer(recorder: trace.Recorder, overhead: float, phases: list[Phase],
               routes: dict[str, int], run: Run) -> dict:
    spans = recorder.finished()
    values = {f"{layer}.{field_name}": value
              for layer, entry in trace.layer_stats(spans, layers.TRACED).items()
              for field_name, value in entry.items()}
    values.update({f"{name}.bytes": count for name, count in recorder.bytes.items()})
    values.update({f"dispatcher.route.{route}": count for route, count in routes.items()})
    values["trace_overhead_s"] = overhead
    per_layer = {name: (values.get(name, 0), unit) for name, unit in layers.per_layer_metrics()}

    by_phase = {}
    for phase in phases:
        prefix = phase.request

        def keep(span, prefix=prefix):
            return span.request == prefix or span.request.startswith(prefix + "/")

        by_phase[prefix] = {
            layer: entry
            for layer, entry in trace.layer_stats(spans, layers.TRACED, keep).items()
            if entry["calls"]}
    expectations = {}
    for prefix, metric in EXPECT_ZERO[run.workload]:
        layer, _, field_name = metric.rpartition(".")
        expectations[f"{metric} in {prefix}"] = by_phase[prefix].get(layer, {}).get(field_name, 0)
    return {"per_layer": per_layer, "per_phase": by_phase, "expect_zero": expectations,
            "spans": recorder}
