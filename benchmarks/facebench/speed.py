"""Host-speed correction: a fixed reference kernel timed in and around the timed units.

On a shared VM the same code runs up to twice as slow for seconds to minutes
at a time, because of load from outside the VM: a pure-Python loop slows in
step with facelab's own calls, and neither shows steal time. Medians over a
30 to 60 second window still spread by about 30% between windows, so raw
wall times of one run cannot be compared with another's within a 25% bound.

The benchmark therefore times a reference kernel, which is benchmark code
and never changes with facelab, before and after every timed unit, and inside
it: a hook on some of facelab's public functions runs the kernel on entry
when `INTERVAL_S` has passed since the last run. A unit's corrected seconds
are its wall seconds less the kernel runs inside it, times ``REF_SECONDS``
over the mean kernel time in and around it: the time the unit would take at
the speed where the kernel takes ``REF_SECONDS``. A change to facelab moves
the unit's own time and leaves the kernel alone, so it moves the corrected
time by the same share.
"""

from __future__ import annotations

import bisect
import functools
import time

import numpy as np

# The kernel's seconds at the speed that corrected times refer to: about its
# time on the 2-vCPU Xeon VM the benchmark was tuned on, when unloaded, so
# corrected times stay close to wall times there.
REF_SECONDS = 0.04
WARMUP_TICKS = 3
INTERVAL_S = 1.0  # least wall time between two kernel runs started by a hook
# The same between the warm dispatch probes, which are milliseconds each:
# there the kernel tracks the host's speed more closely at little cost.
STREAM_INTERVAL_S = 0.25

# Public functions, called throughout the CLI paths, whose entry may run the
# kernel: evaluate and recognize probes, image and archive I/O, and the steps
# of training.
HOOKS = [
    "bench.predict",
    "dataset.load_pgm_file",
    "archive.load_model",
    "archive.save_model",
    "numerics.sym_eigen",
    "numerics.gen_sym_eigen",
    "eigenfaces.train_eigen",
    "fisherfaces.train_fisher",
    "hmm1d.fit_klt",
    "hmm1d.viterbi",
    "hmm1d.baum_welch",
    "dispatcher.calibrate_policy",
]

_FLOATS = np.random.default_rng(1).random(17_000)


def kernel() -> None:
    """A fixed mix of what facelab spends its time on: float text formatting
    and parsing, as in the archives (about two thirds of the kernel's time),
    and an interpreted loop, as in the per-probe and training steps."""
    acc = 0
    for i in range(140_000):
        acc += i * i % 7
    text = " ".join(format(v, ".17g") for v in _FLOATS)
    parsed = np.array([float(tok) for tok in text.split()])
    if acc < 0 or not np.array_equal(parsed, _FLOATS):
        raise AssertionError("reference kernel gave a wrong result")


class Gauge:
    """Kernel runs over one run, as (start, end) wall times in time order."""

    def __init__(self, warmup: int = WARMUP_TICKS) -> None:
        self.runs: list[tuple[float, float]] = []
        for _ in range(warmup):
            kernel()

    @property
    def seconds(self) -> list[float]:
        return [end - start for start, end in self.runs]

    def tick(self) -> None:
        start = time.perf_counter()
        kernel()
        self.runs.append((start, time.perf_counter()))

    def maybe_tick(self, interval: float = INTERVAL_S) -> None:
        if not self.runs or time.perf_counter() - self.runs[-1][1] >= interval:
            self.tick()

    def wrap(self, name: str, fn):
        """fn, running the kernel first when INTERVAL_S has passed (for trace.installed)."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            self.maybe_tick()
            return fn(*args, **kwargs)

        return hooked

    def merge(self, runs: list[tuple[float, float]]) -> None:
        """Add kernel runs timed by another process (perf_counter is system-wide)."""
        self.runs = sorted(self.runs + [tuple(r) for r in runs])

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        starts = [s for s, _ in self.runs]
        return bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)

    def own(self, interval: tuple[float, float]) -> float:
        """Wall seconds of the interval less the kernel runs inside it."""
        start, end = interval
        lo, hi = self._inside(start, end)
        return (end - start) - sum(e - s for s, e in self.runs[lo:hi])

    def scaled(self, interval: tuple[float, float]) -> float:
        """The corrected seconds of a (start, end) wall interval: its own
        seconds times REF_SECONDS over the mean of the kernel runs inside it
        and of the last one before it and the first one after it."""
        lo, hi = self._inside(*interval)
        around = self.seconds[max(lo - 1, 0):hi + 1]
        if not around:
            raise ValueError("no kernel run around the interval")
        return self.own(interval) * REF_SECONDS * len(around) / sum(around)

    def speed(self) -> float:
        """The run's median kernel speed, 1.0 meaning the kernel took REF_SECONDS."""
        ordered = sorted(self.seconds)
        return REF_SECONDS / ordered[len(ordered) // 2] if ordered else float("nan")
