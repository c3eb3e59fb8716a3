"""Spans around calls into facelab's public functions, recorded from outside.

A `Recorder` wraps each traced function in every facelab module namespace
that bound it (``cli`` imports ``load_model`` by name, ``hmm1d`` imports
``sym_eigen`` by name, so wrapping the defining module alone would miss
those calls). Each call becomes a `Span` kept in memory: name, start, end,
the index of the enclosing span, and the request it served. Busy and self
time per layer are computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

PACKAGE = "facelab"

# Spans of these names start a new request: one evaluate probe each.
REQUEST_SPANS = ("bench.predict",)

# Index of the path argument of calls whose file size is counted as bytes.
BYTE_ARGS = {"archive.save_model": 1, "archive.load_model": 0}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str


class Recorder:
    """Collects spans and byte counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.bytes: dict[str, int] = {}
        self.request = ""
        self._stack: list[int] = []
        self._requests_started = 0

    def wrap(self, name: str, fn):
        byte_arg = BYTE_ARGS.get(name)
        starts_request = name in REQUEST_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            outer_request = self.request
            if starts_request:
                self.request = f"{outer_request}/{self._requests_started}"
                self._requests_started += 1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.request)
                self.request = outer_request
                if byte_arg is not None and len(args) > byte_arg:
                    path = args[byte_arg]
                    if os.path.isfile(path):
                        self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(path)

        return traced

    def begin(self, request: str) -> None:
        """Name the request that the next calls serve."""
        self.request = request
        self._requests_started = 0

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def dump(self, path: Path) -> None:
        """Write the spans out as JSON lines, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.finished()):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def installed(recorder, targets: list[str]):
    """Wrap each ``module.function`` target wherever a facelab module bound it,
    with ``recorder.wrap(target, fn)`` (a `Recorder`, or a `speed.Gauge`).

    Every binding is restored on exit, also when the body raises.
    """
    wrappers = {}
    for target in targets:
        module, func = target.rsplit(".", 1)
        fn = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
        wrappers[id(fn)] = recorder.wrap(target, fn)
    patched = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        yield recorder
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_stats(spans: list[Span], names: list[str],
                keep=lambda span: True) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per traced name, over the spans keep() accepts.

    Busy time is the union of a name's span intervals, so a function that
    calls itself is not counted twice. Self time is each span's duration
    minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names}
    intervals: dict[str, list[tuple[float, float]]] = {name: [] for name in names}
    for i, span in enumerate(spans):
        entry = stats.get(span.name)
        if entry is None or not keep(span):
            continue
        entry["calls"] += 1
        entry["self_s"] += (span.end - span.start) - child_time[i]
        intervals[span.name].append((span.start, span.end))
    for name in names:
        stats[name]["busy_s"] = _union_length(intervals[name])
    return stats
