"""Span recorder that times qwalk's layers from outside the package.

`install` rebinds public functions at the names that `qwalk.experiments`,
`qwalk.detection` and `qwalk.cli` import them under, and wraps the methods
of the classes those modules use, so that every call into a layer opens a
span.  Only the traced process calls `install`; untraced runs execute the
package unmodified.  A name that a later version of the package no longer
has is skipped and reported, and its layer reads zero.

Spans live in memory (name, function, thread, start, end, parent) and are
written out once the run ends.  A call into a layer from inside the same
layer opens no new span, so a layer's spans never overlap on one thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter

POOL_TASK = "pool.task"


class Span:
    __slots__ = ("id", "layer", "fn", "thread", "start", "end", "parent")

    def __init__(self, id_, layer, fn, thread, parent):
        self.id = id_
        self.layer = layer
        self.fn = fn
        self.thread = thread
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()  # wrapped calls by function, nested ones included
        self.counts: Counter = Counter()  # quantities measured at the wrappers
        self.pool_threads = 0
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] += n

    def call(self, layer, label, fn, args, kwargs, parent=None, before=None, after=None):
        """Run `fn` inside a span of `layer`; `parent` overrides the thread's own."""
        stack = self._stack()
        with self._lock:
            self.calls[label] += 1
        if before is not None:
            before(self, stack, args)
        if stack and stack[-1].layer == layer:
            result = fn(*args, **kwargs)
        else:
            if parent is None and stack:
                parent = stack[-1]
            span = Span(next(self._ids), layer, label, threading.get_ident(), parent)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        if after is not None:
            after(self, args, result)
        return result

    def wrap(self, layer, fn, label=None, before=None, after=None):
        label = label or getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, label, fn, args, kwargs, before=before, after=after)

        return traced

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                parent = None if s.parent is None else s.parent.id
                row = [s.id, s.layer, s.fn, s.thread, s.start, s.end, parent]
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def _patch(recorder, owner, name, layer, **hooks) -> None:
    fn = getattr(owner, name, None)
    if fn is None:
        recorder.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return
    setattr(owner, name, recorder.wrap(layer, fn, **hooks))


def _patch_classmethod(recorder, cls, name, layer) -> None:
    attr = cls.__dict__.get(name) if cls is not None else None
    if not isinstance(attr, classmethod):
        recorder.missing.append(f"{getattr(cls, '__name__', cls)}.{name}")
        return
    setattr(cls, name, classmethod(recorder.wrap(layer, attr.__func__)))


def _passive_bytes(recorder, args, result) -> None:
    """Bytes one full-register passive map computes, from array sizes.

    Reads the m x m complex unitary (twice: the unitarity check and the
    symplectic build), the 2m x 2m real symplectic (twice), the covariance
    and the mean; writes the covariance and the mean.
    """
    m = result.n_modes
    recorder.count(
        "gaussian.apply_passive.bytes_computed",
        2 * 16 * m * m + 2 * 8 * (2 * m) ** 2 + 2 * 8 * (2 * m) ** 2 + 2 * 8 * 2 * m,
    )


def _render_bytes(recorder, args, result) -> None:
    recorder.count("io.render.bytes", len(result.encode("utf-8")))


def _p0_miss(recorder, stack, args) -> None:
    if stack and stack[-1].fn == "ClickCalculator.no_click":
        recorder.count("detection.p0.misses")


# entry points the workloads reach, including the ones pool tasks call
_EXPERIMENT_ENTRIES = (
    "run_experiment",
    "hom_coincidence",
    "hom_scan",
    "step_evolution",
    "verify_against_oracle",
)


def install(recorder: Recorder) -> None:
    """Route every traced qwalk layer through `recorder`."""
    from qwalk import cli, detection, experiments

    for name in _EXPERIMENT_ENTRIES:
        _patch(recorder, experiments, name, "experiments")
    _patch(recorder, experiments, "prepare", "gaussian.prepare")
    _patch(recorder, experiments, "apply_passive", "gaussian.apply_passive", after=_passive_bytes)
    _patch(recorder, experiments, "apply_loss", "gaussian.apply_loss")
    _patch(recorder, experiments, "walk_unitary", "walk.unitary")
    _patch(recorder, experiments, "build_layout", "detection.build_layout")
    _patch(recorder, detection, "append_modes", "gaussian.append_modes")
    _patch(recorder, detection, "apply_passive", "gaussian.apply_passive", after=_passive_bytes)

    calc = getattr(experiments, "ClickCalculator", None)
    _patch(recorder, calc, "__init__", "detection.calculator")
    for name in ("pattern", "heralded", "single_photon", "herald_rate"):
        _patch(recorder, calc, name, "detection.clicks")
    _patch(recorder, calc, "no_click", "detection.p0")
    # the one routine that evaluates P0; single_photon calls it directly
    _patch(recorder, calc, "_p0_with_factor", "detection.p0", before=_p0_miss)

    oracle = getattr(experiments, "ThresholdOracle", None)
    _patch(recorder, oracle, "__init__", "fock.oracle_build")
    for name in ("pattern_prob", "heralded_prob", "herald_rate"):
        _patch(recorder, oracle, name, "fock.oracle_query")

    executor = getattr(experiments, "ThreadPoolExecutor", None)
    if executor is None:
        recorder.missing.append("qwalk.experiments.ThreadPoolExecutor")
    else:
        experiments.ThreadPoolExecutor = _traced_executor(recorder, executor)

    _patch(recorder, cli, "main", "cli")
    for name in ("run_experiment", "step_evolution", "hom_scan", "verify_against_oracle"):
        _patch(recorder, cli, name, "experiments")
    _patch(recorder, cli, "render_distribution", "io.render", after=_render_bytes)
    _patch(recorder, cli, "write_text", "io.write")
    run_config = getattr(cli, "RunConfig", None)
    _patch_classmethod(recorder, run_config, "from_file", "config.load")
    _patch(recorder, run_config, "with_overrides", "config.load")


def _traced_executor(recorder, base):
    """Executor whose tasks open a span parented to the submitting span."""

    class TracedExecutor(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            with recorder._lock:
                recorder.pool_threads = max(recorder.pool_threads, self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def task():
                return recorder.call(POOL_TASK, POOL_TASK, fn, args, kwargs, parent=parent)

            return super().submit(task)

    return TracedExecutor


def per_call_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op function."""

    def noop():
        return None

    traced = Recorder().wrap("calibration", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / n)
    return max(best, 0.0)


def summarize(recorder: Recorder, main_busy_s: float) -> dict:
    """Per-layer totals, self times and per-thread coverage.

    A span's self time is its duration minus its children on the same
    thread; pool tasks are attached to the span that submitted them but
    run on another thread, so the submitter's self time keeps the wait.
    Coverage is, per thread, the busy time spent inside named layer spans:
    on the main thread busy time is the time the benchmark spent in entry
    calls, on a pool thread it is the time spent running pool tasks.
    """
    child_time: dict[int, float] = {}
    for s in recorder.spans:
        p = s.parent
        if p is not None and p.thread == s.thread:
            child_time[p.id] = child_time.get(p.id, 0.0) + (s.end - s.start)

    layers: dict[str, dict] = {}
    main = threading.main_thread().ident
    inside: Counter = Counter()
    busy: Counter = Counter({main: main_busy_s})
    parents_of: dict[str, Counter] = {}
    for s in recorder.spans:
        dur = s.end - s.start
        if s.layer == POOL_TASK:
            busy[s.thread] += dur
            inside[s.thread] += child_time.get(s.id, 0.0)
            continue
        if s.parent is None:
            inside[s.thread] += dur
        entry = layers.setdefault(s.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "threads": set()})
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += dur - child_time.get(s.id, 0.0)
        entry["threads"].add(s.thread)
        parent = s.parent
        while parent is not None and parent.layer == POOL_TASK:
            parent = parent.parent
        parents_of.setdefault(s.layer, Counter())[parent.layer if parent else None] += dur

    coverage = {
        ("main" if t == main else t): (inside[t] / b if b > 0 else 1.0)
        for t, b in busy.items()
    }
    return {"layers": layers, "coverage": coverage, "parents": parents_of}
