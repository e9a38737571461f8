"""In-memory span tracer that wraps the package's public functions.

``Tracer.install`` replaces every public module-level function of the traced
layers with a wrapper, both where it is defined and wherever another module
re-bound it by import (``homsample.cli.read_edge_list``,
``homsample.experiments.train``, ...). Each call then records one span:
name, thread, start, end, parent span, a work count and whether it raised.
Spans stay in memory until ``dump`` writes them once, at the end of a run.

A span opened on a thread with an empty stack (an experiment worker thread)
takes as parent the innermost open span of the main thread, which is blocked
in the thread pool's map while its workers run, so ``--workers 2`` cells
nest under the ``run_experiment`` call that started them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    tid: int
    t0: float
    t1: float
    count: float
    failed: bool


class Tracer:
    def __init__(self, package: str, layers, count_hooks):
        self.package = package
        self.layers = tuple(layers)
        self.count_hooks = dict(count_hooks)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_tid = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main_tid
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        hook = self.count_hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack and threading.get_ident() != tracer._main_tid:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                count = 0
                if hook is not None and not failed:
                    try:
                        count = hook(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        count = 0  # a changed signature must not fail the traced call
                tracer.spans.append(
                    Span(sid, parent, name, threading.get_ident(), t0, t1, count, failed)
                )

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer, wherever it is bound."""
        wrappers: dict[int, object] = {}
        for layer in self.layers:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and isinstance(obj, types.FunctionType):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


@dataclass
class Aggregate:
    """Per-name self time, inclusive time, call and failure counts and work counts."""

    self_s: dict
    incl_s: dict
    calls: dict
    failed: dict
    counts: dict
    covered_s: float  # union of all top-level spans
    busy_threads: dict  # span name -> distinct threads that ran it

    @classmethod
    def from_spans(cls, spans: list[Span]) -> "Aggregate":
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append((s.t0, s.t1))
        agg = cls(
            self_s=defaultdict(float), incl_s=defaultdict(float), calls=defaultdict(int),
            failed=defaultdict(int), counts=defaultdict(float), covered_s=0.0, busy_threads=defaultdict(set),
        )
        for s in spans:
            dur = s.t1 - s.t0
            agg.self_s[s.name] += dur - _covered(children.get(s.sid, ()), s.t0, s.t1)
            agg.incl_s[s.name] += dur
            agg.calls[s.name] += 1
            agg.failed[s.name] += s.failed
            agg.counts[s.name] += s.count
            agg.busy_threads[s.name].add(s.tid)
        top = [(s.t0, s.t1) for s in spans if s.parent is None]
        if top:
            agg.covered_s = _covered(top, min(a for a, _ in top), max(b for _, b in top))
        return agg

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def span_overhead_s(calls: int = 20_000) -> float:
    """Measured cost of one traced call of a no-op, in seconds."""

    def noop():
        return None

    wrapped = Tracer("calibration", (), {})._wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, (traced - bare) / calls)
