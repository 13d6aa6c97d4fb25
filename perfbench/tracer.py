"""In-memory span tracer installed around drtrack's public functions.

A wrapper replaces a function on the name its caller looks up (for
example ``drtrack.spg.smooth_phi``, which the solver calls, rather than
``drtrack.smoothing.smooth_phi``, which nothing inside the package
reads).  Each call records one span ``(id, name, start, end, parent,
run, thread)``.  Parents come from a thread-local stack, so spans of
grid points running on pool threads never nest inside spans of another
thread.  Spans stay in memory until :meth:`Tracer.write` at exit.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int


# after(args, kwargs, result, tracer) runs once a wrapped call returns;
# it turns the call's inputs and outputs into counters.
AfterHook = Callable[[tuple, dict, object, "Tracer"], None]


class Target(NamedTuple):
    """One wrapper site: ``getattr(owner, attr)`` is traced as ``name``."""

    owner: object
    attr: str
    name: str
    after: AfterHook | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # counters[run][key] -> float; lists[run][key] -> samples
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[self.run][key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[self.run][key].append(value)

    def wrap(self, fn, name: str, after: AfterHook | None = None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            run = tracer.run
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, run, threading.get_ident())
                )
            if after is not None:
                after(args, kwargs, result, tracer)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for target in targets:
                original = getattr(target.owner, target.attr)
                saved.append((target.owner, target.attr, original))
                setattr(
                    target.owner,
                    target.attr,
                    self.wrap(original, target.name, target.after),
                )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            writer.writerows(self.spans)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


def summarize(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Span name -> (calls, total seconds, total self seconds)."""
    own = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        entry = out[span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own[span.id]
    return {name: (c, t, s) for name, (c, t, s) in out.items()}
