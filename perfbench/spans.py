"""In-memory spans around calls into the maxentsum modules.

A :class:`Tracer` wraps public functions at the module attribute through
which their caller looks them up (``maxentsum.cli.multistart_maximize``,
``maxentsum.suites.ulc_order_margins``, ...), so a traced run needs no change
to the package.  Each call becomes a span: name, start, end, parent span and
thread.  Spans stay in memory until the run writes them out.

A span's layer is the first dotted component of its name.  Layer self time
is span duration minus the part of the span its child spans cover.  When two
worker threads are inside spans at the same instant, that instant is shared
equally between them, so the self times of all layers add up to the covered
wall time and never exceed it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one workload iteration; all spans share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn: Callable, args=(), kwargs=None, parent: int | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        The parent defaults to the innermost open span of the calling thread;
        jobs that run on a worker thread pass their parent explicitly.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, name, start, end, threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def add(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += amount

    def maximum(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = max(self.counters[counter], value)

    def wrap(self, owner, attr: str, name: str, on_result: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``on_result(tracer, args, kwargs, result)`` may record counters taken
        from the public fields of the result.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, args, kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_ordered_map(self, owner, job_name: str) -> None:
        """Trace ``owner.ordered_map`` and each job function it runs."""
        original = getattr(owner, "ordered_map")

        def traced_ordered_map(fn, jobs):
            def body():
                parent = self.current()
                return original(lambda job: self.call(job_name, fn, (job,), parent=parent), jobs)

            return self.call("parallel.ordered_map", body)

        self._patches.append((owner, "ordered_map", original))
        setattr(owner, "ordered_map", traced_ordered_map)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, fh, extra: dict | None = None) -> None:
        for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
            record = {"run_id": self.run_id, **(extra or {}), **asdict(span)}
            fh.write(json.dumps(record) + "\n")


def _subtract(start: float, end: float, holes: Iterable[tuple[float, float]]):
    """Pieces of [start, end) not covered by any of ``holes``."""
    pieces = []
    cursor = start
    for a, b in sorted(holes):
        a = min(max(a, start), end)
        b = min(max(b, start), end)
        if a > cursor:
            pieces.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def self_intervals(spans: list[Span]) -> dict[int, list[tuple[float, float]]]:
    """For each span id, the parts of the span its children do not cover."""
    children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: _subtract(s.start, s.end, children[s.id]) for s in spans}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, sharing concurrent instants equally between threads."""
    layer_of = {s.id: s.layer for s in spans}
    events = []
    for span_id, pieces in self_intervals(spans).items():
        for a, b in pieces:
            if b > a:
                events.append((a, 1, layer_of[span_id]))
                events.append((b, -1, layer_of[span_id]))
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict[str, int] = defaultdict(int)
    total = 0
    last = 0.0
    out: dict[str, float] = defaultdict(float)
    for t, delta, layer in events:
        if total and t > last:
            share = (t - last) / total
            for name, count in active.items():
                if count:
                    out[name] += share * count
        active[layer] += delta
        total += delta
        last = t
    return dict(out)
