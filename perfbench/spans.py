"""Spans around the benchmark's calls into polycert, kept in memory.

A span records a name ("module.function"), start, end, the span that caused
it, the op it belongs to, and the polycert op counters of a ``count_ops``
scope opened around the call.  Self time is a span's duration minus the time
its child spans cover.  :class:`NullTracer` is what the untraced run uses:
it calls straight through.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts", "info", "child_s")

    def __init__(self, name: str, op: int, parent: int | None):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None  # polycert OpCounters of the call, if counted
        self.info: dict = {}
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class NullTracer:
    on = False

    def op(self, index: int):
        return nullcontext()

    def call(self, name, fn, *args):
        return fn(*args)

    def note(self, **info) -> None:
        pass


class Tracer:
    on = True

    def __init__(self, count_ops):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._count_ops = count_ops

    def _open(self, name: str) -> Span:
        span = Span(name, self._op, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    @contextmanager
    def op(self, index: int):
        self._op = index
        span = self._open("op")
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._close(span)

    def call(self, name, fn, *args):
        span = self._open(name)
        with self._count_ops() as counts:
            span.start = perf_counter()
            try:
                return fn(*args)
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                span.counts = counts
                self._close(span)

    def note(self, **info) -> None:
        """Attach facts about the last finished call (sizes, stats)."""
        self.spans[-1].info.update(info)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"name": s.name, "op": s.op, "parent": s.parent,
                       "start": s.start, "end": s.end, "self_s": s.self_s, **s.info}
                if s.counts is not None:
                    row.update(vars(s.counts))
                fh.write(json.dumps(row) + "\n")
