"""In-memory span recorder for the traced benchmark run.

A span is [id, name, start, end, parent, example, payload]. Spans opened on
one thread nest through a per-thread stack; a span opened on a worker
thread with an empty stack hangs under the example in flight, because
`lmsql run` processes one example at a time. Self time is a span's
duration minus the part of it that its child spans cover; children that
ran in parallel are counted once (interval union, not sum).
"""

from __future__ import annotations

import threading
from itertools import count
from time import perf_counter

ID, NAME, START, END, PARENT, EXAMPLE, PAYLOAD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = count()
        self._local = threading.local()
        self.example_span = None  # id of the example span in flight
        self.example_id = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stack else self.example_span
        span = [next(self._ids), name, 0.0, 0.0, parent, self.example_id, None]
        stack.append(span)
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def end(self, span: list, payload=None) -> None:
        span[END] = perf_counter()
        self._stack().pop()
        span[PAYLOAD] = payload

    def wrap(self, name: str, fn, keep_result: bool = False):
        """fn with a span around each call; keep_result stores (return value, args)
        for the report to inspect later, with None for a call that raised."""
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span, (None, args) if keep_result else None)
                raise
            self.end(span, (result, args) if keep_result else None)
            return result
        traced.__wrapped__ = fn
        return traced

    def example(self, fn):
        """Wrap the per-example function: its span is the root the others hang under."""
        def traced(example, *args, **kwargs):
            self.example_id = example.get("id")
            span = self.begin("cli.example")
            self.example_span = span[ID]
            try:
                return fn(example, *args, **kwargs)
            finally:
                self.end(span)
                self.example_span = self.example_id = None
        traced.__wrapped__ = fn
        return traced


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s[PARENT], []).append(s)
    return out


def covered(span: list, kids: list) -> float:
    """Part of span's interval that the given spans cover."""
    lo, hi = span[START], span[END]
    return union_length((max(k[START], lo), min(k[END], hi)) for k in kids)


def self_time(span: list, children: dict) -> float:
    return (span[END] - span[START]) - covered(span, children.get(span[ID], []))


def descendants(span: list, children: dict) -> list:
    out, todo = [], list(children.get(span[ID], []))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s[ID], []))
    return out
