"""In-memory spans around the calls the benchmark makes into each layer.

A span records a layer name, start and end (``time.perf_counter``), the
span that caused it (the innermost open span on the same thread) and an
operation id (training step, request or query batch).  Spans are kept in
a list and written out once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; :func:`self_times` computes it and
:func:`accounting` rolls it up per layer so that the layer rows plus a
named residual row add up to the traced operation time.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

__all__ = ["Span", "Recorder", "maybe_span", "self_times", "subtree",
           "accounting"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "index")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional[int], op: Optional[int], info=None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.info = info
        self.index = -1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "info": self.info}


class Recorder:
    """Collects spans from any thread; parents follow a per-thread stack.

    Wrappers installed by :meth:`wrap` record only while ``active`` is
    true, so one run can time an untraced and a traced window over the
    same objects.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = True
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: Span) -> int:
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
            return span.index

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        """Time the body as a child of this thread's innermost open span."""
        stack = self._stack()
        record = Span(name, self.clock(), float("nan"),
                      stack[-1] if stack else None, op)
        index = self._append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self.clock()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[int] = None,
            info=None) -> int:
        """Record a span measured elsewhere (e.g. durations a call reports)."""
        return self._append(Span(name, start, end, parent, op, info))

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a wrapper that records one span per call.

        The wrapper is an instance attribute, so callers reaching the
        method through ``obj`` (``self.optimizer.step()``) are timed
        without any change to the program.
        """
        original = getattr(obj, attr)

        def timed(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, attr, timed)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


def maybe_span(recorder: Optional[Recorder], name: str,
               op: Optional[int] = None):
    """``recorder.span(...)``, or a no-op context without a recorder."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, op)


def _covered(start: float, end: float,
             intervals: Sequence[Sequence[float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(lo, start), min(hi, end)) for lo, hi in intervals)
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if hi <= lo:
            continue
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: Dict[int, List[Sequence[float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _covered(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def subtree(spans: Sequence[Span], root: int) -> List[int]:
    """Indices of ``root`` and every span descending from it."""
    kids: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(i)
    out, todo = [], [root]
    while todo:
        index = todo.pop()
        out.append(index)
        todo.extend(kids.get(index, ()))
    return sorted(out)


def accounting(spans: Sequence[Span], root: int,
               residual: str) -> Dict[str, float]:
    """Self seconds per layer under ``root``; the root's own self time is
    the row named ``residual``.  The rows sum to the root's duration."""
    selfs = self_times(spans)
    rows: Dict[str, float] = {}
    for index in subtree(spans, root):
        name = residual if index == root else spans[index].name
        rows[name] = rows.get(name, 0.0) + selfs[index]
    return rows
