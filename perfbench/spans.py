"""Span recording for traced benchmark jobs, and the interval arithmetic on spans.

A span is one call into a layer entry point: name, start, end, parent span,
thread, plus a few counts taken at the same boundary (``attrs``).  Spans are
kept in memory and written once, when the job exits.  Times are
``time.monotonic()`` readings, the same system-wide clock the parent process
uses to time the job, so span times and job times share one timeline.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A span as written to the job report: [id, name, parent, thread, start, end, attrs]
SpanRow = list


class Tracer:
    """Records spans around wrapped functions; safe to use from worker threads."""

    def __init__(self):
        self.spans: List[SpanRow] = []
        self.missing: List[str] = []   # hooks whose target attribute does not exist
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> List[int]:
        """Ids of the spans open on the calling thread, outermost first."""
        return list(self._stack())

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             parent: Optional[int] = None,
             attrs_fn: Optional[Callable] = None, attrs: Optional[Dict] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``parent`` is used when the calling thread has no open span, which is
        how a task run on a pool thread names the span that submitted it.
        ``attrs_fn(args, kwargs, result)`` returns counts to store on the span.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        sid = next(self._ids)
        row = [sid, name, stack[-1] if stack else parent, threading.get_ident(),
               time.monotonic(), None, dict(attrs or {})]
        stack.append(sid)
        try:
            out = fn(*args, **kwargs)
            if attrs_fn is not None:
                row[6].update(attrs_fn(args, kwargs, out))
            return out
        finally:
            row[5] = time.monotonic()
            stack.pop()
            self.spans.append(row)

    def wrap(self, module, attr: str, name: str,
             attrs_fn: Optional[Callable] = None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper of itself."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn=attrs_fn)

        setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
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


class SpanIndex:
    """Spans of one job, indexed by id, name and parent."""

    def __init__(self, rows: Sequence[SpanRow]):
        self.rows = list(rows)
        self.by_id = {r[0]: r for r in self.rows}
        self.children: Dict[int, List[SpanRow]] = {}
        self.by_name: Dict[str, List[SpanRow]] = {}
        for r in self.rows:
            self.by_name.setdefault(r[1], []).append(r)
            if r[2] is not None:
                self.children.setdefault(r[2], []).append(r)

    def named(self, *names: str) -> List[SpanRow]:
        return [r for n in names for r in self.by_name.get(n, [])]

    def seen(self, *names: str) -> bool:
        return any(n in self.by_name for n in names)

    def self_time(self, row: SpanRow) -> float:
        """Duration minus the part of it covered by child spans (any thread)."""
        lo, hi = row[4], row[5]
        kids = [(max(c[4], lo), min(c[5], hi)) for c in self.children.get(row[0], [])]
        return (hi - lo) - union_length(kids)

    def total(self, *names: str) -> float:
        return sum(r[5] - r[4] for r in self.named(*names))

    def total_self(self, *names: str) -> float:
        return sum(self.self_time(r) for r in self.named(*names))

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def attr_sum(self, key: str, *names: str) -> float:
        return sum(r[6].get(key, 0) for r in self.named(*names))

    def has_ancestor(self, row: SpanRow, prefix: str) -> bool:
        parent = row[2]
        while parent is not None:
            p = self.by_id.get(parent)
            if p is None:
                return False
            if p[1].startswith(prefix):
                return True
            parent = p[2]
        return False

    def uncovered(self, lo: float, hi: float) -> float:
        """Length of [lo, hi] that no span covers."""
        return (hi - lo) - union_length((max(r[4], lo), min(r[5], hi)) for r in self.rows)
