"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``(id, name, start, end, parent, run)``: ``parent`` is the id
of the span that was open when this one started (``None`` for a root),
``run`` names the benchmark run the span belongs to.  Spans stay in
memory and are written once, when the traced pass ends.

The program under test is not edited: :meth:`Tracer.wrap` shadows one
method *on one instance* (or one name in one module namespace) with a
wrapper that opens a span around the call, and :meth:`Tracer.unwrap_all`
puts everything back.  Only the traced pass installs wrappers; every
end-to-end metric is measured without them.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Tracer:
    def __init__(self, run: str):
        self.run = run
        #: [id, name, start, end, parent, run, count] rows; ``count`` is
        #: how many calls a span stands for (1 unless a caller batches)
        self.spans: List[List[Any]] = []
        self._open = threading.local()
        self._lock = threading.Lock()
        self._wrapped: List[Tuple[Any, str, bool, Any]] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, count: int = 1) -> Iterator[List[Any]]:
        stack = self._open.__dict__.setdefault("stack", [])
        with self._lock:
            row = [len(self.spans), name, 0.0, 0.0,
                   stack[-1] if stack else None, self.run, count]
            self.spans.append(row)
        stack.append(row[0])
        row[2] = time.perf_counter()
        try:
            yield row
        finally:
            row[3] = time.perf_counter()
            stack.pop()

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Shadow ``owner.attr`` with a span-recording wrapper."""
        target = getattr(owner, attr)
        had_own = attr in vars(owner)

        @functools.wraps(target)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return target(*args, **kwargs)

        self._wrapped.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, had_own, original in reversed(self._wrapped):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._wrapped = []

    # -- analysis ------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str, under: Optional[int] = None) -> float:
        """Summed self time of the spans called ``name``: each span's
        duration minus the time its direct children cover.  ``under``
        restricts to spans below the span with that id."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        total = 0.0
        for s in self.spans:
            if s[1] == name and (under is None
                                 or self._is_under(s, under)):
                total += (s[3] - s[2]) - child_time.get(s[0], 0.0)
        return total

    def _is_under(self, span: List[Any], root: int) -> bool:
        parent = span[4]
        while parent is not None:
            if parent == root:
                return True
            parent = self.spans[parent][4]
        return False

    def to_json(self) -> List[Dict[str, Any]]:
        keys = ("id", "name", "start", "end", "parent", "run", "count")
        return [dict(zip(keys, s)) for s in self.spans]
