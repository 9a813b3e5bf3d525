"""Discrete-event core: a deterministic future-event queue.

Events are totally ordered by ``(time, seq)`` where ``seq`` is the insertion
counter, so simultaneous events fire in schedule order and every run is
reproducible bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional, Tuple

from repro.core.messages import Message


@dataclass(frozen=True)
class Event:
    """Base event; subclasses carry their payload."""

    time: float


@dataclass(frozen=True)
class RoundEnd(Event):
    """Worker ``wid`` finishes its current round (messages become visible)."""

    wid: int = 0


@dataclass(frozen=True)
class Deliver(Event):
    """Message arrives at its destination worker's buffer."""

    message: Message = None


@dataclass(frozen=True)
class WakeUp(Event):
    """A delay stretch expired; re-evaluate worker ``wid``.

    ``epoch`` implements lazy cancellation: the event is ignored unless it
    matches the worker's current wake epoch.
    """

    wid: int = 0
    epoch: int = 0


@dataclass(frozen=True)
class Custom(Event):
    """Extension point (fault injection, snapshot requests)."""

    tag: str = ""
    payload: Any = None


class EventQueue:
    """Min-heap of events with deterministic total order.

    ``tiebreak`` (optional, no-arg callable) supplies a secondary sort key
    for simultaneous events; the default is pure insertion order.  The
    schedule fuzzer passes a seeded random source here to explore different
    — but still reproducible — interleavings of same-time events (the
    insertion counter stays as the final key, so even equal tiebreaks keep
    a deterministic total order).
    """

    __slots__ = ("_heap", "_counter", "processed", "_tiebreak", "now")

    def __init__(self, tiebreak=None):
        self._heap = []
        self._counter = itertools.count()
        self.processed = 0
        self._tiebreak = tiebreak
        #: simulated time: that of the latest event popped
        self.now = 0.0

    def push(self, event: Event) -> None:
        if event.time < 0:
            raise ValueError(f"event time must be >= 0, got {event.time}")
        sub = 0.0 if self._tiebreak is None else self._tiebreak()
        heapq.heappush(self._heap,
                       (event.time, sub, next(self._counter), event))

    def pop(self) -> Event:
        self.now, _, _, event = heapq.heappop(self._heap)
        self.processed += 1
        return event

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
