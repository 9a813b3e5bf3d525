"""Typed event records and the append-only event log.

Every runtime emits the same record types with the same payload keys, so a
run on the simulator, the threaded runtime or the multiprocess runtime can
be analysed (and exported) with the same tooling.  The canonical payload
schema lives in :data:`SCHEMA`; the tests assert every runtime conforms.

Timestamps are in the emitting runtime's time base: simulated time units for
:class:`~repro.runtime.simulator.SimulatedRuntime`, seconds since run start
for the wall-clock runtimes.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from operator import itemgetter
from typing import (Any, Deque, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple, Union)

#: a worker begins PEval or IncEval
ROUND_START = "round_start"
#: a worker finished a round; its messages become visible
ROUND_END = "round_end"
#: a designated message leaves its producer (wid = sender)
MSG_SEND = "msg_send"
#: a designated message lands in the destination buffer (wid = receiver)
MSG_DELIVER = "msg_deliver"
#: a delay policy was consulted; carries the Eq. 1 inputs and the verdict
DS_DECISION = "ds_decision"
#: a worker's lifecycle status changed
STATUS_CHANGE = "status_change"
#: a global synchronisation point (BSP superstep boundary)
BARRIER = "barrier"
#: the master probed for termination (the terminate/ack-or-wait exchange)
TERMINATE_PROBE = "terminate_probe"
#: a worker's heartbeat is overdue but not yet fatal (wid = suspect)
HEARTBEAT_MISS = "heartbeat_miss"
#: the failure detector declared a worker dead (wid = failed worker)
FAILURE_DETECTED = "failure_detected"
#: a Chandy-Lamport checkpoint completed (run-global)
CHECKPOINT = "checkpoint"
#: recovery rolled the computation back to a consistent snapshot
ROLLBACK = "rollback"
#: recovery is restarting the run after a backoff
RETRY = "retry"
#: the fault plan injected an event (crash, drop, delay, duplicate)
FAULT_INJECTED = "fault_injected"
#: a dead worker was respawned in place (wid = respawned worker)
WORKER_RESPAWN = "worker_respawn"
#: a replacement took over its fragment: reseeded + peers re-shipped
FRAGMENT_TAKEOVER = "fragment_takeover"
#: recovery fell down one rung of the degradation ladder
DEGRADE = "degrade"
#: the graph service accepted an update batch into its ingest queue
INGEST = "ingest"
#: one ingested batch was fully applied and re-converged (an epoch)
EPOCH_APPLY = "epoch_apply"
#: admission control shed work (an update batch or a read query)
ADMISSION_SHED = "admission_shed"

EVENT_TYPES = (ROUND_START, ROUND_END, MSG_SEND, MSG_DELIVER, DS_DECISION,
               STATUS_CHANGE, BARRIER, TERMINATE_PROBE, HEARTBEAT_MISS,
               FAILURE_DETECTED, CHECKPOINT, ROLLBACK, RETRY, FAULT_INJECTED,
               WORKER_RESPAWN, FRAGMENT_TAKEOVER, DEGRADE, INGEST,
               EPOCH_APPLY, ADMISSION_SHED)

#: canonical payload keys per event type (shared by every runtime)
SCHEMA: Dict[str, tuple] = {
    ROUND_START: ("kind", "batches"),
    ROUND_END: ("kind", "duration", "messages"),
    MSG_SEND: ("dst", "bytes", "seq", "entries"),
    MSG_DELIVER: ("src", "bytes", "seq", "depth"),
    DS_DECISION: ("ds", "action", "eta", "t_pred", "s_pred", "rmin", "rmax",
                  "t_idle", "reason"),
    STATUS_CHANGE: ("frm", "to"),
    BARRIER: ("step",),
    TERMINATE_PROBE: ("result",),
    HEARTBEAT_MISS: ("age",),
    FAILURE_DETECTED: ("reason", "age"),
    CHECKPOINT: ("token", "workers", "channel_messages"),
    ROLLBACK: ("token", "attempt"),
    RETRY: ("attempt", "backoff"),
    FAULT_INJECTED: ("fault", "detail"),
    WORKER_RESPAWN: ("incarnation", "seeded", "token", "budget_left"),
    FRAGMENT_TAKEOVER: ("incarnation", "reshipped", "duration"),
    DEGRADE: ("frm", "to", "reason"),
    INGEST: ("edges", "depth", "latency"),
    EPOCH_APPLY: ("epoch", "edges", "changed", "duration", "merged"),
    ADMISSION_SHED: ("kind", "reason", "depth"),
}


class _EventFields(NamedTuple):
    """The fields of :class:`ObsEvent`, which adds the payload default."""

    type: str
    #: timestamp in the emitting runtime's time base
    t: float
    #: worker the event concerns (-1 for run-global events)
    wid: int = -1
    #: the worker's round counter when the event fired (-1 when n/a)
    round: int = -1
    payload: Optional[Dict[str, Any]] = None


_new_record = tuple.__new__


class ObsEvent(_EventFields):
    """One structured observability record.

    An immutable named tuple: every observed run builds one per event, so
    it constructs at tuple speed.  ``payload`` defaults to a fresh dict
    per record (hence the ``__new__``; a ``NamedTuple`` default would be
    one shared dict).
    """

    __slots__ = ()

    def __new__(cls, type: str, t: float, wid: int = -1, round: int = -1,
                payload: Optional[Dict[str, Any]] = None):
        return _new_record(cls, (type, t, wid, round,
                                 {} if payload is None else payload))

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.type, "t": self.t, "wid": self.wid,
                "round": self.round, "payload": dict(self.payload)}


def as_event(row) -> ObsEvent:
    """The :class:`ObsEvent` a stored ``(type, t, wid, round, payload)``
    row reads as."""
    return _new_record(ObsEvent, row)


class EventLog:
    """Append-only, thread-safe log of :class:`ObsEvent` records.

    The hot-path contract is that runtimes never write to a log unless an
    observer was attached, so a disabled run pays nothing.  Every write
    goes through :meth:`record` and costs one lock acquisition and one
    append of a plain tuple row, ``(type, t, wid, round, payload)``, the
    payload dict as handed over.  Events are built only when the log is
    read, so no code outside this module sees a row, and :attr:`events`
    is a read-only copy.

    A batch run keeps every record (``capacity=None``).  A resident
    process that emits for as long as it lives passes a ``capacity``: the
    log is then a ring of the most recent ``capacity`` records, and
    :attr:`dropped` counts the ones it let go.  ``len(log)`` is what is
    retained either way.
    """

    __slots__ = ("_rows", "capacity", "dropped", "_lock")

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"event log capacity must be > 0, "
                             f"got {capacity}")
        self.capacity = capacity
        self._rows: Union[List[tuple], Deque[tuple]] = (
            [] if capacity is None else deque(maxlen=capacity))
        #: records a bounded log has overwritten
        self.dropped = 0
        self._lock = threading.Lock()

    def record(self, type: str, t: float, wid: int, round: int,
               payload: Dict[str, Any]) -> None:
        """Store one record."""
        # not ``with``, whose two calls double the lock's cost per read
        self._lock.acquire()
        try:
            if len(self._rows) == self.capacity:
                self.dropped += 1
            self._rows.append((type, t, wid, round, payload))
        finally:
            self._lock.release()

    def emit(self, type: str, t: float, wid: int = -1,
             round: int = -1, **payload: Any) -> None:
        self.record(type, t, wid, round, payload)

    def append(self, event: ObsEvent) -> None:
        self.record(*event)

    def extend(self, events) -> None:
        events = list(events)
        with self._lock:
            if self.capacity is not None:
                self.dropped += max(0, len(self._rows) + len(events)
                                    - self.capacity)
            self._rows.extend(events)

    # ------------------------------------------------------------------
    def _copy(self) -> List[tuple]:
        """The rows, copied under the lock (a ring mutated mid-read raises)."""
        with self._lock:
            return list(self._rows)

    def snapshot(self) -> List[ObsEvent]:
        """The retained records, as of one moment."""
        return [as_event(row) for row in self._copy()]

    @property
    def events(self) -> Tuple[ObsEvent, ...]:
        return tuple(self.snapshot())

    def filter(self, type: Optional[str] = None,
               wid: Optional[int] = None) -> List[ObsEvent]:
        return [as_event(row) for row in self._copy()
                if (type is None or row[0] == type)
                and (wid is None or row[2] == wid)]

    def counts(self) -> Dict[str, int]:
        return dict(Counter(row[0] for row in self._copy()))

    def types(self) -> set:
        return {row[0] for row in self._copy()}

    def payload_keys(self) -> Dict[str, set]:
        """Observed payload-key sets per event type (schema introspection)."""
        out: Dict[str, set] = {}
        for kind, _, _, _, payload in self._copy():
            out.setdefault(kind, set()).update(payload)
        return out

    def sort(self) -> None:
        """Order records by timestamp (stable); for merged worker logs."""
        with self._lock:
            ordered = sorted(self._rows, key=itemgetter(1))
            self._rows.clear()
            self._rows.extend(ordered)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> ObsEvent:
        """One record by position: ``log[-1]`` reads only the latest."""
        with self._lock:
            return as_event(self._rows[index])

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.snapshot())

    def __repr__(self) -> str:
        return f"EventLog({len(self._rows)} events)"
