"""Per-worker runtime state, the same record on every runtime.

A :class:`WorkerState` tracks what Section 3 of the paper attaches to each
virtual worker ``P_i``: its message buffer ``B_x̄_i``, its current round
``r_i``, its status, idle bookkeeping for ``T_idle``, and the predictors that
feed the adjustment function delta.  It is owned and mutated by a
:class:`~repro.core.step.WorkerStep`; :class:`WorkerMetrics` is what the
step exports from it when the run ends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.messages import MessageBuffer
from repro.core.predictors import ArrivalRatePredictor, RoundTimePredictor


class WorkerStatus(enum.Enum):
    """Lifecycle of a virtual worker between rounds."""

    #: created; PEval has not started yet
    CREATED = "created"
    #: executing PEval or IncEval
    RUNNING = "running"
    #: suspended under a delay stretch (buffer may be non-empty)
    WAITING = "waiting"
    #: finished a round with an empty buffer; flagged inactive to the master
    INACTIVE = "inactive"


@dataclass
class WorkerMetrics:
    """Final statistics of one virtual worker."""

    wid: int
    rounds: int = 0
    busy_time: float = 0.0
    idle_time: float = 0.0
    suspended_time: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    work_done: int = 0


class WorkerState:
    """Mutable state of one virtual worker."""

    __slots__ = ("wid", "buffer", "rounds", "status", "idle_since",
                 "round_time", "arrival_rate", "wake_epoch",
                 "busy_time", "idle_time", "suspended_time",
                 "messages_sent", "bytes_sent", "work_done", "host",
                 "wait_started", "last_arrival")

    def __init__(self, wid: int, host: Optional[int] = None):
        self.wid = wid
        self.buffer = MessageBuffer()
        self.rounds = 0
        self.status = WorkerStatus.CREATED
        #: when the worker last stopped computing (for T_idle)
        self.idle_since = 0.0
        self.round_time = RoundTimePredictor()
        self.arrival_rate = ArrivalRatePredictor()
        #: invalidates stale scheduled wake-ups (lazy cancellation)
        self.wake_epoch = 0
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.suspended_time = 0.0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.work_done = 0
        self.host = host if host is not None else wid
        #: when the current work-available-but-waiting period began (or
        #: None); PEval is pending from the driver's time 0, its run start
        self.wait_started: Optional[float] = 0.0
        #: when the last message batch arrived (for the T_idle reference)
        self.last_arrival = 0.0

    # ------------------------------------------------------------------
    @property
    def eta(self) -> int:
        """Staleness: buffered message batches."""
        return self.buffer.staleness

    @property
    def pending(self) -> bool:
        """True when the worker still has work to do (counts toward r_min)."""
        if self.status is WorkerStatus.RUNNING:
            return True
        if self.status is WorkerStatus.CREATED:
            return True
        return bool(self.buffer)

    def idle_for(self, now: float) -> float:
        """``T_idle``: unproductive waiting time.

        Measured since the latest of (last round end, last message arrival):
        while updates keep arriving the worker is accumulating productively,
        so the indefinite-waiting guard only starts once the flux pauses.
        """
        if self.status is WorkerStatus.RUNNING:
            return 0.0
        return max(now - max(self.idle_since, self.last_arrival), 0.0)

    def invalidate_wakeups(self) -> int:
        """Bump the wake epoch so previously scheduled wake-ups are ignored."""
        self.wake_epoch += 1
        return self.wake_epoch

    def __repr__(self) -> str:
        return (f"WorkerState(wid={self.wid}, status={self.status.value}, "
                f"round={self.rounds}, eta={self.eta})")
