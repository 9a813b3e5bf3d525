"""The master's termination protocol (paper, Section 3, phase 3).

Workers that finish a round with an empty buffer flag ``inactive`` to the
master.  When every worker is inactive, the master broadcasts ``terminate``;
each worker answers ``ack`` if it is still inactive, or ``wait`` if it became
active again (a message raced in).  Any ``wait`` aborts the attempt and the
incremental phase resumes; unanimous ``ack`` ends the run.

:class:`TerminationMaster` implements the protocol for the threaded runtime;
the discrete-event simulator does not need it (its event queue makes global
quiescence directly observable) but uses the same inactive-flag semantics.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from repro.errors import TerminationError


class TerminationMaster:
    """Coordinates termination across ``m`` workers plus in-flight messages.

    Thread-safe.  Also tracks an in-flight message counter so a unanimous
    ``ack`` is only accepted when no message is on the wire (the paper's
    workers cannot be inactive while undelivered designated messages exist,
    because delivery would re-activate them).
    """

    def __init__(self, num_workers: int):
        self._lock = threading.Condition()
        self._inactive = [False] * num_workers
        self._in_flight = 0
        self._terminated = False
        self._errors: List[BaseException] = []
        self.attempts = 0

    # ------------------------------------------------------------------
    # worker-side API
    # ------------------------------------------------------------------
    def abort(self, exc: BaseException) -> None:
        """A worker crashed: record the error and release everybody.

        Termination is forced immediately so the run surfaces the failure
        promptly instead of stalling until the master's timeout.  The first
        recorded error is the one the runtime re-raises; concurrent failures
        are kept (:attr:`errors`) as context instead of overwriting it.
        """
        with self._lock:
            self._errors.append(exc)
            self._terminated = True
            self._lock.notify_all()

    @property
    def aborted(self) -> bool:
        with self._lock:
            return bool(self._errors)

    @property
    def errors(self) -> List[BaseException]:
        """All recorded worker errors, first failure first."""
        with self._lock:
            return list(self._errors)

    def set_inactive(self, wid: int,
                     unless: Callable[[], bool] = None) -> bool:
        """Worker ``wid`` reports an empty buffer after a round; refused
        (False) if ``unless()``, asked under the barrier's lock, is true."""
        with self._lock:
            if unless is not None and unless():
                return False
            self._inactive[wid] = True
            self._lock.notify_all()
            return True

    def set_active(self, wid: int) -> None:
        """Worker ``wid`` received a message (responds ``wait`` if probed)."""
        with self._lock:
            self._inactive[wid] = False

    def message_sent(self, count: int = 1) -> None:
        with self._lock:
            self._in_flight += count

    def message_delivered(self, count: int = 1) -> None:
        with self._lock:
            self._in_flight -= count
            if self._in_flight < 0:
                raise TerminationError("in-flight counter went negative")
            self._lock.notify_all()

    # ------------------------------------------------------------------
    # master-side API
    # ------------------------------------------------------------------
    def try_terminate(self) -> bool:
        """One broadcast/ack round; True iff all workers acked."""
        with self._lock:
            self.attempts += 1
            if all(self._inactive) and self._in_flight == 0:
                self._terminated = True
                self._lock.notify_all()
                return True
            return False

    def wait_for_termination(self, poll: Callable[[], None] = None,
                             timeout: Optional[float] = None,
                             barrier: Callable[[], bool] = None) -> None:
        """Block until unanimous ack (with optional per-iteration ``poll``);
        ``barrier`` (BSP), asked then under this lock, returns True when it
        opened the next superstep instead, woken workers marked active."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._terminated:
                if all(self._inactive) and self._in_flight == 0:
                    if barrier is not None and barrier():
                        continue
                    self._terminated = True
                    self._lock.notify_all()
                    return
                remaining = (0.05 if deadline is None
                             else deadline - time.monotonic())
                if remaining <= 0:
                    raise TerminationError("timed out waiting for termination")
                self._lock.wait(timeout=min(0.05, remaining))
                if poll is not None:
                    poll()

    @property
    def terminated(self) -> bool:
        with self._lock:
            return self._terminated

    @property
    def in_flight(self) -> int:
        """Messages announced as sent but not yet delivered."""
        with self._lock:
            return self._in_flight

    def snapshot_flags(self) -> List[bool]:
        with self._lock:
            return list(self._inactive)
