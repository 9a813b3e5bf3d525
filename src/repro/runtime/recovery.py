"""Graceful-degradation ladder for worker failures (Section 6).

The paper's Theorem 2 guarantees that for monotone PIE programs any
consistent Chandy-Lamport cut is a valid restart point: re-running from the
snapshot reaches the same fixpoint as the uninterrupted run.  Recovery is
organised as a three-rung ladder, each rung strictly cheaper than the next:

1. **In-place respawn** (rung 1, inside the runtimes): the master
   quarantines the dead worker, respawns a replacement in place, re-seeds
   its fragment from the last checkpoint and has peers re-ship their
   border values.  Survivors never stop in AP/AAP/SSP and pause only at
   the next barrier in BSP.  Enabled per-runtime with ``respawn_budget``.
2. **Whole-run rollback** (rung 2, :func:`run_with_recovery`): when the
   respawn budget is exhausted — or the runtime cannot take the fragment
   over — the supervisor builds a fresh runtime seeded from the last
   complete checkpoint and retries with bounded, optionally jittered
   exponential backoff.
3. **Structured failure** (rung 3): once the retry budget or wall-clock
   deadline is spent, a :class:`~repro.errors.WorkerFailureError` carrying
   the accumulated failure log and the last checkpoint is raised, instead
   of hanging or losing the evidence.

Each downward transition emits a :data:`~repro.obs.events.DEGRADE` event.

A conformance cell that carries a fault plan
(:class:`repro.fuzz.Cell`, behind ``repro chaos`` and ``repro fuzz --grid
chaos``) runs through :func:`run_with_recovery` and reads the deepest
rung, respawns and detection latencies from ``extras["recovery"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import RuntimeConfigError, WorkerCrashedError, \
    WorkerFailureError
from repro.obs import events as obs_events
from repro.runtime.detection import FailureEvent
from repro.runtime.faultplan import _mix
from repro.runtime.snapshot import GlobalSnapshot


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for failure recovery.

    ``deadline`` caps the *total* wall-clock budget of the supervisor loop:
    a retry whose backoff would overrun it degrades straight to rung 3.
    ``jitter`` spreads retry storms: each delay is scaled by a factor drawn
    deterministically from ``[1 - jitter, 1 + jitter)`` keyed on
    ``(seed, attempt)``, so the same policy replays the same schedule.
    """

    max_retries: int = 2
    backoff: float = 0.05
    factor: float = 2.0
    max_backoff: float = 1.0
    #: total wall-clock budget in seconds (None = unbounded)
    deadline: Optional[float] = None
    #: relative jitter amplitude in [0, 1]; 0 disables jitter
    jitter: float = 0.0
    #: seed for the deterministic jitter stream
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise RuntimeConfigError(
                f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff < 0 or self.max_backoff < 0 or self.factor < 1.0:
            raise RuntimeConfigError(
                f"invalid backoff parameters: {self!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise RuntimeConfigError(
                f"deadline must be positive, got {self.deadline!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise RuntimeConfigError(
                f"jitter must be in [0, 1], got {self.jitter!r}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        base = min(self.backoff * self.factor ** max(attempt - 1, 0),
                   self.max_backoff)
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        u = _mix(self.seed, 0x5E71, attempt)
        return max(base * (1.0 + self.jitter * (2.0 * u - 1.0)), 0.0)


def run_with_recovery(runtime_factory: Callable[..., Any],
                      retry: Optional[RetryPolicy] = None,
                      observer: Optional[Any] = None,
                      sleep: Callable[[float], None] = time.sleep,
                      clock: Callable[[], float] = time.monotonic):
    """Run a live runtime, rolling back to checkpoints on worker failure.

    ``runtime_factory(snapshot, attempt, crash)`` must return a *fresh*
    runtime, already seeded from ``snapshot`` when it is not ``None``
    (attempt 0 always receives ``None``).  ``crash`` is the
    :class:`WorkerCrashedError` that ended the previous attempt (``None``
    on attempt 0) — that is how a supervisor disarms exactly the crash
    fault that fired, via
    :meth:`~repro.runtime.faultplan.FaultPlan.without_crash`, while leaving
    the rest of the chaos script armed.

    The retry loop stops — raising :class:`WorkerFailureError` (with the
    accumulated in-place respawn log attached as ``.respawns``) — when
    either ``retry.max_retries`` restarts have failed or the next backoff
    would overrun ``retry.deadline`` seconds of total wall-clock time.

    Returns the successful :class:`~repro.core.result.RunResult`, with
    ``extras["recovery"]`` summarising attempts / recoveries / in-place
    respawns / failures and the deepest ladder rung reached (0 = clean,
    1 = respawn only, 2 = rollback).
    """
    retry = retry or RetryPolicy()
    snapshot: Optional[GlobalSnapshot] = None
    failures: List[FailureEvent] = []
    crashes: List[Dict[str, Any]] = []
    respawn_log: List[Dict[str, Any]] = []
    recoveries = 0
    attempt = 0
    last_crash: Optional[WorkerCrashedError] = None
    start = clock()
    while True:
        runtime = runtime_factory(snapshot, attempt, last_crash)
        try:
            result = runtime.run()
        except WorkerCrashedError as crash:
            respawn_log.extend(
                dict(r) for r in getattr(runtime, "respawns", None) or [])
            failures.extend(crash.failures or [FailureEvent(
                t=crash.detected_at, kind=crash.reason, wid=crash.wid)])
            crashes.append({"wid": crash.wid, "reason": crash.reason,
                            "detected_at": crash.detected_at,
                            "detection_latency": crash.detection_latency})
            if crash.checkpoint is not None:
                snapshot = crash.checkpoint
            last_crash = crash
            backoff = retry.delay(attempt + 1)
            out_of_retries = attempt >= retry.max_retries
            out_of_time = (retry.deadline is not None
                           and (clock() - start) + backoff > retry.deadline)
            if out_of_retries or out_of_time:
                reason = ("retry budget exhausted" if out_of_retries else
                          f"deadline {retry.deadline}s would be exceeded")
                if observer is not None:
                    observer.log.emit(
                        obs_events.DEGRADE, crash.detected_at,
                        wid=crash.wid, frm="rollback", to="fail",
                        reason=reason)
                err = WorkerFailureError(
                    wid=crash.wid, failures=failures, checkpoint=snapshot,
                    attempts=attempt + 1)
                err.respawns = respawn_log
                raise err from crash
            attempt += 1
            recoveries += 1
            if observer is not None:
                observer.log.emit(
                    obs_events.ROLLBACK, crash.detected_at,
                    wid=crash.wid, attempt=attempt,
                    token=snapshot.token if snapshot is not None else -1)
                observer.log.emit(obs_events.RETRY, crash.detected_at,
                                  wid=crash.wid, attempt=attempt,
                                  backoff=backoff)
            if backoff > 0:
                sleep(backoff)
            continue
        respawn_log.extend(
            dict(r) for r in getattr(runtime, "respawns", None) or [])
        result.extras["recovery"] = {
            "attempts": attempt + 1,
            "recoveries": recoveries,
            "respawns": respawn_log,
            "failures": list(failures),
            "crashes": list(crashes),
            "resumed_from_checkpoint": snapshot is not None,
            "rung": 2 if recoveries else (1 if respawn_log else 0),
        }
        return result

