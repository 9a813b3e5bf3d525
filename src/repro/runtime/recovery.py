"""Graceful-degradation ladder for worker failures (Section 6).

The paper's Theorem 2 guarantees that for monotone PIE programs any
consistent Chandy-Lamport cut is a valid restart point: re-running from the
snapshot reaches the same fixpoint as the uninterrupted run.  Recovery is
organised as a three-rung ladder, each rung strictly cheaper than the next:

1. **In-place respawn** (rung 1, :class:`RespawnRung` and a live
   runtime's repair): threads resume the dead worker's fragment on a new
   thread; processes re-seed it from the last checkpoint and have peers
   re-ship their border values.  Survivors never stop in AP/AAP/SSP and
   pause only at the next barrier in BSP.  Enabled per-runtime with
   ``respawn_budget``.
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
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.errors import RuntimeConfigError, WorkerCrashedError, \
    WorkerFailureError
from repro.obs import events as obs_events
from repro.runtime.detection import FailureDetector, FailureEvent
from repro.runtime.faultplan import _mix
from repro.runtime.snapshot import GlobalSnapshot, LiveCheckpointer


def check_live_knobs(timeout: float, respawn_budget: int,
                     checkpoint_interval: Optional[float]) -> None:
    """Refuse a live runtime's knobs when it is built, before anything
    runs (``checkpoint_interval`` ``None``: no checkpoints)."""
    for ok, rule, value in (
            (timeout > 0, "timeout must be positive", timeout),
            (respawn_budget >= 0, "respawn_budget must be >= 0",
             respawn_budget),
            (checkpoint_interval is None or checkpoint_interval > 0,
             "checkpoint interval must be positive", checkpoint_interval)):
        if not ok:
            raise RuntimeConfigError(f"{rule}, got {value!r}")


class Repaired(NamedTuple):
    """A repair's part of the respawn record."""

    token: Optional[int]  # the checkpoint it seeded from (None: no seed)
    takeover: bool  # the fragment was rebuilt, not resumed
    reshipped: int  # peers that re-shipped their border to it


class RespawnRung:
    """Rung 1 of one live run: all of an in-place respawn but the repair.

    :meth:`poll` logs the failure detector's verdicts and gates each death
    on its slot's respawn budget, then hands it to the runtime's
    ``repair(wid)``.  A repair refuses (:meth:`refuse`) or passes the point
    of no return (:meth:`respawn`) and returns :class:`Repaired`; a death
    left unrepaired raises :class:`WorkerCrashedError` for rung 2.

    It reads live runtime ``rt``'s knobs and keeps nothing of it, so a
    finished run is freed by reference count: ``repair`` comes with each
    poll, and records go to its observer's log stamped by ``clock`` (the
    run's seconds).  Only an armed run (faults or checkpoints) polls.
    """

    def __init__(self, rt: Any, num_workers: int,
                 ckpt: Optional[LiveCheckpointer],
                 clock: Callable[[], float]):
        self.limit = rt.respawn_budget
        #: in-place respawns each worker slot has left
        self.budget = [self.limit] * num_workers
        armed = rt.fault_plan is not None or ckpt is not None
        self.detector = FailureDetector(
            num_workers, rt.heartbeat_interval, rt.heartbeat_timeout,
            now=time.monotonic()) if armed else None
        self.ckpt = ckpt
        self.log = None if rt.obs is None else rt.obs.log
        self.clock = clock
        #: structured failure log (heartbeat misses, detected deaths)
        self.failures: List[FailureEvent] = []
        #: one record per in-place respawn
        self.respawns: List[Dict[str, Any]] = []

    def _emit(self, type_: str, **payload) -> None:
        if self.log is not None:
            self.log.emit(type_, self.clock(), **payload)

    def checkpoint(self, now: float, in_flight: int) -> None:
        """Complete the open checkpoint epoch if it can be, and record it."""
        snap = self.ckpt.maybe_complete(now, in_flight)
        if snap is not None:
            self._emit(obs_events.CHECKPOINT, token=snap.token,
                       workers=snap.num_workers_recorded,
                       channel_messages=snap.num_channel_messages)

    def poll(self, now: float, alive: Callable[[int], bool],
             repair: Callable[[int], Any]) -> None:
        """One detector check at ``now``, its monotonic clock."""
        t = self.clock()
        for s in self.detector.check(now, alive=alive):
            self.failures.append(FailureEvent(
                t=t, kind=s.kind, wid=s.wid, detail=f"age={s.age:.3f}s"))
            if not s.fatal:
                self._emit(obs_events.HEARTBEAT_MISS, wid=s.wid, age=s.age)
                continue
            self._emit(obs_events.FAILURE_DETECTED, wid=s.wid,
                       reason=s.kind, age=s.age)
            t0 = time.monotonic()
            spent = self.budget[s.wid] <= 0
            if spent and self.limit > 0:  # budget 0: the rung is off
                self.refuse(s.wid, "respawn budget exhausted")
            done = not spent and repair(s.wid)
            if not done:
                raise WorkerCrashedError(
                    wid=s.wid, reason=s.kind, detected_at=t,
                    checkpoint=None if self.ckpt is None else self.ckpt.last,
                    failures=self.failures, detection_latency=s.age)
            self._record(s.wid, t, time.monotonic() - t0, done)

    def refuse(self, wid: int, reason: str) -> bool:
        """The repair cannot be made: degrade to rollback."""
        self._emit(obs_events.DEGRADE, wid=wid, frm="respawn",
                   to="rollback", reason=reason)
        return False

    def respawn(self, wid: int) -> int:
        """The point of no return: spend one of the slot's respawns;
        returns the incarnation the replacement's heartbeats carry."""
        self.budget[wid] -= 1
        return self.detector.respawn(wid, time.monotonic())

    def _record(self, wid: int, t: float, duration: float,
                done: Repaired) -> None:
        incarnation = self.detector.incarnation(wid)
        seeded = done.token is not None
        left = self.budget[wid]
        self.respawns.append({
            "wid": wid, "incarnation": incarnation, "seeded": seeded,
            "token": done.token, "takeover": done.takeover, "t": t,
            "duration": duration, "budget_left": left})
        self._emit(obs_events.WORKER_RESPAWN, wid=wid,
                   incarnation=incarnation, seeded=seeded,
                   token=done.token, budget_left=left)
        self._emit(obs_events.FRAGMENT_TAKEOVER, wid=wid,
                   incarnation=incarnation, reshipped=done.reshipped,
                   duration=duration)


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
            # the next factory call reads the crash, not its traceback,
            # whose frames (this one included) would hold the failed
            # attempt, its partition and so its worker pool in a cycle
            last_crash = crash.with_traceback(None)
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

