"""The worker step: Section 3's one worker, driven by every runtime.

The paper defines a single worker ``P_i`` — drain ``B_x̄i``, aggregate,
IncEval, derive ``M(i, j)``, update ``r_i`` / ``t_i`` / ``s_i``, ask delta
for ``DS_i`` — and gets BSP, AP, SSP and AAP by changing delta only.
:class:`WorkerStep` is that worker: it owns the
:class:`~repro.core.worker.WorkerState` and is the only code that runs a
round, consults the delay policy, accounts traffic and emits the round /
message / decision / status records.  A runtime *drives* it and keeps
transport, clock, wake-up and termination; the contract between the two
is the "Worker step" section of ``docs/architecture.md``.  The step never
sleeps or blocks: time is whatever the driver's ``clock`` says.

BSP is one rule here, not a delay: superstep ``s`` consumes exactly the
batches stamped ``< s`` and stamps its output ``s``; a driver opens
``s + 1`` when the master's book says so (:mod:`repro.core.master`).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import replace
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

from repro.core.delay import DelayPolicy, WorkerView
from repro.core.engine import RoundOutput
from repro.core.worker import WorkerMetrics, WorkerState, WorkerStatus
from repro.obs import events as obs_events

#: delay stretches at or below this are "start now" (float safety)
DS_EPSILON = 1e-9
#: floor of a measured round duration, so ``t_i`` is never exactly zero
MIN_ROUND_TIME = 1e-9

#: ``t_i`` before a worker has finished a round, wall-clock seconds
DEFAULT_ROUND_TIME = 1e-4


class Fleet(NamedTuple):
    """What one worker knows of the others when it asks delta, as the
    master's book builds it (:func:`repro.core.master.fleet_of`).

    ``rmin`` / ``rmax`` range over workers that still have pending work
    (``None``: nobody has, the asking worker's own round stands in), so a
    finished worker never pins the bound.
    """

    rmin: Optional[int]
    rmax: Optional[int]
    avg_rate: float
    avg_round_time: float
    num_workers: int


def restamped(messages) -> List[Any]:
    """Restored messages as 0th-superstep traffic: a checkpointed run's
    stamps mean nothing to this one, and BSP's superstep 1 takes them."""
    return [replace(m, round=0) for m in messages]


class WorkerStep:
    """One virtual worker's round protocol, schedule-agnostic.

    Parameters
    ----------
    clock:
        No-argument callable returning the driver's current time.
    emit:
        Optional sink ``emit(type, t, wid, round, payload)``
        (:meth:`repro.obs.Observer.record`, or a list's ``append`` in a
        worker process); ``None`` records nothing and costs nothing.
    default_round_time:
        ``t_i`` before the first round has been observed.
    stretch:
        Optional straggler seam of the wall-clock drivers: called with
        the kernel's CPU seconds (``time.thread_time()``) before the
        round is measured.
    guard:
        Optional context manager under which the driver calls
        :meth:`arrived` from other threads (its buffer lock); the step
        closes a round under it, so the status it leaves agrees with the
        buffer.  Never held across the kernel or ``stretch``.
    """

    __slots__ = ("engine", "policy", "clock", "emit", "state",
                 "default_round_time", "stretch", "guard", "num_peers",
                 "started", "cpu_started", "kind", "superstep")

    def __init__(self, engine: Any, wid: int, policy: DelayPolicy,
                 clock: Callable[[], float],
                 emit: Optional[Callable[..., None]] = None,
                 default_round_time: float = DEFAULT_ROUND_TIME,
                 stretch: Optional[Callable[[float], None]] = None,
                 guard: Any = None):
        self.engine = engine
        self.policy = policy
        self.clock = clock
        self.emit = emit
        self.state = WorkerState(wid)
        self.default_round_time = default_round_time
        self.stretch = stretch
        self.guard = contextlib.nullcontext() if guard is None else guard
        #: potential senders: fragments sharing at least one node
        self.num_peers = len(engine.pg.fragments[wid].peer_fragments())
        #: start time and kind ("peval" / "inceval") of the latest round
        self.started = 0.0
        #: the thread's CPU clock at the kernel's start (with a stretch)
        self.cpu_started = 0.0
        self.kind = "peval"
        #: BSP's open superstep (PEval is the 0th; ``None``: not BSP)
        self.superstep: Optional[int] = 0 if policy.supersteps else None

    def resume(self, buffered=()) -> None:
        """Start from a restored fixpoint or checkpoint instead of PEval,
        ``buffered`` already in; stamps the wait, so the clock must run."""
        w = self.state
        w.rounds = 1
        for msg in restamped(buffered):
            w.buffer.push(msg)
        w.status = (WorkerStatus.WAITING if w.buffer
                    else WorkerStatus.INACTIVE)
        w.idle_since = now = self.clock()
        w.wait_started = now if w.buffer else None

    # -- (1) the round -----------------------------------------------
    def due(self) -> bool:
        """Whether the next round has input: any mail, or under BSP mail
        stamped before the open superstep.  Delta is asked only then."""
        if self.superstep is None:
            return bool(self.state.buffer)
        return any(m.round < self.superstep for m in self.state.buffer.peek())

    def drain(self) -> List[Any]:
        """Take the next round's input (under BSP: the due mail, in
        sender order); the driver serialises it against :meth:`arrived`."""
        return self.state.buffer.drain(self.superstep)

    def begin(self, batches: Optional[List[Any]] = None) -> RoundOutput:
        """Run the kernel of the next round: PEval when ``batches`` is
        ``None``, else IncEval over the drained ``batches``.  Outgoing
        messages are stamped ``r_i``, or under BSP the open superstep.
        ``round_start`` is on record before the kernel runs, so a hung
        round is visible while it hangs.
        """
        w = self.state
        now = self.clock()
        idle, suspended = self._waited(now)
        w.idle_time += idle
        w.suspended_time += suspended
        w.wait_started = None
        self.mark(WorkerStatus.RUNNING)
        self.started = now
        self.kind = "peval" if batches is None else "inceval"
        if self.emit is not None:
            self.emit(obs_events.ROUND_START, now, w.wid, w.rounds,
                      {"kind": self.kind,
                       "batches": 0 if batches is None else len(batches)})
        if self.stretch is not None:
            self.cpu_started = time.thread_time()
        # through the instance each time: profilers wrap these attributes
        if batches is None:
            return self.engine.run_peval(w.wid)
        return self.engine.run_inceval(w.wid, batches, round_no=self.stamp)

    @property
    def stamp(self) -> int:
        """What this worker's output is stamped: ``r_i`` (BSP: ``s``)."""
        return self.state.rounds if self.superstep is None else self.superstep

    def finish(self, out: RoundOutput,
               duration: Optional[float] = None) -> float:
        """Close the round :meth:`begin` opened; returns its duration.

        The simulator supplies the cost model's ``duration`` (and calls
        this when its clock has advanced by it); a wall-clock driver
        passes none and the step measures one, straggler stretch
        included.  The driver ships ``out.messages`` through :meth:`sent`
        next, so ``round_end`` precedes them.
        """
        w = self.state
        if duration is None and self.stretch is not None:
            self.stretch(time.thread_time() - self.cpu_started)
        with self.guard:
            now = self.clock()
            if duration is None:
                duration = max(now - self.started, MIN_ROUND_TIME)
            w.rounds += 1
            w.work_done += out.work
            w.busy_time += duration
            w.round_time.observe_round(duration)
            if self.emit is not None:
                self.emit(obs_events.ROUND_END, now, w.wid, w.rounds - 1,
                          {"kind": self.kind, "duration": duration,
                           "messages": len(out.messages)})
            w.idle_since = now
            self.mark(WorkerStatus.WAITING if w.buffer
                      else WorkerStatus.INACTIVE)
            w.wait_started = now if w.buffer else None
        return duration

    def mark(self, status: WorkerStatus) -> None:
        """Set the lifecycle status (``status_change`` when it moved);
        drivers call it for the transitions only they can see."""
        w = self.state
        if self.emit is not None and w.status is not status:
            self.emit(obs_events.STATUS_CHANGE, self.clock(), w.wid,
                      w.rounds, {"frm": w.status.value, "to": status.value})
        w.status = status

    def _waited(self, now: float) -> Tuple[float, float]:
        """Split the time since the last round (or, before PEval, since
        the run started) into (idle, suspended):
        suspended while work was available but the worker was held (delay
        stretch, gate, busy host), idle while there was none."""
        w = self.state
        gap = max(now - w.idle_since, 0.0)
        waited = (max(now - w.wait_started, 0.0)
                  if w.wait_started is not None else 0.0)
        waited = min(waited, gap)
        return gap - waited, waited

    # -- (2) the decision --------------------------------------------
    def view(self, fleet: Fleet) -> WorkerView:
        """The snapshot delta sees: local state plus the fleet's."""
        w = self.state
        now = self.clock()
        return WorkerView(
            wid=w.wid, round=w.rounds, eta=w.eta,
            rmin=w.rounds if fleet.rmin is None else fleet.rmin,
            rmax=w.rounds if fleet.rmax is None else fleet.rmax,
            idle_time=w.idle_for(now), now=now,
            t_pred=w.round_time.predict(default=self.default_round_time),
            s_pred=w.arrival_rate.predict(now=now),
            fleet_avg_rate=fleet.avg_rate, num_workers=fleet.num_workers,
            num_peers=self.num_peers,
            fleet_avg_round_time=fleet.avg_round_time)

    def decide(self, fleet: Fleet,
               host_busy: bool = False) -> Tuple[float, str]:
        """Ask delta for ``DS_i``; returns ``(ds, action)``.

        ``action`` names what the driver must do: ``"start"`` the round
        (``"host_queued"`` when ``host_busy``: released, but its physical
        host is taken), ``"suspend"`` until a state change asks again, or
        ``"wake_scheduled"`` — hold for ``ds`` and ask again.  The record
        precedes the action it names: cause before effect.
        """
        view = self.view(fleet)
        if self.emit is None:
            ds = self.policy.delay(view)
        else:
            # decide() returns the same DS as delay() plus audit details,
            # so attaching an observer never changes scheduling
            ds, why = self.policy.decide(view)
        if ds <= DS_EPSILON:
            action = "host_queued" if host_busy else "start"
        elif math.isinf(ds):
            action = "suspend"
        else:
            action = "wake_scheduled"
        if self.emit is not None:
            self.emit(obs_events.DS_DECISION, view.now, view.wid, view.round,
                      {"ds": ds, "action": action, "eta": view.eta,
                       "t_pred": view.t_pred, "s_pred": view.s_pred,
                       "rmin": view.rmin, "rmax": view.rmax,
                       "t_idle": view.idle_time,
                       "reason": why.pop("reason", ""), **why})
        return ds, action

    # -- (3) the traffic ---------------------------------------------
    def sent(self, msg: Any) -> None:
        """``msg``, produced by the latest round, reaches the wire."""
        w = self.state
        w.messages_sent += 1
        w.bytes_sent += msg.size_bytes
        if self.emit is not None:
            self.emit(obs_events.MSG_SEND, self.clock(), w.wid, w.rounds - 1,
                      {"dst": msg.dst, "bytes": msg.size_bytes,
                       "seq": msg.seq, "entries": len(msg)})

    def arrived(self, msg: Any) -> None:
        """``msg`` lands in the buffer ``B_x̄i``; an inactive worker
        becomes a waiting one.  The driver serialises this against its
        drain (the paper's single race condition)."""
        w = self.state
        now = self.clock()
        w.buffer.push(msg)
        w.arrival_rate.observe_arrival(now)
        w.last_arrival = now
        if self.emit is not None:
            self.emit(obs_events.MSG_DELIVER, now, w.wid, w.rounds,
                      {"src": msg.src, "bytes": msg.size_bytes,
                       "seq": msg.seq, "depth": w.buffer.staleness})
        if w.status is WorkerStatus.INACTIVE:
            self.mark(WorkerStatus.WAITING)
            w.wait_started = now
        elif w.status is WorkerStatus.WAITING and w.wait_started is None:
            w.wait_started = now

    # -- (4) the statistics ------------------------------------------
    def metrics(self, now: Optional[float] = None) -> WorkerMetrics:
        """Final statistics, with the trailing non-running segment closed
        at ``now`` and split exactly as :meth:`begin` splits one: a worker
        that ends the run under a delay stretch was suspended, not idle."""
        w = self.state
        idle = suspended = 0.0
        if w.status is not WorkerStatus.RUNNING:
            idle, suspended = self._waited(
                self.clock() if now is None else now)
        return WorkerMetrics(
            wid=w.wid, rounds=w.rounds, busy_time=w.busy_time,
            idle_time=w.idle_time + idle,
            suspended_time=w.suspended_time + suspended,
            messages_sent=w.messages_sent,
            messages_received=w.buffer.total_received,
            bytes_sent=w.bytes_sent, bytes_received=w.buffer.total_bytes,
            work_done=w.work_done)
