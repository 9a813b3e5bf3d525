"""Deterministic discrete-event runtime for AAP and its special cases.

This is the primary runtime of the reproduction (DESIGN.md, Section 2): it
executes a PIE program over partitioned fragments exactly as Section 3 of the
paper prescribes —

- *Partial evaluation*: every worker runs PEval at time 0 and pushes its
  designated messages point-to-point.
- *Incremental evaluation*: a worker is triggered when (a) its buffer is
  non-empty and (b) it has been suspended for its delay stretch ``DS_i``;
  the delay stretch is re-evaluated by the :class:`~repro.core.delay.
  DelayPolicy` on every state change (round completions, message arrivals,
  progress of other workers).
- *Termination*: a worker with an empty buffer after a round becomes
  inactive; the run terminates when no worker is pending and no message is in
  flight (which is exactly "all inactive, all ack" in the event model, since
  every in-flight message is a scheduled event).

Timing comes from a :class:`~repro.runtime.costmodel.CostModel`; per-worker
speed factors create stragglers.  Runs are bit-for-bit reproducible: events
are totally ordered by ``(time, insertion seq)``.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

from repro.core.delay import DelayPolicy, WorkerView
from repro.core.engine import Engine
from repro.core.worker import WorkerState, WorkerStatus
from repro.errors import RuntimeConfigError, TerminationError
from repro.core.result import RunResult
from repro.obs import events as obs_events
from repro.runtime.costmodel import CostModel
from repro.runtime.events import (Custom, Deliver, EventQueue, HostFree,
                                  RoundEnd, WakeUp)
from repro.runtime.metrics import (RunMetrics, WorkerMetrics,
                                   registry_from_workers)
from repro.runtime.trace import TraceRecorder

#: delay stretches at or below this are treated as zero (float safety)
_DS_EPSILON = 1e-9


class SimulatedRuntime:
    """Run one PIE program to fixpoint under one delay policy."""

    def __init__(self, engine: Engine, policy: DelayPolicy,
                 cost_model: Optional[CostModel] = None,
                 hosts: Optional[Sequence[int]] = None,
                 record_trace: bool = True,
                 max_rounds_per_worker: int = 1_000_000,
                 max_events: int = 10_000_000,
                 snapshot_coordinator: Optional[Any] = None,
                 observer: Optional[Any] = None,
                 perturber: Optional[Any] = None):
        self.engine = engine
        self.policy = policy
        #: optional repro.obs.Observer; None means zero-overhead no-op
        self.obs = observer
        #: optional repro.fuzz.SchedulePerturber; biases event ordering
        #: (tie-breaks, latency profiles, straggler/burst phases, forced
        #: re-evaluations) without touching any scheduling logic
        self.perturber = perturber
        self.cost = cost_model if cost_model is not None else CostModel()
        m = engine.num_workers
        if hosts is not None:
            if len(hosts) != m:
                raise RuntimeConfigError(
                    f"hosts must map all {m} workers, got {len(hosts)}")
            host_of = list(hosts)
        else:
            host_of = list(range(m))
        self.workers: List[WorkerState] = [
            WorkerState(wid, host=host_of[wid]) for wid in range(m)]
        self.trace = TraceRecorder(enabled=record_trace)
        self.queue = EventQueue(
            tiebreak=perturber.tiebreak if perturber is not None else None)
        self.now = 0.0
        self.max_rounds_per_worker = max_rounds_per_worker
        self.max_events = max_events
        self.snapshot_coordinator = snapshot_coordinator
        # per-worker messages of the running round, released at its end
        self._held: List[List] = [[] for _ in range(m)]
        self._round_started: List[float] = [0.0] * m
        self._round_duration: List[float] = [0.0] * m
        self._round_kind: List[str] = ["peval"] * m
        # physical hosts: current occupant and FIFO of waiting workers
        num_hosts = max(host_of) + 1 if host_of else 1
        self._host_occupant: List[Optional[int]] = [None] * num_hosts
        self._host_queue: List[List[int]] = [[] for _ in range(num_hosts)]
        self._finished = False
        self._seeded = False
        #: a continuation run (:meth:`seed_resume`) leaves Assemble out
        self._assemble = True
        # potential senders per worker: fragments sharing at least one node
        self._num_peers = [len(frag.peer_fragments()) for frag in engine.pg]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute to the simultaneous fixpoint and assemble the answer."""
        if self._finished:
            raise TerminationError("runtime already ran; build a new one")
        if not self._seeded:
            for wid in range(self.engine.num_workers):
                self._try_start(wid)
        self._event_loop()
        self._finished = True
        answer = self.engine.assemble() if self._assemble else None
        metrics = self._collect_metrics()
        extras = {"events": self.queue.processed}
        if self.obs is not None:
            extras["obs"] = self.obs
        return RunResult(
            answer=answer, mode=self.policy.name, metrics=metrics,
            trace=self.trace,
            rounds=[w.rounds for w in self.workers],
            extras=extras)

    def seed_resume(self, messages) -> None:
        """Resume incremental evaluation from pre-derived messages.

        Used by the streaming extension: the engine's contexts already hold
        a (locally updated) fixpoint state; ``messages`` are the designated
        messages derived from the update integration.  PEval is skipped,
        and so is Assemble: the caller holds the previous answer and asks
        the engine for it (or for the delta,
        :meth:`~repro.core.engine.Engine.answer_delta`), so the run's
        ``answer`` is ``None``.
        """
        for wid, w in enumerate(self.workers):
            w.rounds = 1  # PEval logically done in a previous run
            w.status = WorkerStatus.INACTIVE
        for msg in messages:
            w = self.workers[msg.dst]
            w.buffer.push(msg)
            if w.status is not WorkerStatus.WAITING:
                w.status = WorkerStatus.WAITING
                w.wait_started = 0.0
        self._seeded = True
        self._assemble = False
        self._reevaluate_all()

    def seed_from_snapshot(self, snapshot) -> None:
        """Resume from a Chandy-Lamport snapshot instead of running PEval.

        Restores status variables, program scratch and buffered messages, then
        marks every worker pending (or inactive when it has no messages).
        """
        import copy
        for wid, ctx in enumerate(self.engine.contexts):
            state = snapshot.worker_states[wid]
            ctx.values = copy.deepcopy(state.values)
            ctx.scratch = copy.deepcopy(state.scratch)
            ctx.changed = set()
            w = self.workers[wid]
            w.rounds = 1  # PEval logically done
            for msg in snapshot.buffered_messages(wid):
                w.buffer.push(msg)
            if w.buffer:
                w.status = WorkerStatus.WAITING
                w.wait_started = 0.0
            else:
                w.status = WorkerStatus.INACTIVE
            w.idle_since = 0.0
        self._seeded = True
        self._reevaluate_all()

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _event_loop(self) -> None:
        while True:
            if not self.queue:
                # give suspended workers one more look (rmin may have moved)
                self._reevaluate_all()
                if not self.queue:
                    break
            if self.queue.processed > self.max_events:
                raise TerminationError(
                    f"exceeded max_events={self.max_events}; "
                    f"likely non-terminating program or policy")
            event = self.queue.pop()
            self.now = event.time
            self._dispatch(event)
        self._check_quiescent()

    def _dispatch(self, event) -> None:
        if isinstance(event, RoundEnd):
            self._on_round_end(event.wid)
        elif isinstance(event, Deliver):
            self._on_deliver(event.message)
        elif isinstance(event, WakeUp):
            self._on_wakeup(event.wid, event.epoch)
        elif isinstance(event, HostFree):
            self._drain_host_queue(event.host)
        elif isinstance(event, Custom):
            self._on_custom(event)
        else:  # pragma: no cover - defensive
            raise TerminationError(f"unknown event {event!r}")

    def _check_quiescent(self) -> None:
        stuck = [w.wid for w in self.workers
                 if w.status is WorkerStatus.WAITING and w.buffer]
        if self.obs is not None:
            self.obs.log.emit(obs_events.TERMINATE_PROBE, self.now,
                              result="stuck" if stuck else "quiescent")
        if stuck:
            raise TerminationError(
                f"event queue drained but workers {stuck} still have "
                f"buffered messages: the delay policy suspended them forever")

    # ------------------------------------------------------------------
    # round lifecycle
    # ------------------------------------------------------------------
    def _set_status(self, w: WorkerState, status: WorkerStatus) -> None:
        """Assign a worker status, emitting ``status_change`` if observed."""
        if self.obs is not None and w.status is not status:
            self.obs.log.emit(obs_events.STATUS_CHANGE, self.now, wid=w.wid,
                              round=w.rounds, frm=w.status.value,
                              to=status.value)
        w.status = status

    def _try_start(self, wid: int) -> bool:
        """Start a round now if the worker's physical host is free."""
        w = self.workers[wid]
        host = w.host
        occupant = self._host_occupant[host]
        if occupant is not None and occupant != wid:
            if wid not in self._host_queue[host]:
                self._host_queue[host].append(wid)
            return False
        self._host_occupant[host] = wid
        self._start_round(wid)
        return True

    def _start_round(self, wid: int) -> None:
        w = self.workers[wid]
        peval = w.status is WorkerStatus.CREATED
        # close the idle/suspended accounting segment
        if w.status is not WorkerStatus.CREATED:
            gap = max(self.now - w.idle_since, 0.0)
            waited = (max(self.now - w.wait_started, 0.0)
                      if w.wait_started is not None else 0.0)
            waited = min(waited, gap)
            w.suspended_time += waited
            w.idle_time += gap - waited
        w.wait_started = None
        self._set_status(w, WorkerStatus.RUNNING)
        w.invalidate_wakeups()
        round_no = w.rounds
        if peval:
            out = self.engine.run_peval(wid)
            kind = "peval"
            consumed = 0
        else:
            batches = w.buffer.drain()
            out = self.engine.run_inceval(wid, batches, round_no=round_no)
            kind = "inceval"
            consumed = len(batches)
        if self.obs is not None:
            self.obs.log.emit(obs_events.ROUND_START, self.now, wid=wid,
                              round=round_no, kind=kind, batches=consumed)
            if not peval:
                self.obs.metrics.histogram(
                    "eta_at_drain", wid).observe(consumed)
        duration = self.cost.round_time(wid, out.work,
                                        batches_consumed=consumed,
                                        messages_sent=len(out.messages))
        if self.perturber is not None:
            duration = self.perturber.round_duration(wid, duration, self.now)
            for at in self.perturber.poke_times(wid, self.now, duration):
                # forced policy re-evaluation: _on_custom re-evaluates all
                self.queue.push(Custom(time=at, tag="fuzz_poke"))
        self._held[wid] = out.messages
        self._round_started[wid] = self.now
        self._round_duration[wid] = duration
        self._round_kind[wid] = kind
        w.work_done += out.work
        w.busy_time += duration
        self.queue.push(RoundEnd(time=self.now + duration, wid=wid))

    def _on_round_end(self, wid: int) -> None:
        w = self.workers[wid]
        w.rounds += 1
        if w.rounds > self.max_rounds_per_worker:
            raise TerminationError(
                f"worker {wid} exceeded {self.max_rounds_per_worker} rounds")
        duration = self._round_duration[wid]
        self.trace.record(wid, self._round_started[wid], self.now,
                          self._round_kind[wid], w.rounds - 1)
        if self.obs is not None:
            self.obs.log.emit(obs_events.ROUND_END, self.now, wid=wid,
                              round=w.rounds - 1,
                              kind=self._round_kind[wid], duration=duration,
                              messages=len(self._held[wid]))
            self.obs.metrics.histogram(
                "round_duration", wid).observe(duration)
        w.round_time.observe_round(duration)
        # release the physical host
        host = w.host
        self._host_occupant[host] = None
        # ship the messages produced by the finished round; snapshot tokens
        # are stamped at *send* time (a snapshot may land mid-round, and
        # its channel state already includes the held messages)
        held = self._held[wid]
        if self.snapshot_coordinator is not None:
            held = self.snapshot_coordinator.stamp_outgoing(wid, held)
        for msg in held:
            arrival = self.now + self.cost.transfer_time(msg.size_bytes)
            if self.perturber is not None:
                arrival = self.perturber.deliver_time(msg, arrival, self.now)
            self.queue.push(Deliver(time=arrival, message=msg))
            w.messages_sent += 1
            w.bytes_sent += msg.size_bytes
            if self.obs is not None:
                self.obs.log.emit(obs_events.MSG_SEND, self.now, wid=wid,
                                  round=w.rounds - 1, dst=msg.dst,
                                  bytes=msg.size_bytes, seq=msg.seq,
                                  entries=len(msg))
                self.obs.metrics.counter("wire_bytes").inc(msg.size_bytes)
        self._held[wid] = []
        w.idle_since = self.now
        if w.buffer:
            self._set_status(w, WorkerStatus.WAITING)
            w.wait_started = self.now
        else:
            self._set_status(w, WorkerStatus.INACTIVE)
            w.wait_started = None
        self.policy.on_round_complete(self._view(wid), duration)
        self._drain_host_queue(host)
        self._reevaluate_all()

    def _on_deliver(self, msg) -> None:
        w = self.workers[msg.dst]
        if self.snapshot_coordinator is not None:
            self.snapshot_coordinator.on_deliver(msg.dst, msg, self.now)
        w.buffer.push(msg)
        w.arrival_rate.observe_arrival(self.now)
        w.last_arrival = self.now
        if self.obs is not None:
            self.obs.log.emit(obs_events.MSG_DELIVER, self.now, wid=msg.dst,
                              round=w.rounds, src=msg.src,
                              bytes=msg.size_bytes, seq=msg.seq,
                              depth=w.buffer.staleness)
            self.obs.metrics.histogram(
                "buffer_depth", msg.dst).observe(w.buffer.staleness)
        if w.status is WorkerStatus.INACTIVE:
            self._set_status(w, WorkerStatus.WAITING)
            w.wait_started = self.now
        elif w.status is WorkerStatus.WAITING and w.wait_started is None:
            w.wait_started = self.now
        self._reevaluate_all()

    def _on_wakeup(self, wid: int, epoch: int) -> None:
        w = self.workers[wid]
        if epoch != w.wake_epoch or w.status is not WorkerStatus.WAITING:
            return
        if not w.buffer:
            self._set_status(w, WorkerStatus.INACTIVE)
            return
        self._reevaluate(wid, from_wakeup=True)

    def _on_custom(self, event: Custom) -> None:
        if self.snapshot_coordinator is not None and event.tag == "snapshot":
            self.snapshot_coordinator.on_initiate(self, self.now)
        self._reevaluate_all()

    def _drain_host_queue(self, host: int) -> None:
        """Let the first queued virtual worker occupy a freed host."""
        while self._host_queue[host]:
            if self._host_occupant[host] is not None:
                return
            wid = self._host_queue[host].pop(0)
            w = self.workers[wid]
            if (w.status is WorkerStatus.CREATED
                    or (w.status is WorkerStatus.WAITING and w.buffer)):
                self._host_occupant[host] = wid
                self._start_round(wid)
            # else: the worker no longer wants the host; try the next one

    # ------------------------------------------------------------------
    # policy evaluation
    # ------------------------------------------------------------------
    def _pending_rounds(self) -> List[int]:
        return [w.rounds for w in self.workers if w.pending]

    def _view(self, wid: int) -> WorkerView:
        w = self.workers[wid]
        pending = self._pending_rounds()
        rmin = min(pending) if pending else w.rounds
        rmax = max(pending) if pending else w.rounds
        rates = [x.arrival_rate.predict(now=self.now) for x in self.workers]
        finite = [r for r in rates if r > 0 and not math.isinf(r)]
        fleet_avg = sum(finite) / len(finite) if finite else 0.0
        t_preds = [x.round_time.predict(default=self.cost.alpha)
                   for x in self.workers]
        fleet_t = sum(t_preds) / len(t_preds) if t_preds else 1.0
        return WorkerView(
            wid=wid, round=w.rounds, eta=w.eta, rmin=rmin, rmax=rmax,
            idle_time=w.idle_for(self.now), now=self.now,
            t_pred=w.round_time.predict(default=self.cost.round_time(wid, 1)),
            s_pred=w.arrival_rate.predict(now=self.now),
            fleet_avg_rate=fleet_avg,
            num_workers=len(self.workers),
            num_peers=self._num_peers[wid],
            fleet_avg_round_time=fleet_t)

    def _reevaluate_all(self) -> None:
        for wid in range(len(self.workers)):
            self._reevaluate(wid)

    def _reevaluate(self, wid: int, from_wakeup: bool = False) -> None:
        w = self.workers[wid]
        if w.status is not WorkerStatus.WAITING or not w.buffer:
            return
        view = self._view(wid)
        if self.obs is None:
            ds = self.policy.delay(view)
            why = None
        else:
            # decide() returns the same DS as delay() plus audit details,
            # so attaching an observer never changes scheduling
            ds, why = self.policy.decide(view)
        # name the action before performing it, so the decision record
        # precedes its consequences (round_start etc.) in the event stream
        # — cause before effect, which the conformance oracles rely on
        if ds <= _DS_EPSILON:
            occupant = self._host_occupant[w.host]
            action = ("start" if occupant is None or occupant == wid
                      else "host_queued")
        elif math.isinf(ds):
            action = "suspend"
        else:
            action = "wake_scheduled"
        if self.obs is not None:
            self.obs.log.emit(
                obs_events.DS_DECISION, self.now, wid=wid, round=view.round,
                ds=ds, action=action, eta=view.eta, t_pred=view.t_pred,
                s_pred=view.s_pred, rmin=view.rmin, rmax=view.rmax,
                t_idle=view.idle_time, reason=why.pop("reason", ""), **why)
            if math.isinf(ds):
                self.obs.metrics.counter("ds_suspend", wid).inc()
            else:
                self.obs.metrics.histogram("ds_chosen", wid).observe(ds)
        if ds <= _DS_EPSILON:
            self._try_start(wid)
        elif math.isinf(ds):
            # suspend until the next state change re-evaluates the policy
            w.invalidate_wakeups()
        else:
            epoch = w.invalidate_wakeups()
            # keep the wake strictly in the future despite float rounding
            wake_at = max(self.now + ds, self.now * (1 + 1e-12) + _DS_EPSILON)
            self.queue.push(WakeUp(time=wake_at, wid=wid, epoch=epoch))

    # ------------------------------------------------------------------
    def _collect_metrics(self) -> RunMetrics:
        per_worker = []
        for w in self.workers:
            # close the trailing non-RUNNING segment up to the makespan,
            # split into suspended vs. idle exactly as _start_round does:
            # a worker that ends the run under a delay stretch (WAITING)
            # was suspended for that stretch, not idle
            tail_suspended = tail_idle = 0.0
            if w.status is not WorkerStatus.RUNNING:
                gap = max(self.now - w.idle_since, 0.0)
                waited = (max(self.now - w.wait_started, 0.0)
                          if w.wait_started is not None else 0.0)
                tail_suspended = min(waited, gap)
                tail_idle = gap - tail_suspended
            per_worker.append(WorkerMetrics(
                wid=w.wid, rounds=w.rounds, busy_time=w.busy_time,
                idle_time=w.idle_time + tail_idle,
                suspended_time=w.suspended_time + tail_suspended,
                messages_sent=w.messages_sent,
                messages_received=w.buffer.total_received,
                bytes_sent=w.bytes_sent,
                bytes_received=w.buffer.total_bytes,
                work_done=w.work_done))
        if self.obs is not None:
            registry_from_workers(per_worker, into=self.obs.metrics)
            return RunMetrics.from_registry(self.obs.metrics,
                                            makespan=self.now)
        return RunMetrics.from_workers(per_worker, makespan=self.now)
