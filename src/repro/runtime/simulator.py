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
  every in-flight message is a scheduled event).  At that moment the
  master's book (:class:`~repro.core.master.MasterBook`) decides: under
  BSP it opens the next superstep instead while any buffer holds mail.

Timing comes from a :class:`~repro.runtime.costmodel.CostModel`; per-worker
speed factors create stragglers.  Runs are bit-for-bit reproducible: events
are totally ordered by ``(time, insertion seq)``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.delay import DelayPolicy
from repro.core.engine import Engine
from repro.core.master import OPEN, MasterBook, local_fleet
from repro.core.step import DS_EPSILON, Fleet, WorkerStep
from repro.core.worker import WorkerState, WorkerStatus
from repro.errors import RuntimeConfigError, TerminationError
from repro.core.result import RunResult
from repro.obs import events as obs_events
from repro.runtime.costmodel import CostModel
from repro.runtime.events import (Custom, Deliver, EventQueue, RoundEnd,
                                  WakeUp)
from repro.runtime.metrics import RunMetrics

#: a worker running more rounds than this is taken for non-terminating
MAX_ROUNDS_PER_WORKER = 1_000_000


class SimulatedRuntime:
    """Run one PIE program to fixpoint under one delay policy.

    Attach an ``observer`` (:class:`repro.obs.Observer`) to keep the run's
    rounds: :func:`repro.obs.export.ascii_gantt` draws them from its log.
    ``record_trace`` is accepted and ignored, for one caller only:
    ``benchmarks/e2e/layers.py`` passes ``record_trace=False``.
    """

    def __init__(self, engine: Engine, policy: DelayPolicy,
                 cost_model: Optional[CostModel] = None,
                 hosts: Optional[Sequence[int]] = None,
                 record_trace: bool = True,
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
        queue = self.queue = EventQueue(
            tiebreak=perturber.tiebreak if perturber is not None else None)
        #: one step per virtual worker; this class only drives them (event
        #: queue, cost model, host slots) — docs/architecture.md.  Their
        #: clock reads the queue, not the runtime: a finished run must stay
        #: free-able by reference count
        self.steps: List[WorkerStep] = [
            WorkerStep(engine, wid, policy, clock=lambda: queue.now,
                       emit=observer.record if observer is not None else None,
                       default_round_time=self.cost.round_time(wid, 1))
            for wid in range(m)]
        self.workers: List[WorkerState] = [s.state for s in self.steps]
        #: asked whenever the event queue drains (nothing runs or flies)
        self.book = MasterBook(m, bsp=policy.supersteps)
        for w in self.workers:
            w.host = host_of[w.wid]
        self.max_events = max_events
        self.snapshot_coordinator = snapshot_coordinator
        # per worker, the running round's (output, costed duration); its
        # messages are held until it ends
        self._running: List[Any] = [None] * m
        # physical hosts: current occupant and FIFO of waiting workers
        num_hosts = max(host_of) + 1 if host_of else 1
        self._host_occupant: List[Optional[int]] = [None] * num_hosts
        self._host_queue: List[List[int]] = [[] for _ in range(num_hosts)]
        self._finished = False
        self._seeded = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (that of the event being handled)."""
        return self.queue.now

    def run(self) -> RunResult:
        """Execute to the simultaneous fixpoint and assemble the answer."""
        if self._finished:
            raise TerminationError("runtime already ran; build a new one")
        if not self._seeded:
            for wid in range(self.engine.num_workers):
                self._try_start(wid)
        self._event_loop()
        self._finished = True
        answer = self.engine.assemble()
        metrics = RunMetrics.from_workers(
            [s.metrics(self.now) for s in self.steps], makespan=self.now,
            into=self.obs.metrics if self.obs is not None else None)
        extras = {"events": self.queue.processed}
        if self.obs is not None:
            extras["obs"] = self.obs
        return RunResult(
            answer=answer, mode=self.policy.name, metrics=metrics,
            rounds=[w.rounds for w in self.workers],
            extras=extras)

    def seed_from_snapshot(self, snapshot) -> None:
        """Resume from a Chandy-Lamport snapshot instead of running PEval.

        Restores status variables, program scratch and buffered messages, then
        marks every worker pending (or inactive when it has no messages).
        """
        import copy
        for wid, ctx in enumerate(self.engine.contexts):
            state = snapshot.fragment_state(wid)
            ctx.import_state(state.values)
            ctx.scratch = copy.deepcopy(state.scratch)
            self.steps[wid].resume(snapshot.buffered_messages(wid))
        self._seeded = True
        self._reevaluate_all()

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _event_loop(self) -> None:
        while True:
            if not self.queue:
                self._quiesced()
                # give suspended workers one more look (rmin may have moved)
                self._reevaluate_all()
                if not self.queue:
                    break
            if self.queue.processed > self.max_events:
                raise TerminationError(
                    f"exceeded max_events={self.max_events}; "
                    f"likely non-terminating program or policy")
            self._dispatch(self.queue.pop())
        self._check_quiescent()

    def _dispatch(self, event) -> None:
        if isinstance(event, RoundEnd):
            self._on_round_end(event.wid)
        elif isinstance(event, Deliver):
            self._on_deliver(event.message)
        elif isinstance(event, WakeUp):
            self._on_wakeup(event.wid, event.epoch)
        elif isinstance(event, Custom):
            self._on_custom(event)
        else:  # pragma: no cover - defensive
            raise TerminationError(f"unknown event {event!r}")

    def _quiesced(self) -> None:
        """Nothing runs or flies: every worker is inactive to the book,
        which answers its probe from the buffers (BSP: opens the next
        superstep while one holds mail)."""
        for wid in range(len(self.steps)):
            self.book.set_inactive(wid)
        if self.book.decide(
                holds=lambda wid: bool(self.workers[wid].buffer)) == OPEN:
            for step in self.steps:
                step.superstep = self.book.superstep

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
        """Run the round's kernel now and schedule its end one cost-model
        duration ahead; its messages are held until then."""
        step, w = self.steps[wid], self.workers[wid]
        w.invalidate_wakeups()
        batches = None if w.status is WorkerStatus.CREATED else step.drain()
        out = step.begin(batches)
        duration = self.cost.round_time(
            wid, out.work, batches_consumed=len(batches or ()),
            messages_sent=len(out.messages))
        if self.perturber is not None:
            duration = self.perturber.round_duration(wid, duration, self.now)
            for at in self.perturber.poke_times(wid, self.now, duration):
                # forced policy re-evaluation: _on_custom re-evaluates all
                self.queue.push(Custom(time=at, tag="fuzz_poke"))
        self._running[wid] = (out, duration)
        self.queue.push(RoundEnd(time=self.now + duration, wid=wid))

    def _on_round_end(self, wid: int) -> None:
        step, w = self.steps[wid], self.workers[wid]
        out, duration = self._running[wid]
        step.finish(out, duration)
        if w.rounds > MAX_ROUNDS_PER_WORKER:
            raise TerminationError(
                f"worker {wid} exceeded {MAX_ROUNDS_PER_WORKER} rounds")
        # release the physical host
        host = w.host
        self._host_occupant[host] = None
        # ship the messages produced by the finished round; snapshot tokens
        # are stamped at *send* time (a snapshot may land mid-round, and
        # its channel state already includes the held messages)
        held = out.messages
        if self.snapshot_coordinator is not None:
            held = self.snapshot_coordinator.stamp_outgoing(wid, held)
        for msg in held:
            arrival = self.now + self.cost.transfer_time(msg.size_bytes)
            if self.perturber is not None:
                arrival = self.perturber.deliver_time(msg, arrival, self.now)
            self.queue.push(Deliver(time=arrival, message=msg))
            step.sent(msg)
        self._running[wid] = None
        self.policy.on_round_complete(step.view(self._fleet()), duration)
        self._drain_host_queue(host)
        self._reevaluate_all()

    def _on_deliver(self, msg) -> None:
        if self.snapshot_coordinator is not None:
            self.snapshot_coordinator.on_deliver(msg.dst, msg, self.now)
        self.steps[msg.dst].arrived(msg)
        self._reevaluate_all()

    def _on_wakeup(self, wid: int, epoch: int) -> None:
        w = self.workers[wid]
        if epoch != w.wake_epoch or w.status is not WorkerStatus.WAITING:
            return
        if not w.buffer:
            self.steps[wid].mark(WorkerStatus.INACTIVE)
            return
        self._reevaluate(wid)

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
                    or (w.status is WorkerStatus.WAITING
                        and self.steps[wid].due())):
                self._host_occupant[host] = wid
                self._start_round(wid)
            # else: the worker no longer wants the host; try the next one

    # ------------------------------------------------------------------
    # policy evaluation
    # ------------------------------------------------------------------
    def _fleet(self) -> Fleet:
        return local_fleet(self.workers, self.now, self.cost.alpha)

    def _reevaluate_all(self) -> None:
        for wid in range(len(self.workers)):
            self._reevaluate(wid)

    def _reevaluate(self, wid: int) -> None:
        w = self.workers[wid]
        if w.status is not WorkerStatus.WAITING or not self.steps[wid].due():
            return
        occupant = self._host_occupant[w.host]
        ds, action = self.steps[wid].decide(
            self._fleet(), host_busy=occupant is not None and occupant != wid)
        if action in ("start", "host_queued"):
            self._try_start(wid)
        elif action == "suspend":
            # suspend until the next state change re-evaluates the policy
            w.invalidate_wakeups()
        else:
            epoch = w.invalidate_wakeups()
            # keep the wake strictly in the future despite float rounding
            wake_at = max(self.now + ds, self.now * (1 + 1e-12) + DS_EPSILON)
            self.queue.push(WakeUp(time=wake_at, wid=wid, epoch=epoch))
