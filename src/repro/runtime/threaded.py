"""Threaded runtime: real asynchronous execution with OS threads.

Where the simulator *models* asynchrony deterministically, this runtime
*is* asynchronous: one thread per virtual worker, push-based point-to-point
queues, a master that decides termination and BSP's barrier by the
master's book (:class:`~repro.core.master.MasterBook`, asked under one
lock, its probe answered on the spot from the workers' buffers), and delay
stretches realised as wall-clock waits.

Because of the GIL this runtime does not demonstrate speed-up (the repro
band notes compute-heavy async workers need multiprocessing); it
demonstrates *correctness under real races*: the Church-Rosser tests run the
same program here and compare with the reference answer.  A step measures
``t_i`` and ``s_i`` in seconds, so a delay stretch ``DS_i`` is a wait of
``DS_i`` seconds (``MAX_WAIT`` at most), cut short by a delivery.

A worker that raises calls :meth:`ThreadedRuntime.abort`, which releases
every other worker promptly; the first error is re-raised by :meth:`run`
with any concurrent failures attached as notes.

Fault tolerance (paper, Section 6) is opt-in and adds nothing to the
default path: pass a :class:`~repro.runtime.faultplan.FaultPlan` to inject
reproducible chaos at the send seam, a ``checkpoint_interval`` for periodic
live Chandy-Lamport snapshots, and the master then polls rung 1
(:class:`~repro.runtime.recovery.RespawnRung`): within the heartbeat
timeout, a dead worker's fragment resumes on a new thread or the run
raises :class:`~repro.errors.WorkerCrashedError` with the last checkpoint,
for :func:`repro.runtime.recovery.run_with_recovery` to roll back.
"""

from __future__ import annotations

import copy
import functools
import threading
import time
from typing import Any, List, Optional

from repro.core.delay import DelayPolicy
from repro.core.engine import Engine
from repro.core.master import OPEN, STOP, MasterBook, local_fleet
from repro.core.result import RunResult
from repro.core.step import Fleet, WorkerStep
from repro.core.worker import WorkerStatus
from repro.errors import SnapshotError, TerminationError, WorkerCrashedError
from repro.obs import events as obs_events
from repro.runtime.detection import FailureEvent
from repro.runtime.faultplan import FaultPlan, InjectedCrash, fault_kind
from repro.runtime.metrics import RunMetrics
from repro.runtime.recovery import Repaired, RespawnRung, check_live_knobs
from repro.runtime.snapshot import GlobalSnapshot, LiveCheckpointer

#: cap, in seconds, on any single wall-clock wait, so a policy returning
#: large finite delays cannot stall a run
MAX_WAIT = 0.05


class ThreadedRuntime:
    """Run a PIE program on real threads until the termination protocol ends.

    Parameters
    ----------
    timeout:
        Overall run timeout (seconds, positive).
    observer:
        Optional :class:`repro.obs.Observer`; ``None`` (the default) records
        nothing and costs nothing.
    fault_plan:
        Optional :class:`~repro.runtime.faultplan.FaultPlan` of injected
        failures (deterministic given its seed).
    checkpoint_interval:
        Seconds between live Chandy-Lamport checkpoints; ``None`` (default)
        takes none.
    heartbeat_interval / heartbeat_timeout:
        Failure-detector tuning: workers beat every loop iteration; a worker
        silent past the timeout (or whose thread died) is declared failed.
    respawn_budget:
        Surgical-recovery rung 1: how many in-place thread respawns each
        worker slot may spend before a detected death degrades to
        whole-run rollback (``WorkerCrashedError``).  0 (default)
        disables the rung; a negative budget is refused.
    """

    def __init__(self, engine: Engine, policy: DelayPolicy,
                 timeout: float = 120.0,
                 observer: Optional[Any] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 checkpoint_interval: Optional[float] = None,
                 heartbeat_interval: float = 0.02,
                 heartbeat_timeout: float = 1.0,
                 respawn_budget: int = 0):
        check_live_knobs(timeout, respawn_budget, checkpoint_interval)
        self.engine = engine
        self.policy = policy
        self.timeout = timeout
        self.obs = observer
        m = engine.num_workers
        #: the master's book, read and written under ``_master`` only
        self.book = MasterBook(m, bsp=policy.supersteps)
        self._master = threading.Condition()
        self._stopped = False
        #: every worker error, first failure first (:meth:`run` raises it)
        self.errors: List[BaseException] = []
        self._locks = [threading.Lock() for _ in range(m)]
        self._events = [threading.Event() for _ in range(m)]
        # seconds since the run started: the runtime's clock and its
        # steps'.  A closure over a cell, not a method of the runtime, so
        # a finished run stays free-able by reference count
        started = self._started = [0.0]
        self._now = lambda: time.monotonic() - started[0]
        # --- fault tolerance (all optional; None/off by default) ---------
        self.fault_plan = fault_plan
        self._injector = fault_plan.injector() if fault_plan else None
        #: one step per virtual worker; this class only drives them
        #: (thread, lock, wake-up event, the master's loop, fault seams)
        #: — docs/architecture.md
        self.steps = [
            WorkerStep(engine, wid, policy, clock=self._now,
                       emit=observer.record if observer is not None else None,
                       stretch=None if self._injector is None else
                       functools.partial(self._injector.stall, wid,
                                         cap=MAX_WAIT),
                       guard=self._locks[wid])
            for wid in range(m)]
        self.workers = [s.state for s in self.steps]
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._ft = fault_plan is not None or checkpoint_interval is not None
        self._ckpt: Optional[LiveCheckpointer] = (
            LiveCheckpointer(checkpoint_interval, m)
            if checkpoint_interval is not None else None)
        #: the last run's failure log (heartbeat misses, detected deaths)
        self.failures: List[FailureEvent] = []
        self._threads: List[threading.Thread] = []
        self._timers: List[threading.Timer] = []
        self._clean_exit = [False] * m
        #: the checkpoint to resume from instead of PEval, if any
        self._seeded: Optional[GlobalSnapshot] = None
        self.respawn_budget = respawn_budget
        #: one record per successful in-place respawn of the last run
        self.respawns: List[dict] = []
        #: whether this slot's fragment ran PEval (a pre-PEval crash
        #: leaves an uninitialised context the replacement must fill)
        self._peval_done = [False] * m

    # ------------------------------------------------------------------
    @property
    def last_checkpoint(self) -> Optional[GlobalSnapshot]:
        """The most recent complete live checkpoint, or ``None``."""
        return self._ckpt.last if self._ckpt is not None else None

    def seed_from_snapshot(self, snapshot: GlobalSnapshot) -> None:
        """Roll every worker back to a consistent checkpoint before running.

        Restores status variables, program scratch and in-channel messages;
        PEval is skipped (it logically happened before the snapshot).
        """
        if snapshot.num_workers_recorded != self.engine.num_workers:
            raise SnapshotError(
                f"snapshot covers {snapshot.num_workers_recorded} workers, "
                f"engine has {self.engine.num_workers}")
        for wid, ctx in enumerate(self.engine.contexts):
            state = snapshot.worker_states[wid]
            ctx.import_state(state.values)
            ctx.scratch = copy.deepcopy(state.scratch)
        self._seeded = snapshot

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        start = self._started[0] = time.monotonic()
        if self._seeded is not None:
            # only now: the steps stamp their waits with the run's clock
            for wid, step in enumerate(self.steps):
                step.resume(self._seeded.buffered_messages(wid))
        # rung 1's detector, budget and logs, one set per run
        rung = self._rung = RespawnRung(self, self.engine.num_workers,
                                        self._ckpt, self._now)
        self.failures, self.respawns = rung.failures, rung.respawns
        self._threads = [threading.Thread(target=self._worker_loop,
                                          args=(wid,),
                                          name=f"grape-worker-{wid}",
                                          daemon=True)
                         for wid in range(self.engine.num_workers)]
        for t in self._threads:
            t.start()
        crash: Optional[WorkerCrashedError] = None
        try:
            self._await_stop()
        except WorkerCrashedError as exc:
            crash = exc
            self.abort(exc)  # release every surviving worker
        for wid in range(self.engine.num_workers):
            self._events[wid].set()  # release any sleeper
        for t in self._threads:
            t.join(timeout=5.0)
        # a timer, fired or not, holds ``_deliver``: keeping them would
        # keep this runtime in a reference cycle
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._emit(obs_events.TERMINATE_PROBE,
                   result="aborted" if self.errors else "quiescent")
        if crash is not None:
            raise crash
        errors = self.errors
        if errors:
            first = errors[0]
            for other in errors[1:]:
                if hasattr(first, "add_note"):  # pragma: no branch
                    first.add_note(
                        f"concurrent worker failure: {other!r}")
            raise first
        makespan = self._now()
        answer = self.engine.assemble()
        metrics = RunMetrics.from_workers(
            [s.metrics(makespan) for s in self.steps], makespan=makespan,
            into=self.obs.metrics if self.obs is not None else None)
        extras = {} if self.obs is None else {"obs": self.obs}
        if self._ckpt is not None:
            extras["checkpoints"] = self._ckpt.completed
        return RunResult(answer=answer, mode=f"{self.policy.name}-threaded",
                         metrics=metrics,
                         rounds=[w.rounds for w in self.workers],
                         extras=extras)

    # ------------------------------------------------------------------
    def _await_stop(self) -> None:
        """The master: ask the book whenever a report wakes it (at least
        every 50 ms, then the fault-tolerance poll) until it says stop, a
        worker aborts, or the timeout passes."""
        deadline = time.monotonic() + self.timeout
        with self._master:
            while not self._stopped:
                if self._ask_book() == STOP:
                    self._stopped = True
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TerminationError("timed out waiting for termination")
                self._master.wait(timeout=min(0.05, remaining))
                if self._ft:
                    self._ft_poll()

    def _ask_book(self) -> str:
        """The book's decision, its probe answered on the spot: a worker
        waits iff its buffer holds mail (safe without the worker's lock: a
        delivery is buffered before it is credited under this one).  A
        superstep wakes the workers with mail due; the rest report."""
        decision = self.book.decide(
            holds=lambda wid: bool(self.workers[wid].buffer))
        if decision == OPEN:
            for wid, step in enumerate(self.steps):
                step.superstep = self.book.superstep
                if step.due():
                    self._events[wid].set()
                else:
                    self.book.set_inactive(wid)
        return decision

    def abort(self, exc: BaseException) -> None:
        """A worker crashed: stop the run at once, releasing everybody.
        The first error is the one :meth:`run` raises; later ones stay in
        :attr:`errors` as context."""
        with self._master:
            self.errors.append(exc)
            self._stopped = True
            self._master.notify_all()

    # ------------------------------------------------------------------
    def _emit(self, type_: str, **payload) -> None:
        """Runtime-side observability record (probe, checkpoint, faults)."""
        if self.obs is not None:
            self.obs.log.emit(type_, self._now(), **payload)

    # ------------------------------------------------------------------
    # fault-tolerance hooks (never on the default path)
    # ------------------------------------------------------------------
    def _ft_poll(self) -> None:
        """Master-side tick, under the book's lock (every <= 50 ms):
        rotate checkpoints, then rung 1's poll, which raises
        ``WorkerCrashedError`` for a death it cannot repair."""
        if self._stopped:
            return
        now = time.monotonic()
        if self._ckpt is not None:
            self._ckpt.maybe_start(now)
            self._rung.checkpoint(now, self.book.in_flight())
        self._rung.poll(now, alive=self._worker_alive, repair=self._respawn)

    def _worker_alive(self, wid: int) -> bool:
        # a clean exit (master terminated while the poll raced) is not death
        return self._threads[wid].is_alive() or self._clean_exit[wid]

    def _respawn(self, wid: int):
        """Rung 1's repair on threads: resume the fragment on a new thread.

        Threads share the address space, so the dead worker's fragment
        state *survives* its thread: an injected crash fires between
        rounds — a consistent cut under monotone IncEval — and everything
        its final round produced was already shipped.  Takeover is
        therefore pure resumption on the surviving context: no checkpoint
        reseed, no border re-ship, no quarantine, and surviving workers
        never pause at all.
        """
        if self._threads[wid].is_alive():
            # hung, not dead: its next step would race the replacement
            # on the same shared context — never run two incarnations
            # of one fragment concurrently
            return self._rung.refuse(wid, "old thread is hung, not dead")
        incarnation = self._rung.respawn(wid)
        if self._injector is not None:
            # the fired crash consumed its schedule slot; un-mark the
            # slot so any *later* scheduled crash for it can still fire
            self._injector.reset_worker(wid)
        self._clean_exit[wid] = False
        replacement = threading.Thread(
            target=self._worker_loop, args=(wid,),
            name=f"grape-worker-{wid}-r{incarnation}", daemon=True)
        self._threads[wid] = replacement
        # mark active before the thread runs: the master must not reach
        # a termination verdict between start() and the first loop tick
        with self._master:
            self.book.set_active(wid)
        replacement.start()
        self._events[wid].set()
        return Repaired(token=None, takeover=False, reshipped=0)

    def _ft_tick(self, wid: int) -> None:
        """Worker-side tick: heartbeat, injected crash, checkpoint record."""
        detector = self._rung.detector
        detector.beat(wid, time.monotonic(), detector.incarnation(wid))
        if self._injector is not None:
            w = self.workers[wid]
            if self._injector.crash_due(wid, w.rounds):
                self._emit(obs_events.FAULT_INJECTED, wid=wid,
                           round=w.rounds, fault="crash",
                           detail=f"round={w.rounds}")
                raise InjectedCrash(wid, w.rounds)
        if self._ckpt is not None:
            coord = self._ckpt.current
            if coord is not None and not coord.recorded(wid):
                # record between rounds, atomically with the buffer peek
                with self._locks[wid]:
                    coord.record_live(wid, self.engine.contexts[wid],
                                      self.workers[wid].buffer.peek())

    # ------------------------------------------------------------------
    def _note_if_inactive(self, wid: int) -> bool:
        """Report inactive unless mail is due, asked under this worker's
        lock (no delivery lands) and the book's (no barrier opens a
        superstep), or the master could end the run or a superstep on an
        undrained buffer; ``status`` moves with it, so no view sees a
        stale RUNNING.  A BSP worker holding only next-superstep mail is
        inactive to the master and waiting to itself."""
        step = self.steps[wid]
        with self._locks[wid]:
            with self._master:
                if not self.book.set_inactive(wid, unless=step.due):
                    return False
                self._master.notify_all()
            step.mark(WorkerStatus.WAITING if step.state.buffer
                      else WorkerStatus.INACTIVE)
            return True

    def _worker_loop(self, wid: int) -> None:
        step = self.steps[wid]
        try:
            if self._ft:
                self._ft_tick(wid)  # at_round <= 0 crashes before PEval
            if self._seeded is None and not self._peval_done[wid]:
                # a respawned thread resumes the surviving context; only
                # the first incarnation (or one whose predecessor died
                # before PEval finished) initialises the fragment
                self._run_round(wid, None)
                self._peval_done[wid] = True
            while not self._stopped:
                if self._ft:
                    self._ft_tick(wid)
                if self._note_if_inactive(wid):
                    self._events[wid].wait(timeout=0.02)
                    self._events[wid].clear()
                    continue
                # a wake-up set by mail already in the buffer is stale:
                # only a delivery after this decision may cut its wait
                self._events[wid].clear()
                ds, action = step.decide(self._fleet())
                if action != "start":
                    step.mark(WorkerStatus.WAITING)
                    self._events[wid].wait(timeout=min(ds, MAX_WAIT))
                    self._events[wid].clear()
                    if action == "suspend":
                        # re-evaluate after any state change
                        continue
                # non-empty: only this thread drains, and it just looked.
                # RUNNING in the same critical section, or a waiting worker
                # with an empty buffer drops out of the fleet's rmin / rmax
                with self._locks[wid]:
                    step.mark(WorkerStatus.RUNNING)
                    batches = step.drain()
                self._run_round(wid, batches)
            self._clean_exit[wid] = True
        except InjectedCrash:
            # simulated hard death: no abort, no error report — the
            # master's failure detector must notice on its own
            return
        except BaseException as exc:
            # abort releases every worker promptly and keeps the first
            # error; concurrent failures are collected, not overwritten
            self.abort(exc)
            self._clean_exit[wid] = True

    def _run_round(self, wid: int, batches: Optional[List[Any]]) -> None:
        step = self.steps[wid]
        out = step.begin(batches)
        duration = step.finish(out)
        for msg in out.messages:
            self._send(msg)
        self.policy.on_round_complete(step.view(self._fleet()), duration)

    def _fleet(self) -> Fleet:
        return local_fleet(self.workers, self._now())

    # ------------------------------------------------------------------
    # transport: _send decides the fate of a message, _deliver lands it
    # ------------------------------------------------------------------
    def _send(self, msg) -> None:
        coord = self._ckpt.current if self._ckpt is not None else None
        if coord is not None:
            msg = coord.stamp_outgoing(msg.src, [msg])[0]
        deliveries = ((msg, 0.0),)
        if self._injector is not None:
            deliveries = self._injector.on_send(msg)
            fault = fault_kind(deliveries)
            if fault is not None:
                self._emit(obs_events.FAULT_INJECTED, wid=msg.src,
                           fault=fault, detail=f"src={msg.src} "
                           f"dst={msg.dst} seq={msg.seq}")
        # a dropped message (no deliveries) never reaches the wire.
        # Producer stats count wire messages only, matching the per-entry
        # batch path (a partially-dropped batch counts its surviving
        # sub-batches, not the dropped entries) — each logical entry is
        # counted exactly once
        for m, delay in deliveries:
            with self._master:
                self.book.announce(m.src, {m.dst: 1})
            self.steps[m.src].sent(m)
            if delay <= 0:
                self._deliver(m)
            else:
                timer = threading.Timer(delay, self._deliver, args=(m,))
                timer.daemon = True
                self._timers.append(timer)
                timer.start()

    def _deliver(self, msg) -> None:
        with self._locks[msg.dst]:
            coord = self._ckpt.current if self._ckpt is not None else None
            if coord is not None:
                coord.on_deliver(msg.dst, msg, self._now())
            self.steps[msg.dst].arrived(msg)
        with self._master:
            self.book.set_active(msg.dst)
            self.book.credit(msg.dst, {msg.src: 1})
            self._master.notify_all()
        self._events[msg.dst].set()
