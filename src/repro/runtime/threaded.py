"""Threaded runtime: real asynchronous execution with OS threads.

Where the simulator *models* asynchrony deterministically, this runtime
*is* asynchronous: one thread per virtual worker, push-based point-to-point
queues, the paper's master termination protocol
(:class:`~repro.core.master.TerminationMaster`), and delay stretches
realised as wall-clock waits.

Because of the GIL this runtime does not demonstrate speed-up (the repro
band notes compute-heavy async workers need multiprocessing); it
demonstrates *correctness under real races*: the Church-Rosser tests run the
same program here and compare with the reference answer.  Wall-clock delay
stretches are scaled by ``time_scale`` so tests stay fast.

A worker that raises calls :meth:`TerminationMaster.abort`, which releases
every other worker promptly; the first error is re-raised by :meth:`run`
with any concurrent failures attached as notes.

Fault tolerance (paper, Section 6) is opt-in and adds nothing to the
default path: pass a :class:`~repro.runtime.faultplan.FaultPlan` to inject
reproducible chaos at the send seam, a ``checkpoint_interval`` for periodic
live Chandy-Lamport snapshots, and the master then runs a heartbeat
failure detector — a silently dead worker raises
:class:`~repro.errors.WorkerCrashedError` (carrying the last checkpoint)
within the heartbeat timeout instead of stalling until the global deadline.
:func:`repro.runtime.recovery.run_with_recovery` turns that into rollback
and restart.
"""

from __future__ import annotations

import copy
import math
import threading
import time
from typing import Any, List, Optional

from repro.core.delay import DelayPolicy, WorkerView
from repro.core.engine import Engine
from repro.core.master import TerminationMaster
from repro.core.result import RunResult
from repro.core.worker import WorkerState, WorkerStatus
from repro.errors import SnapshotError, WorkerCrashedError
from repro.obs import events as obs_events
from repro.runtime.detection import FailureDetector, FailureEvent
from repro.runtime.faultplan import FaultPlan, InjectedCrash
from repro.runtime.metrics import (RunMetrics, WorkerMetrics,
                                   registry_from_workers)
from repro.runtime.snapshot import (GlobalSnapshot, LiveCheckpointer,
                                    apply_snapshot_values)


class ThreadedRuntime:
    """Run a PIE program on real threads until the termination protocol ends.

    Parameters
    ----------
    time_scale:
        Multiplier applied to finite delay stretches (seconds); keep small.
    max_wait:
        Cap on any single wall-clock wait, so a policy returning large finite
        delays cannot stall tests.
    timeout:
        Overall run timeout (seconds).
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
    detect_failures:
        Force the failure detector on/off; defaults to on whenever a fault
        plan or checkpoint interval is configured.
    respawn_budget:
        Surgical-recovery rung 1: how many in-place thread respawns each
        worker slot may spend before a detected death degrades to
        whole-run rollback (``WorkerCrashedError``).  0 (default)
        disables the rung.

    With none of the fault-tolerance options set, the scheduling path is
    byte-for-byte today's: no extra locks, waits or message rewrites.
    """

    def __init__(self, engine: Engine, policy: DelayPolicy,
                 time_scale: float = 0.001, max_wait: float = 0.05,
                 timeout: float = 120.0, observer: Optional[Any] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 checkpoint_interval: Optional[float] = None,
                 heartbeat_interval: float = 0.02,
                 heartbeat_timeout: float = 1.0,
                 detect_failures: Optional[bool] = None,
                 respawn_budget: int = 0):
        self.engine = engine
        self.policy = policy
        self.time_scale = time_scale
        self.max_wait = max_wait
        self.timeout = timeout
        self.obs = observer
        m = engine.num_workers
        self.workers = [WorkerState(wid) for wid in range(m)]
        self.master = TerminationMaster(m)
        self._locks = [threading.Lock() for _ in range(m)]
        self._events = [threading.Event() for _ in range(m)]
        self._num_peers = [len(frag.peer_fragments()) for frag in engine.pg]
        self._start_time = 0.0
        # --- fault tolerance (all optional; None/off by default) ---------
        self.fault_plan = fault_plan
        self._injector = fault_plan.injector() if fault_plan else None
        if detect_failures is None:
            detect_failures = (fault_plan is not None
                               or checkpoint_interval is not None)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._detector: Optional[FailureDetector] = (
            FailureDetector(m, heartbeat_interval, heartbeat_timeout)
            if detect_failures else None)
        self._ckpt: Optional[LiveCheckpointer] = (
            LiveCheckpointer(checkpoint_interval, m)
            if checkpoint_interval is not None else None)
        self._ft = (self._injector is not None or self._detector is not None
                    or self._ckpt is not None)
        #: structured failure log (heartbeat misses, detected deaths)
        self.failures: List[FailureEvent] = []
        self._threads: List[threading.Thread] = []
        self._timers: List[threading.Timer] = []
        self._clean_exit = [False] * m
        self._seeded = False
        #: surgical-recovery rung 1: in-place thread respawns allowed per
        #: worker slot before a death degrades to whole-run rollback
        self.respawn_budget = respawn_budget
        self._budget = [respawn_budget] * m
        #: one record per successful in-place respawn of the last run
        self.respawns: List[dict] = []
        #: per-slot incarnation, carried by heartbeats so a stale beat
        #: can never vouch for a replacement thread
        self._era = [0] * m
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
            apply_snapshot_values(ctx, copy.deepcopy(state.values),
                                  copy.deepcopy(state.scratch))
            w = self.workers[wid]
            w.rounds = 1  # PEval logically done
            for msg in snapshot.buffered_messages(wid):
                w.buffer.push(msg)
        self._seeded = True

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        self._start_time = time.monotonic()
        self.respawns = []
        self._budget = [self.respawn_budget] * self.engine.num_workers
        if self._detector is not None:
            for wid in range(self.engine.num_workers):
                self._detector.beat(wid, self._start_time)
        self._threads = [threading.Thread(target=self._worker_loop,
                                          args=(wid,),
                                          name=f"grape-worker-{wid}",
                                          daemon=True)
                         for wid in range(self.engine.num_workers)]
        for t in self._threads:
            t.start()
        crash: Optional[WorkerCrashedError] = None
        poll = self._ft_poll if self._ft else None
        try:
            self.master.wait_for_termination(timeout=self.timeout, poll=poll)
        except WorkerCrashedError as exc:
            crash = exc
            self.master.abort(exc)  # release every surviving worker
        for wid in range(self.engine.num_workers):
            self._events[wid].set()  # release any sleeper
        for t in self._threads:
            t.join(timeout=5.0)
        for timer in self._timers:
            timer.cancel()
        if self.obs is not None:
            self.obs.log.emit(
                obs_events.TERMINATE_PROBE, self._now(),
                result="aborted" if self.master.aborted else "quiescent")
        if crash is not None:
            raise crash
        errors = self.master.errors
        if errors:
            first = errors[0]
            for other in errors[1:]:
                if hasattr(first, "add_note"):  # pragma: no branch
                    first.add_note(
                        f"concurrent worker failure: {other!r}")
            raise first
        makespan = time.monotonic() - self._start_time
        answer = self.engine.assemble()
        metrics = self._metrics(makespan)
        extras = {} if self.obs is None else {"obs": self.obs}
        if self._ckpt is not None:
            extras["checkpoints"] = self._ckpt.completed
        return RunResult(answer=answer, mode=f"{self.policy.name}-threaded",
                         metrics=metrics,
                         rounds=[w.rounds for w in self.workers],
                         extras=extras)

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.monotonic() - self._start_time

    # ------------------------------------------------------------------
    # fault-tolerance hooks (never on the default path)
    # ------------------------------------------------------------------
    def _ft_poll(self) -> None:
        """Master-side tick: rotate checkpoints, run the failure detector.

        Runs inside :meth:`TerminationMaster.wait_for_termination`'s wait
        loop (every <= 50 ms).  Raising ``WorkerCrashedError`` from here
        aborts the run promptly — detection latency is O(heartbeat
        timeout), not O(global timeout).
        """
        if self.master.terminated:
            return
        now = time.monotonic()
        t = now - self._start_time
        if self._ckpt is not None:
            self._ckpt.maybe_start(now)
            snap = self._ckpt.maybe_complete(now, self.master.in_flight)
            if snap is not None and self.obs is not None:
                self.obs.log.emit(
                    obs_events.CHECKPOINT, t, token=snap.token,
                    workers=snap.num_workers_recorded,
                    channel_messages=snap.num_channel_messages)
        if self._detector is None:
            return
        for s in self._detector.check(now, alive=self._worker_alive):
            event = FailureEvent(t=t, kind=s.kind, wid=s.wid,
                                 detail=f"age={s.age:.3f}s")
            self.failures.append(event)
            if not s.fatal:
                if self.obs is not None:
                    self.obs.log.emit(obs_events.HEARTBEAT_MISS, t,
                                      wid=s.wid, age=s.age)
                continue
            if self.obs is not None:
                self.obs.log.emit(obs_events.FAILURE_DETECTED, t, wid=s.wid,
                                  reason=s.kind, age=s.age)
            # degradation ladder, rung 1: respawn the thread in place
            if not self._try_respawn(s, t):
                raise WorkerCrashedError(
                    wid=s.wid, reason=s.kind, detected_at=t,
                    checkpoint=self.last_checkpoint, failures=self.failures,
                    detection_latency=s.age)

    def _worker_alive(self, wid: int) -> bool:
        # a clean exit (master terminated while the poll raced) is not death
        return self._threads[wid].is_alive() or self._clean_exit[wid]

    def _try_respawn(self, s, t: float) -> bool:
        """Degradation-ladder rung 1: replace a dead worker thread.

        Threads share the address space, so the dead worker's fragment
        state *survives* its thread: an injected crash fires between
        rounds — a consistent cut under monotone IncEval — and everything
        its final round produced was already shipped.  Takeover is
        therefore pure resumption on the surviving context: no checkpoint
        reseed, no border re-ship, no quarantine, and surviving workers
        never pause at all.  Returns False to hand the failure to the
        next rung (whole-run rollback via ``WorkerCrashedError``).
        """
        wid = s.wid

        def degrade(reason: str) -> bool:
            if self.obs is not None:
                self.obs.log.emit(obs_events.DEGRADE, t, wid=wid,
                                  frm="respawn", to="rollback",
                                  reason=reason)
            return False

        if self._budget[wid] <= 0:
            if self.respawn_budget > 0:
                return degrade("respawn budget exhausted")
            return False  # rung disabled: no DEGRADE noise
        if self._threads[wid].is_alive():
            # hung, not dead: its next step would race the replacement
            # on the same shared context — never run two incarnations
            # of one fragment concurrently
            return degrade("old thread is hung, not dead")
        if self.master.terminated:
            return False
        t0 = time.monotonic()
        self._budget[wid] -= 1
        if self._injector is not None:
            # the fired crash consumed its schedule slot; un-mark the
            # slot so any *later* scheduled crash for it can still fire
            self._injector.reset_worker(wid)
        incarnation = (self._detector.respawn(wid, t0)
                       if self._detector is not None
                       else self._era[wid] + 1)
        self._era[wid] = incarnation
        self._clean_exit[wid] = False
        replacement = threading.Thread(
            target=self._worker_loop, args=(wid,),
            name=f"grape-worker-{wid}-r{incarnation}", daemon=True)
        self._threads[wid] = replacement
        # mark active before the thread runs: the master must not reach
        # a termination verdict between start() and the first loop tick
        self.master.set_active(wid)
        replacement.start()
        self._events[wid].set()
        duration = time.monotonic() - t0
        # threads share the address space, so the fragment survives its
        # worker: the replacement resumes in place with no state rebuild
        self.respawns.append({
            "wid": wid, "incarnation": incarnation, "seeded": False,
            "token": None, "takeover": False, "t": t, "duration": duration,
            "budget_left": self._budget[wid]})
        if self.obs is not None:
            self.obs.log.emit(obs_events.WORKER_RESPAWN, t, wid=wid,
                              incarnation=incarnation, seeded=False,
                              token=None, budget_left=self._budget[wid])
            self.obs.log.emit(obs_events.FRAGMENT_TAKEOVER, t, wid=wid,
                              incarnation=incarnation, reshipped=0,
                              duration=duration)
        return True

    def _ft_tick(self, wid: int) -> None:
        """Worker-side tick: heartbeat, injected crash, checkpoint record."""
        if self._detector is not None:
            self._detector.beat(wid, time.monotonic(), self._era[wid])
        if self._injector is not None:
            w = self.workers[wid]
            if self._injector.crash_due(wid, w.rounds):
                if self.obs is not None:
                    self.obs.log.emit(obs_events.FAULT_INJECTED, self._now(),
                                      wid=wid, round=w.rounds, fault="crash",
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
    def _set_status(self, w: WorkerState, status: WorkerStatus) -> None:
        if self.obs is not None and w.status is not status:
            self.obs.log.emit(obs_events.STATUS_CHANGE, self._now(),
                              wid=w.wid, round=w.rounds,
                              frm=w.status.value, to=status.value)
        w.status = status

    def _note_if_inactive(self, wid: int) -> bool:
        """Atomically check emptiness and report inactive to the master.

        The inactive flag must be set atomically with the emptiness check,
        or a racing delivery could be lost and the master would terminate
        with an undrained buffer.  The worker's ``status`` is reset in the
        same critical section, so status-based views (and ``status_change``
        events) never report a stale RUNNING/WAITING state while the worker
        sits in the empty-buffer wait path.
        """
        w = self.workers[wid]
        with self._locks[wid]:
            if w.buffer:
                return False
            self._set_status(w, WorkerStatus.INACTIVE)
            self.master.set_inactive(wid)
            return True

    def _worker_loop(self, wid: int) -> None:
        w = self.workers[wid]
        try:
            if self._ft:
                self._ft_tick(wid)  # at_round <= 0 crashes before PEval
            if not self._seeded and not self._peval_done[wid]:
                # a respawned thread resumes the surviving context; only
                # the first incarnation (or one whose predecessor died
                # before PEval finished) initialises the fragment
                self._run_round(wid, peval=True)
                self._peval_done[wid] = True
            while not self.master.terminated:
                if self._ft:
                    self._ft_tick(wid)
                if self._note_if_inactive(wid):
                    self._events[wid].wait(timeout=0.02)
                    self._events[wid].clear()
                    continue
                view = self._view(wid)
                if self.obs is None:
                    ds = self.policy.delay(view)
                else:
                    ds, why = self.policy.decide(view)
                    action = ("start" if ds <= 0 else
                              "suspend" if math.isinf(ds) else
                              "wake_scheduled")
                    self.obs.log.emit(
                        obs_events.DS_DECISION, self._now(), wid=wid,
                        round=view.round, ds=ds, action=action,
                        eta=view.eta, t_pred=view.t_pred,
                        s_pred=view.s_pred, rmin=view.rmin, rmax=view.rmax,
                        t_idle=view.idle_time,
                        reason=why.pop("reason", ""), **why)
                    if math.isinf(ds):
                        self.obs.metrics.counter("ds_suspend", wid).inc()
                    else:
                        self.obs.metrics.histogram(
                            "ds_chosen", wid).observe(ds)
                if ds > 0:
                    wait = (min(ds * self.time_scale, self.max_wait)
                            if not math.isinf(ds) else self.max_wait)
                    self._set_status(w, WorkerStatus.WAITING)
                    self._events[wid].wait(timeout=wait)
                    self._events[wid].clear()
                    if math.isinf(ds):
                        # re-evaluate after any state change
                        continue
                self._run_round(wid, peval=False)
            self._clean_exit[wid] = True
        except InjectedCrash:
            # simulated hard death: no abort, no error report — the
            # master's failure detector must notice on its own
            return
        except BaseException as exc:
            # abort releases every worker promptly and keeps the first
            # error; concurrent failures are collected, not overwritten
            self.master.abort(exc)
            self._clean_exit[wid] = True

    def _run_round(self, wid: int, peval: bool) -> None:
        w = self.workers[wid]
        self._set_status(w, WorkerStatus.RUNNING)
        started = time.monotonic()
        if peval:
            batches = []
            out = self.engine.run_peval(wid)
        else:
            with self._locks[wid]:
                batches = w.buffer.drain()
            if not batches:
                self._set_status(w, WorkerStatus.INACTIVE)
                return
            out = self.engine.run_inceval(wid, batches, round_no=w.rounds)
        if self._injector is not None:
            # straggler fault: stretch the round before results ship
            extra = self._injector.round_slowdown(
                wid, time.monotonic() - started)
            if extra > 0:
                time.sleep(min(extra, self.max_wait))
        if self.obs is not None:
            self.obs.log.emit(obs_events.ROUND_START,
                              started - self._start_time, wid=wid,
                              round=w.rounds,
                              kind="peval" if peval else "inceval",
                              batches=len(batches))
            if not peval:
                self.obs.metrics.histogram(
                    "eta_at_drain", wid).observe(len(batches))
        w.rounds += 1
        w.work_done += out.work
        duration = time.monotonic() - started
        w.busy_time += duration
        w.round_time.observe_round(max(duration, 1e-9))
        if self.obs is not None:
            self.obs.log.emit(obs_events.ROUND_END, self._now(), wid=wid,
                              round=w.rounds - 1,
                              kind="peval" if peval else "inceval",
                              duration=duration, messages=len(out.messages))
            self.obs.metrics.histogram(
                "round_duration", wid).observe(duration)
        for msg in out.messages:
            self._send(msg)
        self._set_status(w, WorkerStatus.INACTIVE if not w.buffer
                         else WorkerStatus.WAITING)
        w.idle_since = time.monotonic() - self._start_time
        self.policy.on_round_complete(self._view(wid), max(duration, 1e-9))

    # ------------------------------------------------------------------
    # transport: _send decides the fate of a message, _deliver lands it
    # ------------------------------------------------------------------
    def _send(self, msg) -> None:
        src = self.workers[msg.src]
        if not self._ft:
            deliveries = ((msg, 0.0),)
        else:
            if self._ckpt is not None:
                coord = self._ckpt.current
                if coord is not None:
                    msg = coord.stamp_outgoing(msg.src, [msg])[0]
            if self._injector is None:
                deliveries = ((msg, 0.0),)
            else:
                deliveries = self._injector.on_send(msg)
                self._emit_injections(msg, deliveries)
                if not deliveries:
                    # dropped: never reaches the wire.  Producer stats
                    # count wire messages only, matching the per-entry
                    # batch path (a partially-dropped batch counts its
                    # surviving sub-batches, not the dropped entries) —
                    # each logical entry is counted exactly once
                    return
        for m, delay in deliveries:
            self.master.message_sent()
            src.messages_sent += 1
            src.bytes_sent += m.size_bytes
            if self.obs is not None:
                self.obs.log.emit(obs_events.MSG_SEND, self._now(),
                                  wid=m.src, round=src.rounds, dst=m.dst,
                                  bytes=m.size_bytes, seq=m.seq,
                                  entries=len(m))
                self.obs.metrics.counter("wire_bytes").inc(m.size_bytes)
            if delay <= 0:
                self._deliver(m)
            else:
                timer = threading.Timer(delay, self._deliver, args=(m,))
                timer.daemon = True
                self._timers.append(timer)
                timer.start()

    def _emit_injections(self, msg, deliveries) -> None:
        if self.obs is None:
            return
        detail = f"src={msg.src} dst={msg.dst} seq={msg.seq}"
        if not deliveries:
            fault = "drop"
        elif len(deliveries) > 1:
            fault = "duplicate"
        elif deliveries[0][1] > 0:
            fault = "delay"
        else:
            return
        self.obs.log.emit(obs_events.FAULT_INJECTED, self._now(),
                          wid=msg.src, fault=fault, detail=detail)

    def _deliver(self, msg) -> None:
        dst = self.workers[msg.dst]
        with self._locks[msg.dst]:
            if self._ft and self._ckpt is not None:
                coord = self._ckpt.current
                if coord is not None:
                    coord.on_deliver(msg.dst, msg, self._now())
            dst.buffer.push(msg)
            now = time.monotonic() - self._start_time
            dst.arrival_rate.observe_arrival(now)
            dst.last_arrival = now
            if self.obs is not None:
                depth = dst.buffer.staleness
                self.obs.log.emit(obs_events.MSG_DELIVER, now, wid=msg.dst,
                                  round=dst.rounds, src=msg.src,
                                  bytes=msg.size_bytes, seq=msg.seq,
                                  depth=depth)
                self.obs.metrics.histogram(
                    "buffer_depth", msg.dst).observe(depth)
        self.master.set_active(msg.dst)
        self.master.message_delivered()
        self._events[msg.dst].set()

    # ------------------------------------------------------------------
    def _view(self, wid: int) -> WorkerView:
        w = self.workers[wid]
        pending = [x.rounds for x in self.workers if x.pending]
        rmin = min(pending) if pending else w.rounds
        rmax = max(pending) if pending else w.rounds
        now = time.monotonic() - self._start_time
        rates = [x.arrival_rate.predict(now=now) for x in self.workers]
        finite = [r for r in rates if r > 0 and not math.isinf(r)]
        t_preds = [x.round_time.predict(default=1e-4) for x in self.workers]
        return WorkerView(
            wid=wid, round=w.rounds, eta=w.eta, rmin=rmin, rmax=rmax,
            idle_time=w.idle_for(now), now=now,
            t_pred=w.round_time.predict(default=1e-4),
            s_pred=w.arrival_rate.predict(now=now),
            fleet_avg_rate=sum(finite) / len(finite) if finite else 0.0,
            num_workers=len(self.workers),
            num_peers=self._num_peers[wid],
            fleet_avg_round_time=sum(t_preds) / len(t_preds))

    def _metrics(self, makespan: float) -> RunMetrics:
        per_worker = [WorkerMetrics(
            wid=w.wid, rounds=w.rounds, busy_time=w.busy_time,
            messages_sent=w.messages_sent,
            messages_received=w.buffer.total_received,
            bytes_sent=w.bytes_sent, bytes_received=w.buffer.total_bytes,
            work_done=w.work_done) for w in self.workers]
        if self.obs is not None:
            registry_from_workers(per_worker, into=self.obs.metrics)
            return RunMetrics.from_registry(self.obs.metrics,
                                            makespan=makespan)
        return RunMetrics.from_workers(per_worker, makespan=makespan)
