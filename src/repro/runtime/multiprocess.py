"""Multiprocessing runtime: true parallel execution across processes.

Python's GIL prevents the threaded runtime from showing real speed-ups on
compute-heavy workloads, so this runtime places each virtual worker in its
own OS process (the repro band's "needs multiprocessing" note).  Fragments,
program and query are shipped once at start; designated messages travel
through shared-memory rings (or pickled per-``(src, dst)`` lanes); the
master process runs the paper's termination protocol through the master's
book (:class:`~repro.core.master.MasterBook`: inactive flags, per-channel
in-flight accounting, and an explicit probe/ack round — the
``terminate``/``ack``-or-``wait`` exchange — the same rule the other
runtimes decide by).

Nothing on the blocking path sleeps and re-checks.  Every channel is
single-producer and selectable (:mod:`repro.runtime.lane`): the master
blocks in ``multiprocessing.connection.wait`` on its per-worker control
lanes until one event arrives (or the next real timer: fault-tolerance
tick, fleet broadcast, deadline), reads what is there, and decides its
barrier / probe / stop at once — safe because a worker's ``sent`` and
``drained`` reports precede its ``step-done`` / ``ack`` on its own FIFO
lane.  A worker with nothing to do ``select``s on its command lane, its
inbound data lanes and its ring doorbell (:mod:`repro.runtime.slab`);
how long messages accumulate before a round is the delay policy's
decision, not the receive loop's.

All five parallel models are supported:

- ``"AP"``  — fully asynchronous; a worker runs whenever its inbox is
  non-empty.
- ``"BSP"`` — master-coordinated supersteps (a real distributed barrier)
  under the step's superstep rule (:mod:`repro.core.step`), so the
  schedule — rounds per worker, entries shipped — is a function of the
  input, the same on every run, on every runtime, and equal to
  :meth:`~repro.core.fixpoint.ScheduledExecutor.run_supersteps`.  The
  master opens superstep ``s + 1`` once every worker has reported ``s``
  (PEval is the 0th), and a worker's barrier report waits until every
  frame it wrote to a pickled lane has crossed the pipe.
- ``"SSP"`` — bounded staleness: a worker holds its drained batch while
  ``r_i > r_min + c``, where ``r_min`` comes from the master's fleet
  broadcasts (computed over *active* workers, so a finished worker never
  pins the bound — the same deadlock-freedom rule as the other runtimes).
- ``"AAP"`` — asynchronous with delay stretches computed from the local
  predictors plus *fleet state broadcasts* from the master (round bounds
  and arrival rates are slightly stale, which is faithful: the paper's
  workers also learn ``r_min``/``r_max`` through status exchange).
- ``"Hsync"`` — the master runs the :class:`~repro.core.delay.HsyncPolicy`
  switching heuristic over the workers' round reports and broadcasts the
  current global mode; workers gate like BSP while it says so, run free in
  AP phases, and pay the switch cost once per switch.

Everything shipped must be picklable (the built-in PIE programs are).

Transport (data plane vs control plane)
---------------------------------------
By default (``transport="shm"``) packed :class:`MessageBatch` traffic
travels through per-``(src, dst)`` shared-memory ring buffers
(:mod:`repro.runtime.slab`): a send is an array write plus a 64-byte
record header, and the receiver reconstructs numpy views without copying
or pickling.  Control traffic — heartbeats, fleet/``rmin`` broadcasts,
``ds`` decisions, the termination probe, checkpoint state — stays on the
control and command lanes, and messages the rings cannot carry (generic
unpacked :class:`Message` objects, exotic payload dtypes, ring-full
overflow) take the pickled ``(src, dst)`` data lane: that path is always
the correctness fallback.  ``transport="queue"`` makes it the whole
data plane.  Both planes share the same seams: the fault injector judges
messages before they reach either, the termination ledger counts logical
entries identically, and snapshot tokens ride the ring record header.

Fault tolerance (paper, Section 6) mirrors the threaded runtime's and is
off by default: a :class:`~repro.runtime.faultplan.FaultPlan` injects
deterministic chaos inside each worker process (an injected crash is a real
``os._exit`` — the process dies without a goodbye), workers heartbeat over
the control channel, and the master combines heartbeat ages with
``Process.is_alive()`` so a dead worker raises
:class:`~repro.errors.WorkerCrashedError` in O(heartbeat timeout).
Periodic Chandy-Lamport checkpoints run over the command/control channels:
the master broadcasts ``("checkpoint", token)``, each worker snapshots its
state before its next send and ships it back, late un-tokened messages are
added to the snapshot they logically precede.

Surgical recovery (``respawn_budget > 0``) is rung 1 of the ladder in
:mod:`repro.runtime.recovery`, whose
:class:`~repro.runtime.recovery.RespawnRung` detects, gates and records a
death; this runtime's repair is the master's fragment takeover
(:meth:`~repro.runtime.mp_master._Master.takeover`, docs/fault_tolerance.md).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Any, Dict, List, Optional

from repro.core.delay import AAPPolicy, DelayPolicy, HsyncPolicy
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.core.pie import PIEProgram
from repro.core.result import RunResult
from repro.errors import RuntimeConfigError, SnapshotError
from repro.partition.fragment import PartitionedGraph
from repro.runtime.detection import FailureEvent
from repro.runtime.faultplan import FaultPlan
from repro.runtime.lane import Lane
from repro.runtime.metrics import RunMetrics
from repro.runtime.mp_master import _Master, _reap
from repro.runtime.mp_worker import _FTConfig, _WorkerReport, _worker_main
from repro.runtime.recovery import check_live_knobs
from repro.runtime.slab import SlabArena
from repro.runtime.snapshot import GlobalSnapshot

_MODES = ("AP", "BSP", "SSP", "AAP", "Hsync")
_TRANSPORTS = ("shm", "queue")
#: bytes of one slab ring
SLAB_BYTES = 1 << 20


class MultiprocessRuntime:
    """Run a PIE program across real OS processes.

    The fault-tolerance keyword arguments mirror
    :class:`~repro.runtime.threaded.ThreadedRuntime`; all default to off,
    leaving the legacy path untouched.  :meth:`seed_from_snapshot`, called
    after construction as on the threaded runtime, starts the next run
    from a consistent Chandy-Lamport checkpoint instead of PEval.
    """

    def __init__(self, program: PIEProgram, pg: PartitionedGraph, query: Any,
                 mode: str = "AP", timeout: float = 120.0,
                 time_scale: float = 0.001,
                 observer: Optional[Any] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 checkpoint_interval: Optional[float] = None,
                 heartbeat_interval: float = 0.02,
                 heartbeat_timeout: float = 1.0,
                 vectorized: bool = False,
                 staleness_bound: Optional[int] = None,
                 transport: Optional[str] = None,
                 respawn_budget: int = 0):
        if mode not in _MODES:
            raise RuntimeConfigError(
                f"multiprocess runtime supports {_MODES}, got {mode!r}")
        check_live_knobs(timeout, respawn_budget, checkpoint_interval)
        if transport is None:
            transport = "shm"
        if transport not in _TRANSPORTS:
            raise RuntimeConfigError(
                f"multiprocess transport must be one of {_TRANSPORTS}, "
                f"got {transport!r}")
        #: requested data plane; :attr:`transport_used` reports what the
        #: last run actually got (shm falls back to queue where
        #: shared memory is unavailable)
        self.transport = transport
        self.transport_used: Optional[str] = None
        #: SSP bound c (same default as make_policy) and the master-side
        #: Hsync switching heuristic; both inert for the other modes
        self.staleness_bound = 1 if staleness_bound is None \
            else staleness_bound
        self.hsync = HsyncPolicy() if mode == "Hsync" else None
        self.program = program
        self.pg = pg
        self.query = query
        self.mode = mode
        self.vectorized = vectorized
        self.timeout = timeout
        self.time_scale = time_scale
        self.obs = observer
        self._started = 0.0
        self.fault_plan = fault_plan
        self.checkpoint_interval = checkpoint_interval
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        #: armed (heartbeat detection on) iff faults or checkpoints
        self._ft = fault_plan is not None or checkpoint_interval is not None
        #: the last run's failure log (heartbeat misses, detected deaths)
        self.failures: List[FailureEvent] = []
        #: the most recent complete live checkpoint, or None
        self.last_checkpoint: Optional[GlobalSnapshot] = None
        #: surgical-recovery rung 1: how many in-place respawns each
        #: worker slot may spend before a death degrades to whole-run
        #: rollback.  0 (the default) disables the rung entirely.
        self.respawn_budget = respawn_budget
        #: one record per successful in-place respawn of the last run
        self.respawns: List[Dict[str, Any]] = []
        self._snapshot: Optional[GlobalSnapshot] = None

    def seed_from_snapshot(self, snapshot: GlobalSnapshot) -> None:
        """Start the next :meth:`run` from a consistent checkpoint."""
        if snapshot.num_workers_recorded != self.pg.num_fragments:
            raise SnapshotError(
                f"snapshot covers {snapshot.num_workers_recorded} workers, "
                f"runtime has {self.pg.num_fragments}")
        self._snapshot = snapshot

    def _ft_config(self, wid: int, snap: Optional[GlobalSnapshot],
                   plan: Optional[FaultPlan], **respawn) -> _FTConfig:
        """What one worker process needs beyond the program: the fault
        plan, the heartbeat period and, when ``snap`` recorded it, the
        fragment state to start from instead of PEval.

        ``respawn`` (incarnation and ledger bases) marks an in-place
        replacement of a dead worker.  It is seeded from the last
        *complete* checkpoint when that recorded this worker (the fast
        path); otherwise it re-runs PEval from scratch — correct either
        way under monotone IncEval, because the surviving peers re-ship
        their full border at rejoin (Theorem 2: any consistent cut
        restarts any subset).
        """
        cfg = _FTConfig(fault_plan=plan,
                        heartbeat_interval=(self.heartbeat_interval
                                            if self._ft else 0.0),
                        **respawn)
        if snap is not None and wid in snap.worker_states:
            state = snap.fragment_state(wid)
            cfg.seed_values = state.values
            cfg.seed_scratch = state.scratch
            cfg.seed_messages = snap.buffered_messages(wid)
        return cfg

    def _worker_policy(self) -> DelayPolicy:
        """The delta each worker process asks: the mode's own policy.  A
        BSP worker never asks (its rounds start on a master command), and
        an Hsync worker's copy mirrors the master's switching state from
        the fleet broadcasts."""
        if self.mode == "AAP":
            return AAPPolicy()
        return make_policy(self.mode, staleness_bound=self.staleness_bound)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        m = self.pg.num_fragments
        ctx = mp.get_context("fork")
        # every channel is a single-producer lane made before the fork:
        # control[w] worker -> master, commands[w] master -> worker, and
        # lanes[(src, dst)] the pickled data plane
        control = [Lane() for _ in range(m)]
        commands = [Lane() for _ in range(m)]
        lanes = {(src, dst): Lane() for src in range(m)
                 for dst in range(m) if src != dst}
        # shm data plane: pre-create the full channel mesh before forking,
        # so worker attachment can never race slab creation.  Any failure
        # (no /dev/shm, exhausted segments) leaves the lanes to carry it.
        arena = None
        if self.transport == "shm" and m > 1:
            try:
                arena = SlabArena(m, SLAB_BYTES)
            except Exception:  # pragma: no cover - platform-dependent
                arena = None
        self.transport_used = "shm" if arena is not None else "queue"
        self._wake = {"decisions": 0, "timeout_decisions": 0}

        def launch(wid: int, cfg: Optional[_FTConfig]):
            p = ctx.Process(
                target=_worker_main,
                args=(control[wid], wid, self.mode, self.program, self.pg,
                      self.query, lanes, commands[wid], self.time_scale,
                      self.obs is not None, cfg, self.vectorized,
                      self._worker_policy(), arena),
                daemon=True)
            p.start()
            return p

        def spawn_replacement(wid: int, incarnation: int,
                              plan: Optional[FaultPlan],
                              sent_base: int, recv_base: int) -> None:
            # fresh lanes to and from the master: the dead incarnation's
            # may hold commands the replacement must never see, and a
            # torn tail of its last event
            for chan in (commands, control):
                chan[wid].close()
                chan[wid] = Lane()
            procs[wid].close()
            snap = self.last_checkpoint
            procs[wid] = launch(wid, self._ft_config(
                wid, snap if snap is not None and snap.complete else None,
                plan, incarnation=incarnation, sent_base=sent_base,
                recv_base=recv_base))

        started = time.monotonic()
        self._started = started
        procs: List[Any] = []
        try:
            for wid in range(m):
                procs.append(launch(wid, self._ft_config(
                    wid, self._snapshot, self.fault_plan)
                    if self._ft or self._snapshot is not None else None))
            reports = _Master(self, control, commands, procs, lanes, arena,
                              spawn_replacement).run()
        finally:
            for cq in commands:
                cq.send_or_drop(("abort",))
            for p in procs:
                p.join(timeout=5.0)
            for p in procs:
                if _reap(p):
                    p.close()  # releases the sentinel descriptor
            # every descriptor and every slab goes on both the clean path
            # and the terminate/crash path — after the workers are joined
            # or killed, so neither a pipe nor a /dev/shm segment
            # outlives the run
            for lane in [*control, *commands, *lanes.values()]:
                lane.close()
            if arena is not None:
                arena.unlink_all()
        makespan = time.monotonic() - started
        return self._assemble(reports, makespan)

    def _emit_master(self, type_: str, **payload) -> None:
        """Master-side observability record (barrier / terminate probe)."""
        if self.obs is not None:
            self.obs.log.emit(type_, time.monotonic() - self._started,
                              **payload)

    # ------------------------------------------------------------------
    def _assemble(self, reports: Dict[int, _WorkerReport],
                  makespan: float) -> RunResult:
        # rebuild contexts in the master and inject the workers' states
        engine = Engine(self.program, self.pg, self.query,
                        vectorized=self.vectorized)
        for wid, report in reports.items():
            engine.contexts[wid].import_state(report.values)
            engine.contexts[wid].scratch = report.scratch
        answer = engine.assemble()
        workers = [rep.metrics for _, rep in sorted(reports.items())]
        extras: Dict[str, Any] = {"transport": {
            "kind": self.transport_used or self.transport,
            "shm_batches": sum(r.shm_batches for r in reports.values()),
            "shm_bytes": sum(r.shm_bytes for r in reports.values()),
            "queue_fallbacks": sum(r.shm_fallbacks
                                   for r in reports.values())},
            # how the run waited: worker wake-ups that found nothing,
            # and master decisions by whether an event or a timer
            # preceded them
            "wake": {"empty_wakeups": sum(r.empty_wakeups
                                          for r in reports.values()),
                     **self._wake}}
        if self.respawns:
            extras["respawns"] = [dict(r) for r in self.respawns]
        if self.obs is not None:
            # fold the workers' records into the observer through the sink
            # an in-process step would have emitted into.  Their timestamps
            # are absolute monotonic readings (fork shares the clock),
            # normalised to run-relative time; the merged log is re-sorted
            # so records from different processes interleave by time.
            for rep in reports.values():
                for type_, t_abs, wid, round_no, payload in rep.events:
                    self.obs.record(type_, max(t_abs - self._started, 0.0),
                                    wid, round_no, payload)
            self.obs.log.sort()
            extras["obs"] = self.obs
        metrics = RunMetrics.from_workers(
            workers, makespan=makespan,
            into=self.obs.metrics if self.obs is not None else None)
        return RunResult(answer=answer, mode=f"{self.mode}-multiprocess",
                         metrics=metrics,
                         rounds=[w.rounds for w in workers], extras=extras)
