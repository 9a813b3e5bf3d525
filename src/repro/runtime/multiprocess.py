"""Multiprocessing runtime: true parallel execution across processes.

Python's GIL prevents the threaded runtime from showing real speed-ups on
compute-heavy workloads, so this runtime places each virtual worker in its
own OS process (the repro band's "needs multiprocessing" note).  Fragments,
program and query are shipped once at start; designated messages travel
through shared-memory rings (or pickled per-``(src, dst)`` lanes); the
master process runs the paper's termination protocol (inactive flags,
in-flight accounting, and an explicit probe/ack round — the
``terminate``/``ack``-or-``wait`` exchange).

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
- ``"BSP"`` — master-coordinated supersteps (a real distributed barrier).
  A superstep consumes exactly the previous superstep's messages, so the
  schedule — rounds per worker, entries shipped — is a function of the
  input, the same on every run and equal to
  :meth:`~repro.core.fixpoint.ScheduledExecutor.run_supersteps`.  Three
  rules make it so: PEval is the 0th superstep (a worker reports it like
  any other, and superstep 1 opens only when all have); messages carry
  the superstep that produced them as their round stamp and a receiver
  sets aside, for the next superstep, any that a faster peer produced in
  the current one; and a worker's barrier report waits until every frame
  it wrote to a pickled lane has crossed the pipe.
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
the correctness fallback.  ``transport="queue"`` (or
``REPRO_MP_TRANSPORT=queue``) makes it the whole data plane.  Both
planes share the same seams: the fault injector judges messages before
they reach either, the termination ledger counts logical entries
identically, and snapshot tokens ride the ring record header.

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

Surgical recovery (``respawn_budget > 0``) upgrades a detected death from
"abandon the run" to an in-place repair: the master quarantines the dead
worker (survivors take a final drain, fence its slab rings, and park
traffic bound for it), settles the per-channel termination ledger, resets
the rings under a bumped generation number, respawns a replacement process
seeded from the last complete checkpoint's fragment state, and rejoins it
— surviving peers re-ship their full border through the normal transport
seam, which is safe exactly when the program's aggregation is idempotent
(:attr:`~repro.core.pie.PIEProgram.reship_capable`).  Surviving workers
never stop in the asynchronous modes and only pause at the next barrier in
BSP.  When the rung is unavailable (budget spent, accumulative program,
single worker, or a protocol step times out) the failure degrades to
:class:`~repro.errors.WorkerCrashedError` and the recovery ladder in
:mod:`repro.runtime.recovery` takes over.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import select
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as wait_readable
from typing import Any, Dict, List, Optional, Tuple

from repro.core.delay import AAPPolicy, HsyncPolicy, WorkerView
from repro.core.engine import Engine
from repro.core.pie import PIEProgram
from repro.core.result import RunResult
from repro.errors import (RuntimeConfigError, SnapshotError,
                          TerminationError, WorkerCrashedError)
from repro.obs import events as obs_events
from repro.partition.fragment import PartitionedGraph
from repro.runtime.detection import FailureDetector, FailureEvent
from repro.runtime.faultplan import FaultPlan
from repro.runtime.lane import Lane
from repro.runtime.metrics import (RunMetrics, WorkerMetrics,
                                   registry_from_workers)
from repro.runtime.slab import ShmMessageBatch, SlabArena, to_owned
from repro.runtime.snapshot import (GlobalSnapshot, LiveCheckpointer,
                                    apply_snapshot_values, stamp_messages)

_MODES = ("AP", "BSP", "SSP", "AAP", "Hsync")
_TRANSPORTS = ("shm", "queue")
#: longest a worker stays blocked before it looks again anyway.  A
#: safety net, not a latency knob: every wake-up source is a readable
#: pipe (level-triggered, so none can be missed) and no test or
#: benchmark run ever waits this long.
_REPOLL = 0.25


@dataclass
class _FTConfig:
    """Per-worker fault-tolerance config shipped at fork time.

    ``None`` (the default everywhere) keeps the worker loop on the exact
    legacy path: no injector, no heartbeats, no checkpoint handling.
    """

    fault_plan: Optional[FaultPlan] = None
    heartbeat_interval: float = 0.02
    seed_values: Optional[Any] = None
    seed_scratch: Optional[Dict[str, Any]] = None
    seed_messages: List[Any] = field(default_factory=list)
    #: which incarnation of this worker slot the process is; heartbeats
    #: and ledger reports carry it so the master can reject the dead
    #: incarnation's backlog after a takeover
    incarnation: int = 0
    #: checkpoint-conservation counter bases for a replacement worker:
    #: the master seeds them from its channel ledger so cumulative
    #: sent/recv accounting stays balanced across incarnations
    sent_base: int = 0
    recv_base: int = 0

    @property
    def seeded(self) -> bool:
        return self.seed_values is not None


@dataclass
class _WorkerReport:
    """Final statistics a worker ships back to the master."""

    wid: int
    rounds: int
    work: int
    messages_sent: int
    bytes_sent: int
    values: Dict[Any, Any]
    scratch: Dict[str, Any]
    #: observability records collected in the worker process, as
    #: (type, absolute-monotonic-time, wid, round, payload) tuples
    events: List[Tuple] = field(default_factory=list)
    #: data-plane accounting: batches/bytes that rode the shared-memory
    #: rings, and batches that fell back to the pickled data lanes
    shm_batches: int = 0
    shm_bytes: int = 0
    shm_fallbacks: int = 0
    #: the paper's Section 6 collector: seconds inside PEval/IncEval
    #: rounds, blocked waiting for a message or command, and in delay
    #: stretches (DS) the policy chose
    busy: float = 0.0
    idle: float = 0.0
    suspended: float = 0.0
    #: wake-ups by a readable pipe that found no command and no message
    empty_wakeups: int = 0


def _worker_main(control: Lane, wid: int, *args) -> None:
    """Entry point of one worker process (see :func:`_worker_loop`)."""
    try:
        _worker_loop(control, wid, *args)
    except Exception as exc:  # pragma: no cover - surfaced by master
        # ship the formatted traceback too: the master re-raises it, and
        # "worker 3 crashed: KeyError(5)" alone is undebuggable
        control.send(("error", wid, repr(exc), traceback.format_exc()))


def _reap(proc) -> bool:
    """Make sure ``proc`` is dead (terminate, then kill); True if it is."""
    for stop in (proc.terminate, proc.kill):
        if proc.is_alive():
            stop()
            proc.join(1.0)
    return not proc.is_alive()


def _by_dst(messages) -> Dict[int, int]:
    """Logical-entry counts per destination, for the channel ledger."""
    out: Dict[int, int] = {}
    for m in messages:
        out[m.dst] = out.get(m.dst, 0) + len(m)
    return out


def _announce(control: Lane, wid: int, by_dst: Dict[int, int],
              incarnation: int) -> None:
    """Tell the master what is about to go on the wire.

    The announcement (with every event queued before it) is in the
    master's pipe before the messages become receivable, so its
    in-flight counter can only over-estimate, never under-estimate.  The
    ledger counts *logical entries* (len of a Message or a packed
    MessageBatch) per directed channel, so batching doesn't skew
    termination and a takeover can settle exactly the dead worker's
    channels.
    """
    control.put(("sent", wid, by_dst, incarnation))
    control.flush()


def _send_all(wid: int, messages, put, control: Lane,
              stats: Dict[str, int], emit=None, round_no: int = 0,
              incarnation: int = 0) -> None:
    if messages:
        _announce(control, wid, _by_dst(messages), incarnation)
    for msg in messages:
        if emit is not None:
            emit(obs_events.MSG_SEND, round_no, dst=msg.dst,
                 bytes=msg.size_bytes, seq=msg.seq, entries=len(msg))
        put(msg)
        stats["messages"] += 1
        stats["entries"] += len(msg)
        stats["bytes"] += msg.size_bytes


def _worker_loop(control: Lane, wid: int, mode: str, program: PIEProgram,
                 pg: PartitionedGraph, query: Any,
                 lanes: Dict[Tuple[int, int], Lane], command: Lane,
                 time_scale: float, observe: bool, ft: Optional[_FTConfig],
                 vectorized: bool, policy_conf: Dict[str, Any],
                 arena: Optional[SlabArena]) -> None:
    """One worker: ``control`` is its event lane to the master, ``command``
    the master's lane to it, ``lanes[(src, dst)]`` the pickled data plane;
    all of them, and the arena's rings and doorbells, predate the fork."""
    # Engine builds contexts for every fragment; acceptable at these
    # scales and keeps the shipping path identical to the other runtimes.
    # Only contexts[wid] is ever touched in this process.
    engine = Engine(program, pg, query, vectorized=vectorized)
    context = engine.contexts[wid]
    in_lanes = [lane for (_, dst), lane in lanes.items() if dst == wid]
    out_lanes = [lane for (src, _), lane in lanes.items() if src == wid]
    # zero-copy data plane: attach this worker's slab rings (the master
    # created them, and the doorbells, before forking).  ``pool is
    # None`` leaves only the pickled lanes.
    pool = arena.pool(wid) if arena is not None else None
    #: seconds by kind (the paper's Section 6 collector) and wake-ups
    clock = {"busy": 0.0, "idle": 0.0, "suspended": 0.0}
    empty_wakeups = 0
    #: a pipe woke this worker and the loop has yet to find out why
    unanswered = False

    def put_msg(msg) -> None:
        """Data-plane send: slab ring when it fits, data lane otherwise."""
        if pool is None or not pool.try_send(msg):
            lane = lanes[(wid, msg.dst)]
            lane.put(msg)
            lane.flush(block=False)

    def block(bell: bool = True) -> None:
        """Sleep until a command or a message may be there: the command
        lane, the inbound lanes and (with ``bell``) the ring doorbell
        are all readable pipes, so nothing is missed between the poll
        that came back empty and this wait.  The timeout is the next
        timer (heartbeat, delayed-message release) or the safety net."""
        nonlocal empty_wakeups, unanswered
        if unanswered:
            empty_wakeups += 1
        control.flush()
        timeout = _REPOLL
        if hb_interval > 0:
            timeout = min(timeout, hb_interval)
        if delayed:
            timeout = min(timeout, max(
                min(due for due, _, _ in delayed) - time.monotonic(), 0.0))
        rlist = [command, *in_lanes]
        # unsent tails of peer-bound frames go out as the pipes drain
        stuck = {lane.wfd: lane for lane in out_lanes if lane.backlog}
        began = time.monotonic()
        if pool is not None and bell:
            ready, writable = pool.wait(timeout, rlist, list(stuck))
        else:
            ready, writable, _ = select.select(rlist, list(stuck), [],
                                               timeout)
        clock["idle"] += time.monotonic() - began
        for fd in writable:
            stuck[fd].flush(block=False)
        # a readable pipe must turn into a command or a message on the
        # next pass; a timer or a flushed backlog owes nothing
        unanswered = bool(ready)

    def fragment_values():
        # dense contexts ship their state as one contiguous array:
        # pickling a node -> scalar dict costs a Python-level lookup per
        # node on both ends, which dominated the run tail at bench sizes
        return (("__dense__", context.export_state())
                if hasattr(context, "export_state")
                else dict(context.values))

    def suspend(seconds: float) -> None:
        """A delay stretch the policy (or Hsync's switch cost) chose."""
        time.sleep(seconds)
        clock["suspended"] += seconds

    stats = {"messages": 0, "entries": 0, "bytes": 0, "work": 0}
    # round/rate reports feed the master's fleet broadcasts (AAP/SSP/
    # Hsync) and the Hsync switching policy; AP and BSP consume neither,
    # so skipping the per-round control message there spares the master
    # one event per round per worker
    report_rounds = mode in ("AAP", "SSP", "Hsync")
    rounds = 0
    #: BSP: the superstep this worker is in (PEval is the 0th).  Outgoing
    #: messages carry it as their round stamp, so a receiver can tell a
    #: peer's output of the *current* superstep from the previous one's.
    step = 0

    def stamp() -> int:
        """The round number outgoing messages carry."""
        return step if mode == "BSP" else rounds

    policy = AAPPolicy() if mode == "AAP" else None
    #: SSP staleness bound c / Hsync switch cost (ignored by other modes)
    ssp_bound = policy_conf.get("staleness_bound", 1)
    switch_cost = policy_conf.get("switch_cost", 1.0)
    paid_switches = 0
    fleet: Dict[str, Any] = {"rmin": 0, "rmax": 0, "avg_rate": 0.0,
                             "avg_round": 1e-3, "hmode": "AP",
                             "switches": 0}
    last_round_dur = 1e-4
    last_arrival = None
    rate = 0.0
    events: List[Tuple] = []

    # worker-local observability hook: records are collected here and
    # shipped back to the master in the final report (timestamps are
    # absolute monotonic; the master normalises them to run-relative)
    emit = None
    if observe:
        def emit(type_, round_no, **payload):
            events.append((type_, time.monotonic(), wid, round_no, payload))

    def status_change(frm, to, round_no) -> None:
        if emit is not None:
            emit(obs_events.STATUS_CHANGE, round_no, frm=frm, to=to)

    # --- fault-tolerance state (all inert when ft is None) ------------
    injector = (ft.fault_plan.injector()
                if ft is not None and ft.fault_plan is not None else None)
    hb_interval = ft.heartbeat_interval if ft is not None else 0.0
    incarnation = ft.incarnation if ft is not None else 0
    sent_base = ft.sent_base if ft is not None else 0
    recv_base = ft.recv_base if ft is not None else 0
    last_hb = 0.0
    ckpt_token = None  # the checkpoint token this worker currently holds
    #: (due, msg, round_no): announced and counted, held until due
    delayed: List[Tuple[float, Any, int]] = []
    carry: List[Any] = []  # drained-but-unprocessed messages
    #: drained AND observed messages held back by SSP/Hsync gating; kept
    #: separate from ``carry`` so they are never double-observed
    held: List[Any] = []
    #: peers currently under master quarantine (dead, not yet respawned)
    quarantined: set = set()
    #: messages produced for a quarantined peer: kept out of the wire and
    #: the ledger; discarded at rejoin (the full border re-ship that
    #: accompanies rejoin dominates them under monotone aggregation)
    parked: Dict[int, List[Any]] = {}

    def beat() -> None:
        nonlocal last_hb
        if hb_interval <= 0:
            return
        now = time.monotonic()
        if now - last_hb >= hb_interval:
            control.send(("heartbeat", wid, incarnation))
            last_hb = now

    def crash_if_due() -> None:
        if injector is not None and injector.crash_due(wid, rounds):
            if emit is not None:
                emit(obs_events.FAULT_INJECTED, rounds, fault="crash",
                     detail=f"round={rounds}")
            # a real hard death: no error report, no done report — the
            # master's failure detector must notice on its own
            os._exit(17)

    def straggle(duration: float) -> None:
        """Straggler fault: stretch a round (PEval included) before its
        results ship."""
        if injector is not None:
            extra = injector.round_slowdown(wid, duration)
            if extra > 0:
                time.sleep(min(extra, 0.05))

    def flush_delayed() -> None:
        if not delayed:
            return
        now = time.monotonic()
        due = [x for x in delayed if x[0] <= now]
        if due:
            delayed[:] = [x for x in delayed if x[0] > now]
            for _, m, r in due:
                # the MSG_SEND record is emitted here, when the message
                # actually reaches the wire — its stats were counted at
                # injection time, but omitting the event undercounted
                # wire_bytes against stats["bytes"]
                if emit is not None:
                    emit(obs_events.MSG_SEND, r, dst=m.dst,
                         bytes=m.size_bytes, seq=m.seq, entries=len(m))
                put_msg(m)

    def ship(messages, round_no) -> None:
        """The transport seam: park, stamp, inject, announce, put."""
        if not messages:
            return
        if quarantined:
            # park before stamping/injection/announce: parked traffic
            # never touches the ledger or the stats, so discarding it at
            # rejoin is accounting-neutral
            kept = []
            for m in messages:
                if m.dst in quarantined:
                    parked.setdefault(m.dst, []).append(m)
                else:
                    kept.append(m)
            messages = kept
            if not messages:
                return
        if ckpt_token is not None:
            messages = stamp_messages(messages, ckpt_token)
        if injector is None or not injector.message_faults:
            _send_all(wid, messages, put_msg, control, stats, emit,
                      round_no, incarnation)
            return
        now_ship: List[Any] = []
        later: List[Tuple[float, Any, int]] = []
        for msg in messages:
            deliveries = injector.on_send(msg)
            if emit is not None and (not deliveries or len(deliveries) > 1
                                     or deliveries[0][1] > 0):
                fault = ("drop" if not deliveries else
                         "duplicate" if len(deliveries) > 1 else "delay")
                emit(obs_events.FAULT_INJECTED, round_no, fault=fault,
                     detail=f"dst={msg.dst} seq={msg.seq}")
            for m, d in deliveries:
                stats["messages"] += 1
                stats["entries"] += len(m)
                stats["bytes"] += m.size_bytes
                if d <= 0:
                    now_ship.append(m)
                else:
                    later.append((time.monotonic() + d, m, round_no))
        wire = _by_dst(now_ship)
        for _, m, _ in later:
            wire[m.dst] = wire.get(m.dst, 0) + len(m)
        if wire:
            # everything, held messages included, before any becomes
            # receivable
            _announce(control, wid, wire, incarnation)
        for m in now_ship:
            if emit is not None:
                emit(obs_events.MSG_SEND, round_no, dst=m.dst,
                     bytes=m.size_bytes, seq=m.seq, entries=len(m))
            put_msg(m)
        delayed.extend(later)

    recv_total = 0
    recv_by_token: Dict[Any, int] = {}

    def count_recv(batch) -> None:
        # per-token receive accounting feeds the master's flush check:
        # an epoch is only complete when every pre-record message is
        # accounted for on the receive side (message conservation)
        nonlocal recv_total
        if ft is None or not batch:
            return
        for m in batch:
            recv_total += len(m)
            tok = getattr(m, "token", None)
            if tok is not None:
                recv_by_token[tok] = recv_by_token.get(tok, 0) + len(m)

    def report_late(batch) -> None:
        """Un-tokened arrivals after our record: channel state of the
        snapshot (the master adds them to the matching one)."""
        if ckpt_token is None:
            return
        for m in batch:
            if getattr(m, "token", None) != ckpt_token:
                control.put(("ckpt_late", wid, ckpt_token, m))

    def drain_in() -> List[Any]:
        """Receive from both planes and credit the channel ledger.

        The ``drained`` report is the receive-side half of the master's
        per-channel conservation books: it fires when the messages leave
        the wire (not when a round consumes them), so in-flight reflects
        transport occupancy exactly and a takeover can settle the dead
        worker's channels without guessing what its peers had buffered.
        """
        nonlocal unanswered
        fresh = [msg for lane in in_lanes for msg in lane.get_all()]
        if pool is not None:
            fresh.extend(pool.poll())
        if fresh:
            unanswered = False
            by_src: Dict[int, int] = {}
            for m in fresh:
                by_src[m.src] = by_src.get(m.src, 0) + len(m)
            control.put(("drained", wid, by_src, incarnation))
            count_recv(fresh)
            report_late(fresh)
        return fresh

    def take_checkpoint(token) -> None:
        """Paper, Section 6: snapshot local state before any further send.

        Messages already drained (or sitting in the inbox) that do *not*
        carry the token belong to the pre-snapshot channel state; they are
        both recorded and kept for normal processing.  The report carries
        this worker's cumulative un-tokened send/receive counts (offset by
        the incarnation bases a replacement inherits) so the master can
        tell when the cut's channels have fully flushed.
        """
        nonlocal ckpt_token
        if ckpt_token == token:
            return  # already held: ignore the request
        carry.extend(drain_in())
        pre = [m for m in carry if getattr(m, "token", None) != token]
        control.put(("ckpt_state", wid, token, fragment_values(),
                     dict(context.scratch), list(pre),
                     sent_base + stats["entries"],
                     recv_base + recv_total
                     - recv_by_token.get(token, 0)))
        ckpt_token = token

    if ft is not None and ft.seeded:
        # rollback/respawn restart: restore state, skip PEval (it
        # logically ran before the checkpoint), treat the snapshot's
        # channel messages as a local carry batch.  The carry never
        # touches the ledger: it was never on the wire this run, and
        # crediting is drain-time, so un-announced local replay is
        # conservation-neutral.
        apply_snapshot_values(context, ft.seed_values,
                              ft.seed_scratch)
        rounds = 1
        # (restamped as 0th-superstep traffic: the checkpointed run's
        # superstep numbers mean nothing to this one)
        carry.extend(replace(m, round=0) for m in ft.seed_messages)
        if report_rounds:
            control.put(("round", wid, rounds, last_round_dur, rate, 0))
    else:
        crash_if_due()  # at_round <= 0 means die before PEval
        started0 = time.monotonic()
        if emit is not None:
            emit(obs_events.ROUND_START, 0, kind="peval", batches=0)
        out = engine.run_peval(wid)
        straggle(time.monotonic() - started0)
        rounds += 1
        stats["work"] += out.work
        clock["busy"] += time.monotonic() - started0
        if emit is not None:
            emit(obs_events.ROUND_END, 0, kind="peval",
                 duration=time.monotonic() - started0,
                 messages=len(out.messages))
        ship(out.messages, 0)
        if report_rounds:
            control.put(("round", wid, rounds, last_round_dur, rate, 0))
    #: BSP: the barrier report this worker still owes the master.  PEval
    #: (or the restored snapshot) is its 0th superstep: superstep 1 opens
    #: once every worker has reported, so it finds the whole fleet's
    #: round-0 traffic on the wire.
    owed = ("step-done", wid, 1) if mode == "BSP" else None

    def run_round(batch) -> None:
        nonlocal rounds, last_round_dur
        started = time.monotonic()
        if emit is not None:
            emit(obs_events.ROUND_START, rounds, kind="inceval",
                 batches=len(batch))
        result = engine.run_inceval(wid, batch, round_no=stamp())
        rounds += 1
        last_round_dur = max(time.monotonic() - started, 1e-6)
        straggle(last_round_dur)
        clock["busy"] += time.monotonic() - started
        stats["work"] += result.work
        if emit is not None:
            emit(obs_events.ROUND_END, rounds - 1, kind="inceval",
                 duration=last_round_dur, messages=len(result.messages))
        ship(result.messages, rounds - 1)
        if pool is not None:
            # the engine copied what it needed (concatenate/materialise);
            # the ring space behind the processed views can be reclaimed
            pool.release(batch)
        # eta (batches consumed) rides along for the master's Hsync policy
        if report_rounds:
            control.put(("round", wid, rounds, last_round_dur, rate,
                         len(batch)))

    def observe_arrivals(batch) -> None:
        nonlocal last_arrival, rate
        now = time.monotonic()
        for depth, msg in enumerate(batch):
            if last_arrival is not None:
                gap = max(now - last_arrival, 1e-9)
                rate = 0.5 * rate + 0.5 * (1.0 / gap) if rate else 1.0 / gap
            last_arrival = now
            if emit is not None:
                emit(obs_events.MSG_DELIVER, rounds, src=msg.src,
                     bytes=msg.size_bytes, seq=msg.seq, depth=depth + 1)

    inactive_reported = False
    stopped = None
    while True:
        if ft is not None:
            beat()
            crash_if_due()
            flush_delayed()
        # master commands take priority (probe/fleet/superstep/stop)
        cmds = command.get_all()
        if cmds:
            unanswered = False
        for cmd in cmds:
            kind = cmd[0]
            if kind in ("stop", "abort"):
                stopped = kind
                break
            if kind == "fleet":
                fleet = cmd[1]
                continue
            if kind == "checkpoint":
                take_checkpoint(cmd[1])
                continue
            if kind == "probe":
                # the paper's terminate broadcast: ack iff still inactive
                # (both planes: unread lane bytes AND unparsed ring
                # records), and nothing parked for a quarantined peer
                empty = (all(lane.empty() for lane in in_lanes)
                         and not carry and not held
                         and not any(parked.values())
                         and (pool is None or pool.drained))
                control.put(("ack" if empty else "wait", wid))
                continue
            if kind == "superstep":
                step = cmd[1]
                arrived = carry + drain_in()
                # a faster peer may already have shipped this
                # superstep's output; it belongs to the next one
                batch = [msg for msg in arrived if msg.round < step]
                carry[:] = [msg for msg in arrived if msg.round >= step]
                observe_arrivals(batch)
                if batch:
                    run_round(batch)
                owed = ("step-done", wid, len(batch))
                continue
            if kind == "quarantine":
                # a peer died: take one final drain of everything already
                # on the wire, then fence its rings.  The dead peer's
                # held-back delayed traffic is discarded — the border
                # re-ship at rejoin dominates those stale values under
                # monotone aggregation (and the master's channel
                # equalization settles their announce).
                qw = cmd[1]
                delayed[:] = [x for x in delayed if x[1].dst != qw]
                while True:
                    fresh = drain_in()
                    if not fresh:
                        break
                    carry.extend(fresh)
                if pool is not None:
                    last = pool.quarantine_peer(qw)
                    if last:
                        control.put(("drained", wid,
                                     {qw: sum(len(m) for m in last)},
                                     incarnation))
                        count_recv(last)
                        report_late(last)
                        carry.extend(last)
                    # own every drained-but-unprocessed view of the dead
                    # incarnation's ring bytes: the master is about to
                    # reset that ring and the replacement will overwrite
                    # the slab behind the views
                    for buf in (carry, held):
                        for i, msg in enumerate(buf):
                            if (isinstance(msg, ShmMessageBatch)
                                    and msg.src == qw):
                                owned = to_owned(msg)
                                pool.release([msg])
                                buf[i] = owned
                quarantined.add(qw)
                # resynchronise both data lanes shared with the dead
                # peer: the torn tail of its last frame, and whatever we
                # had not finished writing to it (the master empties the
                # pipe itself once we have acknowledged)
                lanes[(qw, wid)].discard()
                lanes[(wid, qw)].discard()
                control.put(("quarantined", wid, qw))
                continue
            if kind == "rejoin":
                # the replacement is up behind reset rings: rebind our
                # endpoints, drop traffic parked during quarantine, and
                # re-ship our full border through the normal seam
                qw = cmd[1]
                quarantined.discard(qw)
                parked.pop(qw, None)
                if pool is not None:
                    pool.rejoin_peer(qw)
                ship(engine.derive_reship(wid, qw, stamp()), rounds)
                continue
        if stopped is not None:
            break
        if mode == "BSP":
            # rounds only ever start on a command, but pickled frames
            # are read as they come (the next superstep sorts them by
            # stamp) and the barrier report waits until this worker's
            # own have crossed: a frame larger than the pipe needs its
            # reader, and must not straddle a barrier
            carry.extend(drain_in())
            if owed is not None and not any(
                    lane.backlog for lane in out_lanes):
                control.put(owed)
                owed = None
            block(bell=False)
            continue

        fresh = drain_in()
        if carry:
            fresh = carry + fresh
            carry.clear()
        if not fresh and not held:
            if not inactive_reported:
                control.put(("inactive", wid))
                inactive_reported = True
                status_change("running", "inactive", rounds)
            block()
            continue
        observe_arrivals(fresh)
        batch = held + fresh
        held.clear()
        if inactive_reported:
            control.put(("active", wid))
            inactive_reported = False
            status_change("inactive", "running", rounds)
        # SSP / Hsync-BSP gating against the broadcast fleet bound: hold
        # the (already observed) batch and re-check when fresh fleet
        # state or messages arrive.  The r_min worker itself is never
        # gated, so some active worker can always advance the bound.
        gate = None
        if mode == "SSP":
            gate = fleet["rmin"] + ssp_bound
        elif mode == "Hsync" and fleet.get("hmode") == "BSP":
            gate = fleet["rmin"]
        if gate is not None and rounds > gate:
            held.extend(batch)
            block()  # for the fleet broadcast that lifts the gate
            continue
        if mode == "Hsync" and fleet.get("switches", 0) != paid_switches:
            # pay the mode-switch cost once per global switch, scaled the
            # same way AAP's delay stretches are
            paid_switches = fleet.get("switches", 0)
            suspend(min(switch_cost * time_scale, 0.01))
        if mode == "AAP" and policy is not None:
            view = WorkerView(
                wid=wid, round=rounds, eta=len(batch),
                rmin=fleet["rmin"], rmax=fleet["rmax"],
                idle_time=0.0, now=time.monotonic(),
                t_pred=last_round_dur, s_pred=rate,
                fleet_avg_rate=fleet["avg_rate"],
                num_workers=pg.num_fragments,
                num_peers=len(pg.fragments[wid].peer_fragments()),
                fleet_avg_round_time=fleet["avg_round"])
            if emit is None:
                ds = policy.delay(view)
            else:
                ds, why = policy.decide(view)
                action = ("start" if ds <= 0 else
                          "suspend" if math.isinf(ds) else "wake_scheduled")
                emit(obs_events.DS_DECISION, rounds, ds=ds, action=action,
                     eta=view.eta, t_pred=view.t_pred, s_pred=view.s_pred,
                     rmin=view.rmin, rmax=view.rmax,
                     t_idle=view.idle_time,
                     reason=why.pop("reason", ""), **why)
            if ds > 0 and not math.isinf(ds):
                suspend(min(ds * time_scale, 0.01))
                accumulated = drain_in()
                observe_arrivals(accumulated)
                batch.extend(accumulated)
        run_round(batch)

    if stopped == "abort":
        return  # the master is tearing down: nobody reads a report
    control.send(("done", wid, _WorkerReport(
        wid=wid, rounds=rounds, work=stats["work"],
        messages_sent=stats["messages"], bytes_sent=stats["bytes"],
        values=fragment_values(), scratch=dict(context.scratch),
        events=events,
        shm_batches=pool.sent_batches if pool is not None else 0,
        shm_bytes=pool.sent_bytes if pool is not None else 0,
        shm_fallbacks=pool.fallbacks if pool is not None else 0,
        busy=clock["busy"], idle=clock["idle"],
        suspended=clock["suspended"], empty_wakeups=empty_wakeups)))
    # no pool.close() here: numpy views into the slabs may still be alive
    # (closing would raise BufferError); process exit unmaps, and the
    # master's arena sweep owns the unlink


class MultiprocessRuntime:
    """Run a PIE program across real OS processes.

    The fault-tolerance keyword arguments mirror
    :class:`~repro.runtime.threaded.ThreadedRuntime`; all default to off,
    leaving the legacy path untouched.  ``snapshot`` (or
    :meth:`seed_from_snapshot`) starts the run from a consistent
    Chandy-Lamport checkpoint instead of PEval.
    """

    def __init__(self, program: PIEProgram, pg: PartitionedGraph, query: Any,
                 mode: str = "AP", timeout: float = 120.0,
                 time_scale: float = 0.001,
                 observer: Optional[Any] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 checkpoint_interval: Optional[float] = None,
                 heartbeat_interval: float = 0.02,
                 heartbeat_timeout: float = 1.0,
                 detect_failures: Optional[bool] = None,
                 snapshot: Optional[GlobalSnapshot] = None,
                 vectorized: bool = False,
                 staleness_bound: Optional[int] = None,
                 hsync_policy: Optional[HsyncPolicy] = None,
                 transport: Optional[str] = None,
                 slab_bytes: int = 1 << 20,
                 respawn_budget: int = 0):
        if mode not in _MODES:
            raise RuntimeConfigError(
                f"multiprocess runtime supports {_MODES}, got {mode!r}")
        if transport is None:
            transport = os.environ.get("REPRO_MP_TRANSPORT", "shm")
        if transport not in _TRANSPORTS:
            raise RuntimeConfigError(
                f"multiprocess transport must be one of {_TRANSPORTS}, "
                f"got {transport!r}")
        #: requested data plane; :attr:`transport_used` reports what the
        #: last run actually got (shm falls back to queue where
        #: shared memory is unavailable)
        self.transport = transport
        self.slab_bytes = slab_bytes
        self.transport_used: Optional[str] = None
        #: SSP bound c (same default as make_policy) and the master-side
        #: Hsync switching heuristic; both inert for the other modes
        self.staleness_bound = 1 if staleness_bound is None \
            else staleness_bound
        self.hsync = (hsync_policy if hsync_policy is not None
                      else HsyncPolicy()) if mode == "Hsync" else None
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
        if detect_failures is None:
            detect_failures = (fault_plan is not None
                               or checkpoint_interval is not None)
        self.detect_failures = detect_failures
        self.checkpoint_interval = checkpoint_interval
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._ft = (fault_plan is not None or detect_failures
                    or checkpoint_interval is not None)
        #: structured failure log (heartbeat misses, detected deaths)
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
        if snapshot is not None:
            self.seed_from_snapshot(snapshot)

    def seed_from_snapshot(self, snapshot: GlobalSnapshot) -> None:
        """Start the next :meth:`run` from a consistent checkpoint."""
        if snapshot.num_workers_recorded != self.pg.num_fragments:
            raise SnapshotError(
                f"snapshot covers {snapshot.num_workers_recorded} workers, "
                f"runtime has {self.pg.num_fragments}")
        self._snapshot = snapshot

    def _ft_config(self, wid: int) -> Optional[_FTConfig]:
        if not self._ft and self._snapshot is None:
            return None
        cfg = _FTConfig(fault_plan=self.fault_plan,
                        heartbeat_interval=(self.heartbeat_interval
                                            if self.detect_failures else 0.0))
        if self._snapshot is not None:
            state = self._snapshot.worker_states[wid]
            cfg.seed_values = state.values
            cfg.seed_scratch = state.scratch
            cfg.seed_messages = self._snapshot.buffered_messages(wid)
        return cfg

    def _respawn_config(self, wid: int, incarnation: int,
                        plan: Optional[FaultPlan], sent_base: int,
                        recv_base: int) -> _FTConfig:
        """Config for an in-place replacement of a dead worker.

        Seeds the fragment from the last *complete* checkpoint when one
        recorded this worker (the fast path); otherwise the replacement
        re-runs PEval from scratch — correct either way under monotone
        IncEval, because the surviving peers re-ship their full border at
        rejoin (Theorem 2: any consistent cut restarts any subset).
        """
        cfg = _FTConfig(fault_plan=plan,
                        heartbeat_interval=(self.heartbeat_interval
                                            if self.detect_failures
                                            else 0.0),
                        incarnation=incarnation,
                        sent_base=sent_base, recv_base=recv_base)
        snap = self.last_checkpoint
        if (snap is not None and snap.complete
                and wid in snap.worker_states):
            state = snap.fragment_state(wid)
            cfg.seed_values = state.values
            cfg.seed_scratch = state.scratch
            cfg.seed_messages = snap.buffered_messages(wid)
        return cfg

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
                arena = SlabArena(m, self.slab_bytes)
            except Exception:  # pragma: no cover - platform-dependent
                arena = None
        self.transport_used = "shm" if arena is not None else "queue"
        policy_conf = {"staleness_bound": self.staleness_bound,
                       "switch_cost": (self.hsync.switch_cost
                                       if self.hsync is not None else 1.0)}
        self.respawns = []
        self._wake = {"decisions": 0, "timeout_decisions": 0}

        def launch(wid: int, cfg: Optional[_FTConfig]):
            p = ctx.Process(
                target=_worker_main,
                args=(control[wid], wid, self.mode, self.program, self.pg,
                      self.query, lanes, commands[wid], self.time_scale,
                      self.obs is not None, cfg, self.vectorized,
                      policy_conf, arena),
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
            procs[wid] = launch(wid, self._respawn_config(
                wid, incarnation, plan, sent_base, recv_base))

        started = time.monotonic()
        self._started = started
        procs: List[Any] = []
        try:
            for wid in range(m):
                procs.append(launch(wid, self._ft_config(wid)))
            reports = self._master_loop(m, control, commands, procs, lanes,
                                        arena, spawn_replacement)
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
    def _master_loop(self, m: int, control: List[Lane],
                     commands: List[Lane], procs: List,
                     lanes: Dict[Tuple[int, int], Lane],
                     arena: Optional[SlabArena],
                     spawn) -> Dict[int, _WorkerReport]:
        deadline = time.monotonic() + self.timeout
        # termination ledger v3: per-directed-channel conservation books.
        # ``sent[(s, d)]`` counts logical entries announced by s for d,
        # ``recv[(s, d)]`` entries d reported drained from s.  Channel
        # granularity is what makes surgical recovery possible: a takeover
        # settles exactly the dead worker's channels and leaves everyone
        # else's accounting untouched.
        sent: Dict[Tuple[int, int], int] = {}
        recv: Dict[Tuple[int, int], int] = {}
        #: current incarnation per worker slot; ledger reports from an
        #: older incarnation arrive late and are dropped (their channels
        #: were already equalized at takeover)
        era = [0] * m
        inactive = [False] * m
        rounds = [1] * m
        rates = [0.0] * m
        durations = [1e-3] * m
        reports: Dict[int, _WorkerReport] = {}
        acks_pending = 0
        ack_count = 0
        got_wait = False
        #: BSP barrier membership: which workers answered the current
        #: superstep (a set, not a counter, so a takeover cannot count a
        #: slot twice).  PEval is the 0th superstep: it starts empty and
        #: fills as the workers report theirs.
        steppers: set = set()
        step_activity = False
        step_no = 0
        budget = [self.respawn_budget] * m
        plan_now = self.fault_plan
        qacks: set = set()
        qtarget = [-1]
        detector = (FailureDetector(m, self.heartbeat_interval,
                                    self.heartbeat_timeout,
                                    now=time.monotonic())
                    if self.detect_failures else None)
        ckpt = (LiveCheckpointer(self.checkpoint_interval, m)
                if self.checkpoint_interval is not None else None)
        last_ft_check = 0.0
        # per-epoch channel accounting: the cut is flushed only when every
        # un-tokened (pre-record) message has been received or amended
        ckpt_sent: Dict[int, int] = {}
        ckpt_recv: Dict[int, int] = {}
        ckpt_amend = [0]

        def in_flight() -> int:
            total = 0
            for chan, n in sent.items():
                d = n - recv.get(chan, 0)
                if d > 0:
                    # clamped per channel: a post-takeover drain race can
                    # over-credit one channel, which must not hide real
                    # in-flight traffic elsewhere
                    total += d
            return total

        def broadcast(msg) -> None:
            for cq in commands:
                cq.send(msg)

        def events(timeout: float) -> Optional[List[Tuple]]:
            """Block for one event, then take what is readable — one
            bounded read per lane that woke us.  ``None`` means the
            timeout passed in silence."""
            ready = wait_readable(control, max(timeout, 0.0))
            if not ready:
                return None
            return [evt for lane in ready for evt in lane.get_all()]

        def collect_reports() -> Dict[int, _WorkerReport]:
            while len(reports) < m:
                got = events(5.0)
                if got is None:
                    missing = [w for w in range(m) if w not in reports]
                    raise TerminationError(
                        f"workers {missing} never reported back after the "
                        f"stop broadcast")
                for evt in got:
                    if evt[0] == "done":
                        reports[evt[1]] = evt[2]
            return reports

        def accept_late(wid: int, token: int, msg) -> None:
            # paper: "messages that arrive late without the token are
            # added to the last snapshot" — match by the receiver's token
            current_snap = (ckpt.current.snapshot
                            if ckpt.current is not None else None)
            for coord_snap in (current_snap, ckpt.last):
                if coord_snap is not None and coord_snap.token == token:
                    coord_snap.channel_messages.setdefault(
                        wid, []).append(msg)
                    if coord_snap is current_snap:
                        # conservation is counted in logical entries,
                        # matching the workers' sent/recv counters
                        ckpt_amend[0] += len(msg)
                    return

        def handle(evt) -> str:
            """Dispatch one control event; shared by the main loop and
            the takeover pump so no event class is ever starved."""
            nonlocal ack_count, got_wait, step_activity
            kind = evt[0]
            if kind == "sent":
                if evt[3] != era[evt[1]]:
                    return kind  # dead incarnation's backlog: settled
                for dst, n in evt[2].items():
                    key = (evt[1], dst)
                    sent[key] = sent.get(key, 0) + n
            elif kind == "drained":
                if evt[3] != era[evt[1]]:
                    return kind
                for src, n in evt[2].items():
                    key = (src, evt[1])
                    recv[key] = recv.get(key, 0) + n
            elif kind == "quarantined":
                if evt[2] == qtarget[0]:
                    qacks.add(evt[1])
            elif kind == "inactive":
                inactive[evt[1]] = True
            elif kind == "active":
                inactive[evt[1]] = False
                got_wait = True
            elif kind == "round":
                _, wid, r, dur, rate, eta = evt
                rounds[wid] = r
                durations[wid] = dur
                rates[wid] = rate
                if self.hsync is not None:
                    # feed the switching heuristic; only eta and the
                    # duration matter to on_round_complete
                    self.hsync.on_round_complete(WorkerView(
                        wid=wid, round=r, eta=eta, rmin=min(rounds),
                        rmax=max(rounds), idle_time=0.0,
                        now=time.monotonic() - self._started,
                        t_pred=dur, s_pred=rate, fleet_avg_rate=0.0,
                        num_workers=m), dur)
            elif kind == "heartbeat":
                if detector is not None:
                    detector.beat(evt[1], time.monotonic(), evt[2])
            elif kind == "ckpt_state":
                _, wid, token, values, scratch, pre, sent_n, recv_n = evt
                if (ckpt is not None and ckpt.current is not None
                        and ckpt.current.token == token):
                    ckpt.current.record_state(wid, values, scratch, pre)
                    ckpt_sent[wid] = sent_n
                    # the recorded buffer contents count as received
                    ckpt_recv[wid] = recv_n
            elif kind == "ckpt_late":
                if ckpt is not None:
                    accept_late(evt[1], evt[2], evt[3])
            elif kind == "ack":
                ack_count += 1
            elif kind == "wait":
                got_wait = True
                ack_count += 1
            elif kind == "error":
                detail = f"worker {evt[1]} crashed: {evt[2]}"
                detail += ("\n--- worker traceback ---\n"
                           + str(evt[3]).rstrip())
                raise TerminationError(detail)
            elif kind == "step-done":
                steppers.add(evt[1])
                if evt[2] > 0:
                    step_activity = True
            return kind

        def pump(timeout_s: float, until) -> bool:
            """Drain control events until ``until()`` holds (True) or the
            takeover-step timeout expires (False)."""
            end = time.monotonic() + timeout_s
            while not until():
                if time.monotonic() > deadline:
                    raise TerminationError(
                        f"multiprocess run exceeded {self.timeout}s "
                        f"(mode={self.mode}, during takeover)")
                if time.monotonic() > end:
                    return False
                for evt in events(0.005) or ():
                    handle(evt)
            return True

        def try_takeover(s) -> bool:
            """Degradation-ladder rung 1: in-place respawn with fragment
            takeover.  Returns True when the replacement is running and
            rejoined; False hands the failure to the next rung (whole-run
            rollback via WorkerCrashedError)."""
            nonlocal acks_pending, ack_count, got_wait, plan_now
            w = s.wid
            t0 = time.monotonic()
            t = t0 - self._started

            def degrade(reason: str) -> bool:
                self._emit_master(obs_events.DEGRADE, wid=w,
                                  frm="respawn", to="rollback",
                                  reason=reason)
                return False

            if budget[w] <= 0:
                if self.respawn_budget > 0:
                    return degrade("respawn budget exhausted")
                return False  # rung disabled: no DEGRADE noise
            if not getattr(self.program, "reship_capable", True):
                return degrade("program aggregation is not idempotent")
            if m == 1:
                return degrade("no surviving peers to re-ship from")
            # 1. make sure the dead incarnation is really gone: its slab
            # cursors and lane ends must never touch the wire again
            if not _reap(procs[w]):  # pragma: no cover - defensive
                return degrade("old incarnation would not die")
            # 2. quarantine: survivors take a final drain of everything
            # the dead worker got onto the wire, fence its rings, and
            # stop writing to its data lanes.  Only *live*
            # peers owe an acknowledgement — and one may die mid-pump
            # (its own scheduled crash, a cascading fault): it can never
            # ack, so stop waiting for it rather than timing the whole
            # takeover out.  Its own takeover runs next, as soon as the
            # failure detector notices; channel bookkeeping stays sound
            # because step 5 equalizes the dead pair's channels again.
            peers = [d for d in range(m) if d != w]
            qacks.clear()
            qtarget[0] = w
            live = {d for d in peers if procs[d].is_alive()}
            for d in live:
                commands[d].send(("quarantine", w))

            def acked_or_dead() -> bool:
                for d in list(live - qacks):
                    if not procs[d].is_alive():
                        live.discard(d)
                return live <= qacks

            ok = pump(5.0, acked_or_dead)
            qtarget[0] = -1
            if not ok:
                return degrade("quarantine acknowledgement timed out "
                               f"(missing {sorted(live - qacks)})")
            # 3. empty the dead worker's inbound data lanes.  Each has one
            # producer, and that producer is now fenced (it acknowledged,
            # so it parks instead of writing until rejoin) or dead, so
            # whatever the pipe holds — whole frames or the torn head of
            # one — can be read off and thrown away; the replacement
            # starts on a frame boundary.  The books for these entries
            # are settled in step 5.
            for d in peers:
                lanes[(d, w)].discard()
            # 4. retire the dead incarnation's rings: the generation bump
            # makes any torn or stale endpoint state unreadable
            if arena is not None:
                arena.reset_worker(w)
            # 5. equalize the ledger.  Outbound (w, d): lower sent to
            # what was actually drained — announced-but-lost traffic died
            # with the worker.  Inbound (d, w): raise recv to sent — the
            # survivors' announced traffic was drained above, discarded
            # with the rings, or forgone with the delayed queue; either
            # way it is off the wire.  The post-equalize sums seed the
            # replacement's cumulative checkpoint counters so epoch
            # conservation still balances across incarnations.
            for d in peers:
                recv[(d, w)] = sent.get((d, w), 0)
                sent[(w, d)] = recv.get((w, d), 0)
            sent_base = sum(sent.get((w, d), 0) for d in peers)
            recv_base = sum(recv.get((d, w), 0) for d in peers)
            # 6. an open checkpoint epoch can never complete (the dead
            # worker will never record); abort it, keep the last one
            if ckpt is not None:
                ckpt.abort_current(time.monotonic())
                ckpt_sent.clear()
                ckpt_recv.clear()
                ckpt_amend[0] = 0
            # 7. respawn: disarm only the crash that fired, bump the
            # incarnation, seed from the last complete checkpoint
            budget[w] -= 1
            if plan_now is not None:
                plan_now = plan_now.without_crash(w)
            incarnation = (detector.respawn(w, time.monotonic())
                           if detector is not None else era[w] + 1)
            era[w] = incarnation
            snap = self.last_checkpoint
            seeded = (snap is not None and snap.complete
                      and w in snap.worker_states)
            spawn(w, incarnation, plan_now, sent_base, recv_base)
            # 8. master bookkeeping: the replacement starts fresh
            inactive[w] = False
            rounds[w] = 1
            durations[w] = 1e-3
            rates[w] = 0.0
            # BSP: the open barrier waits for the replacement's own
            # 0th-superstep report, whatever the dead incarnation answered
            steppers.discard(w)
            acks_pending = 0
            ack_count = 0
            got_wait = False
            # 9. rejoin: live survivors rebind the reset rings and
            # re-ship their full border through the normal transport
            # seam — everything the replacement's checkpoint state (or
            # fresh PEval) cannot re-derive on its own.  A peer that
            # died mid-takeover re-ships nothing here; when its own
            # takeover runs, both replacements restart from the same
            # consistent cut (or both from PEval, whose output is the
            # full border), which is exactly the Theorem 2 condition.
            for d in live:
                commands[d].send(("rejoin", w))
            duration = time.monotonic() - t0
            self.respawns.append({
                "wid": w, "incarnation": incarnation, "seeded": seeded,
                "token": snap.token if seeded else None, "takeover": True,
                "t": t, "duration": duration, "budget_left": budget[w]})
            self._emit_master(obs_events.WORKER_RESPAWN, wid=w,
                              incarnation=incarnation, seeded=seeded,
                              token=snap.token if seeded else None,
                              budget_left=budget[w])
            self._emit_master(obs_events.FRAGMENT_TAKEOVER, wid=w,
                              incarnation=incarnation,
                              reshipped=len(live),
                              duration=duration)
            return True

        def ft_check() -> None:
            nonlocal last_ft_check
            now = time.monotonic()
            if now - last_ft_check < 0.005:
                return
            last_ft_check = now
            t = now - self._started
            if ckpt is not None:
                coord = ckpt.maybe_start(now)
                if coord is not None:
                    ckpt_sent.clear()
                    ckpt_recv.clear()
                    ckpt_amend[0] = 0
                    broadcast(("checkpoint", coord.token))
                # the cut is usable once every pre-record message is on
                # the receive side (in a recorded buffer, a reported
                # late amendment, or a processed round) — the master's
                # raw in_flight counter would rarely be zero mid-run.
                # Clamped at zero: a post-takeover drain race can only
                # over-credit the receive side, and a genuinely late
                # message still lands in the snapshot via ckpt_late.
                residual = (max(sum(ckpt_sent.values())
                                - sum(ckpt_recv.values()) - ckpt_amend[0],
                                0)
                            if len(ckpt_sent) == m else 1)
                snap = ckpt.maybe_complete(now, residual)
                if snap is not None:
                    self.last_checkpoint = snap
                    self._emit_master(
                        obs_events.CHECKPOINT, token=snap.token,
                        workers=snap.num_workers_recorded,
                        channel_messages=snap.num_channel_messages)
            if detector is None:
                return
            for s in detector.check(
                    now, alive=lambda i: procs[i].is_alive()):
                event = FailureEvent(t=t, kind=s.kind, wid=s.wid,
                                     detail=f"age={s.age:.3f}s")
                self.failures.append(event)
                if not s.fatal:
                    self._emit_master(obs_events.HEARTBEAT_MISS,
                                      wid=s.wid, age=s.age)
                    continue
                self._emit_master(obs_events.FAILURE_DETECTED, wid=s.wid,
                                  reason=s.kind, age=s.age)
                # degradation ladder, rung 1: try an in-place respawn
                # with fragment takeover before surfacing the crash
                if not try_takeover(s):
                    raise WorkerCrashedError(
                        wid=s.wid, reason=s.kind, detected_at=t,
                        checkpoint=ckpt.last if ckpt is not None else None,
                        failures=self.failures, detection_latency=s.age)

        def start_superstep() -> None:
            nonlocal step_activity, step_no
            steppers.clear()
            step_activity = False
            step_no += 1
            self._emit_master(obs_events.BARRIER, step=step_no)
            broadcast(("superstep", step_no))

        def active_rounds() -> List[int]:
            # bounds over *active* workers: a finished worker must not pin
            # r_min, or an SSP/Hsync-gated worker would deadlock waiting
            # for rounds that will never come (same rule as WorkerState.
            # pending in the other runtimes)
            return [rounds[i] for i in range(m) if not inactive[i]] or rounds

        def broadcast_fleet() -> None:
            nonlocal told_rmin
            live_rates = [r for r in rates if r > 0]
            base = active_rounds()
            told_rmin = min(base)
            fleet = {"rmin": told_rmin, "rmax": max(base),
                     "avg_rate": (sum(live_rates) / len(live_rates)
                                  if live_rates else 0.0),
                     "avg_round": sum(durations) / len(durations)}
            if self.hsync is not None:
                fleet["hmode"] = self.hsync.mode
                fleet["switches"] = self.hsync.switches
            # telemetry, not protocol: skip a worker whose pipe is full
            # rather than block the master behind a stalled consumer
            for cq in commands:
                cq.send_or_drop(("fleet", fleet))

        bsp = self.mode == "BSP"
        told_rmin = -1
        # async modes that consult fleet state get periodic broadcasts
        fleet_mode = self.mode in ("AAP", "SSP", "Hsync")
        #: SSP and Hsync workers block on r_min: tell them when it moves,
        #: not 20 ms later
        gating = self.mode in ("SSP", "Hsync")
        next_fleet = 0.0
        timed_out = False

        def decided() -> None:
            self._wake["decisions"] += 1
            self._wake["timeout_decisions"] += timed_out

        def probe() -> None:
            # the paper's terminate broadcast: probe every worker
            nonlocal ack_count, got_wait, acks_pending
            decided()
            ack_count = 0
            got_wait = False
            acks_pending = m
            broadcast(("probe",))

        def decide() -> bool:
            """Take the barrier / probe / stop decision the books allow
            right now; True once the stop broadcast went out.

            Deciding on the spot, not after a quiet spell, is safe
            because each lane is FIFO: by the time a worker's
            ``step-done`` or ``ack`` has been read, so has every ``sent``
            and ``drained`` it reported before it."""
            nonlocal acks_pending
            if acks_pending:
                if ack_count < acks_pending:
                    return False
                acks_pending = 0
                self._emit_master(obs_events.TERMINATE_PROBE,
                                  result="ack" if not got_wait else "wait")
                if (not got_wait and in_flight() == 0
                        and (bsp or all(inactive))):
                    decided()
                    broadcast(("stop",))
                    return True
                if bsp:
                    decided()
                    start_superstep()
                    return False
            if bsp:
                if len(steppers) == m:
                    if not step_activity and in_flight() == 0:
                        # a quiet barrier is necessary but no longer
                        # sufficient: drain-time crediting means a
                        # checkpoint drain may have parked messages in a
                        # worker's carry after it answered an empty
                        # superstep — probe before stopping
                        probe()
                    else:
                        decided()
                        start_superstep()
            elif all(inactive) and in_flight() == 0:
                probe()
            return False

        while True:
            now = time.monotonic()
            if now > deadline:
                raise TerminationError(
                    f"multiprocess run exceeded {self.timeout}s "
                    f"(mode={self.mode})")
            timers = [deadline]
            if self._ft:
                ft_check()
                timers.append(last_ft_check + 0.005)
            if fleet_mode:
                if now >= next_fleet or (
                        gating and min(active_rounds()) != told_rmin):
                    broadcast_fleet()
                    next_fleet = now + 0.02
                timers.append(next_fleet)
            if decide():
                return collect_reports()
            got = events(min(timers) - time.monotonic())
            timed_out = got is None
            for evt in got or ():
                handle(evt)

    # ------------------------------------------------------------------
    def _assemble(self, reports: Dict[int, _WorkerReport],
                  makespan: float) -> RunResult:
        # rebuild contexts in the master and inject the workers' states
        engine = Engine(self.program, self.pg, self.query,
                        vectorized=self.vectorized)
        for wid, report in reports.items():
            vals = report.values
            if (isinstance(vals, tuple) and len(vals) == 2
                    and vals[0] == "__dense__"):
                engine.contexts[wid].import_state(vals[1])
            else:
                engine.contexts[wid].values = vals
            engine.contexts[wid].scratch = report.scratch
            engine.contexts[wid].changed = set()
        answer = engine.assemble()
        workers = [WorkerMetrics(
            wid=wid, rounds=rep.rounds, messages_sent=rep.messages_sent,
            bytes_sent=rep.bytes_sent, work_done=rep.work,
            busy_time=rep.busy, idle_time=rep.idle,
            suspended_time=rep.suspended)
            for wid, rep in sorted(reports.items())]
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
            self._merge_observations(reports)
            registry_from_workers(workers, into=self.obs.metrics)
            metrics = RunMetrics.from_registry(self.obs.metrics,
                                               makespan=makespan)
            extras["obs"] = self.obs
        else:
            metrics = RunMetrics.from_workers(workers, makespan=makespan)
        return RunResult(answer=answer, mode=f"{self.mode}-multiprocess",
                         metrics=metrics,
                         rounds=[reports[w].rounds for w in range(
                             self.pg.num_fragments)],
                         extras=extras)

    def _merge_observations(self, reports: Dict[int, _WorkerReport]) -> None:
        """Fold worker-process event records into the master's observer.

        Worker timestamps are absolute monotonic readings (fork shares the
        clock), normalised here to run-relative time; the merged log is
        re-sorted so records from different processes interleave by time.
        """
        reg = self.obs.metrics
        for _, report in sorted(reports.items()):
            for type_, t_abs, wid, round_no, payload in report.events:
                t = max(t_abs - self._started, 0.0)
                self.obs.log.emit(type_, t, wid=wid, round=round_no,
                                  **payload)
                if type_ == obs_events.ROUND_END:
                    reg.histogram("round_duration", wid).observe(
                        payload.get("duration", 0.0))
                elif type_ == obs_events.ROUND_START:
                    if payload.get("kind") == "inceval":
                        reg.histogram("eta_at_drain", wid).observe(
                            payload.get("batches", 0))
                elif type_ == obs_events.MSG_SEND:
                    reg.counter("wire_bytes").inc(payload.get("bytes", 0))
                elif type_ == obs_events.MSG_DELIVER:
                    reg.histogram("buffer_depth", wid).observe(
                        payload.get("depth", 0))
                elif type_ == obs_events.DS_DECISION:
                    ds = payload.get("ds", 0.0)
                    if math.isinf(ds):
                        reg.counter("ds_suspend", wid).inc()
                    else:
                        reg.histogram("ds_chosen", wid).observe(ds)
        self.obs.log.sort()
