"""The worker process of the multiprocess runtime.

A worker process is resident: :func:`_worker_main` keeps its fragment
(the forked partition, whose memo stays warm), its lanes and its slab
rings, and runs one :class:`_Worker` per run the master ships it — the
first run's :class:`_RunSpec` comes with the fork, every later one over
the command lane.  A :class:`_Worker` drives one
:class:`~repro.core.step.WorkerStep` — the step runs the rounds, asks the
delay policy and accounts the traffic — and keeps what is the run's own:
the blocking wait (wake-up), the master's commands (termination,
barriers, checkpoints, takeover) and the fault seams.  The wire protocol
and its ordering guarantees are described in
:mod:`repro.runtime.multiprocess`.
"""

from __future__ import annotations

import functools
import os
import resource
import select
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.delay import DelayPolicy
from repro.core.engine import Engine
from repro.core.pie import PIEProgram
from repro.core.step import (DEFAULT_ROUND_TIME, Fleet, WorkerStep,
                             restamped)
from repro.core.worker import WorkerMetrics
from repro.obs import events as obs_events
from repro.partition.fragment import PartitionedGraph
from repro.runtime.faultplan import FaultPlan, fault_kind
from repro.runtime.lane import Lane
from repro.runtime.slab import ShmMessageBatch, SlabArena, SlabPool, to_owned
from repro.runtime.snapshot import stamp_messages

#: longest a worker stays blocked before it looks again anyway.  A
#: safety net, not a latency knob: every wake-up source is a readable
#: pipe (level-triggered, so none can be missed) and no test or
#: benchmark run ever waits this long.
_REPOLL = 0.25
#: cap, in seconds, on one delay stretch and on one straggler stall
_MAX_DELAY = 0.01
_MAX_STALL = 0.05
#: the fleet's round time of a worker that has reported none (the master's
#: book and a worker's fleet before the first broadcast start at it)
UNREPORTED_ROUND_TIME = 1e-3


@dataclass
class _FTConfig:
    """Per-worker fault-tolerance config, shipped in each run's spec.

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
class _RunSpec:
    """What one run asks of a worker process beyond its resident
    fragment: shipped with the fork for a pool's first run and over the
    command lane for every later one (so it must pickle)."""

    mode: str
    program: PIEProgram
    query: Any
    observe: bool
    ft: Optional[_FTConfig]
    vectorized: bool
    policy: DelayPolicy


@dataclass
class _WorkerReport:
    """What a worker ships back to the master when told to stop."""

    #: the step's final statistics (rounds, busy / idle / suspended
    #: seconds, messages and bytes both ways, work)
    metrics: WorkerMetrics
    values: Any
    scratch: Dict[str, Any]
    #: observability records collected in the worker process, as
    #: ``(type, absolute-monotonic-time, wid, round, payload)`` tuples
    events: List[Tuple] = field(default_factory=list)
    #: data-plane accounting: batches/bytes that rode the shared-memory
    #: rings, and batches that fell back to the pickled data lanes
    shm_batches: int = 0
    shm_bytes: int = 0
    shm_fallbacks: int = 0
    #: wake-ups by a readable pipe that found no command and no message
    empty_wakeups: int = 0
    #: this run's own CPU seconds and minor faults, the process's max
    #: RSS, and its pid (a resident worker is not reaped after the run,
    #: so its parent's ``RUSAGE_CHILDREN`` never sees it)
    usage: Dict[str, float] = field(default_factory=dict)


def _usage_now() -> Tuple[float, int, float]:
    """CPU seconds (user + sys), minor faults and max RSS (MB) of this
    process so far."""
    now = resource.getrusage(resource.RUSAGE_SELF)
    return (now.ru_utime + now.ru_stime, now.ru_minflt,
            now.ru_maxrss / 1024.0)


def _worker_main(control: Lane, command: Lane, wid: int,
                 pg: PartitionedGraph, lanes: Dict[Tuple[int, int], Lane],
                 arena: Optional[SlabArena], spec: _RunSpec) -> None:
    """Entry point of one resident worker process: run ``spec``, then
    every run the master ships, until it aborts (or is gone)."""
    try:
        pool = arena.pool(wid) if arena is not None else None
        parent = os.getppid()
        held: List[Tuple] = []
        since = (0.0, 0, 0.0)  # the first run pays for the fork too
        while _Worker(control, command, wid, pg, lanes, pool, spec, held,
                      since).run():
            since = _usage_now()
            got = _next_run(command, parent)
            if got is None:
                return
            spec, held = got
            if pool is not None:
                pool.rebind()  # the master reset every ring before
    except Exception as exc:  # pragma: no cover - surfaced by master
        # ship the formatted traceback too: the master re-raises it, and
        # "worker 3 crashed: KeyError(5)" alone is undebuggable
        control.send(("error", wid, repr(exc), traceback.format_exc()))


def _next_run(command: Lane, parent: int
              ) -> Optional[Tuple[_RunSpec, List[Tuple]]]:
    """Wait between runs: the next ``run`` command's spec, with the
    commands read together with it (the new run's first fleet broadcast
    may share the read); ``None`` on ``abort`` or once the master is
    gone (this process was re-parented)."""
    while True:
        cmds = command.get_all()
        for at, cmd in enumerate(cmds):
            if cmd[0] == "run":
                return cmd[1], cmds[at + 1:]
            if cmd[0] == "abort":
                return None
        if not select.select([command], [], [], _REPOLL)[0] \
                and os.getppid() != parent:
            return None


def _entries_by(end: str, messages) -> Dict[int, int]:
    """Logical-entry counts per ``end`` (``"src"`` / ``"dst"``), the
    channel ledger's currency."""
    out: Dict[int, int] = {}
    for m in messages:
        peer = getattr(m, end)
        out[peer] = out.get(peer, 0) + len(m)
    return out


class _Worker:
    """One run of one worker: ``control`` is its event lane to the
    master, ``command`` the master's lane to it, ``lanes[(src, dst)]``
    the pickled data plane and ``pool`` its endpoint of the slab rings
    (``None``: the lanes carry everything); all of them predate the fork
    and outlive the run.  ``held`` are commands already read for this
    run, ``since`` the process's :func:`_usage_now` when it began."""

    def __init__(self, control: Lane, command: Lane, wid: int,
                 pg: PartitionedGraph, lanes: Dict[Tuple[int, int], Lane],
                 pool: Optional[SlabPool], spec: _RunSpec,
                 held: List[Tuple], since: Tuple[float, int, float]):
        started = time.monotonic()
        self.control = control
        self.command = command
        self.wid = wid
        self.mode = mode = spec.mode
        self.lanes = lanes
        self.ft = ft = spec.ft
        self.held = held
        self.since = since
        # Engine builds contexts for every fragment; acceptable at these
        # scales and keeps the shipping path identical to the other
        # runtimes.  Only contexts[wid] is ever touched in this process.
        self.engine = Engine(spec.program, pg, spec.query,
                             vectorized=spec.vectorized)
        self.context = self.engine.contexts[wid]
        self.in_lanes = [lane for (_, dst), lane in lanes.items()
                         if dst == wid]
        self.out_lanes = [lane for (src, _), lane in lanes.items()
                          if src == wid]
        self.pool = pool
        #: observability records, shipped in the final report (timestamps
        #: are absolute monotonic; the master normalises them)
        self.events: List[Tuple] = []
        events = self.events  # the sink holds the list, not the worker
        self.emit = ((lambda *record: events.append(record))
                     if spec.observe else None)
        # --- fault-tolerance state (all inert when ft is None) ------------
        plan = ft.fault_plan if ft is not None else None
        self.injector = plan.injector() if plan is not None else None
        self.hb_interval = ft.heartbeat_interval if ft is not None else 0.0
        self.incarnation = ft.incarnation if ft is not None else 0
        self.last_hb = 0.0
        #: the checkpoint token this worker currently holds
        self.ckpt_token = None
        #: entries this incarnation announced / took off the wire, for the
        #: checkpoint-conservation counts
        self.entries_out = 0
        self.recv_total = 0
        self.recv_by_token: Dict[Any, int] = {}
        #: (due, msg): announced and counted, held until due
        self.delayed: List[Tuple[float, Any]] = []
        #: off the wire but not yet in the step's buffer: set aside for the
        #: next superstep (BSP), or drained by a command handler
        self.carry: List[Any] = []
        #: peers currently under master quarantine (dead, not yet respawned)
        self.quarantined: set = set()
        #: messages produced for a quarantined peer: kept out of the wire
        #: and the ledger; discarded at rejoin (the full border re-ship that
        #: accompanies rejoin dominates them under monotone aggregation)
        self.parked: Dict[int, List[Any]] = {}
        self.step = WorkerStep(
            self.engine, wid, spec.policy, clock=time.monotonic,
            emit=self.emit,
            stretch=None if self.injector is None else functools.partial(
                self.injector.stall, wid, cap=_MAX_STALL))
        # this step's clock is absolute: PEval is pending since the
        # process started, not since time 0
        state = self.step.state
        state.idle_since = state.wait_started = started
        #: the master's latest broadcast; AAP / SSP / Hsync decide on it
        self.fleet = Fleet(0, 0, 0.0, UNREPORTED_ROUND_TIME,
                           pg.num_fragments)
        # round/rate reports feed the master's fleet broadcasts (AAP/SSP/
        # Hsync) and the Hsync switching policy; AP and BSP consume neither,
        # so skipping the per-round control message there spares the master
        # one event per round per worker
        self.report_rounds = mode in ("AAP", "SSP", "Hsync")
        #: BSP: the barrier report this worker still owes the master
        self.owed: Optional[Tuple] = None
        self.inactive_reported = False
        #: a pipe woke this worker and the loop has yet to find out why
        self.unanswered = False
        self.empty_wakeups = 0

    # -- the loop ----------------------------------------------------
    def run(self) -> bool:
        """The run, until ``stop`` (reported: True, the process waits for
        the next run) or ``abort`` (False: the pool is closing)."""
        self._first_round()
        turn = self._bsp_turn if self.mode == "BSP" else self._async_turn
        held = self.held
        while True:
            if self.ft is not None:
                self._beat()
                self._crash_if_due()
                self._flush_delayed()
            # master commands take priority (probe/fleet/superstep/stop)
            cmds = self.command.get_all()
            if held:
                cmds, held = held + cmds, None
            if cmds:
                self.unanswered = False
            for cmd in cmds:
                if cmd[0] == "abort":
                    return False  # tearing down: nobody reads a report
                if cmd[0] == "stop":
                    self._report()
                    return True
                self._COMMANDS[cmd[0]](self, cmd)
            turn()

    def _first_round(self) -> None:
        """PEval — or, on a rollback / respawn restart, the restored
        snapshot standing in for it."""
        ft = self.ft
        if ft is not None and ft.seeded:
            # restore state, skip PEval (it logically ran before the
            # checkpoint), treat the snapshot's channel messages as a
            # local carry batch.  The carry never touches the ledger: it
            # was never on the wire this run, and crediting is drain-time,
            # so un-announced local replay is conservation-neutral.
            self.context.import_state(ft.seed_values)
            self.context.scratch = ft.seed_scratch
            self.step.resume()
            self.carry.extend(restamped(ft.seed_messages))
            if self.report_rounds:
                self.control.put(("round", self.wid, 1, DEFAULT_ROUND_TIME,
                                  0.0, 0))
        else:
            self._crash_if_due()  # at_round <= 0 means die before PEval
            self._run_round(None)
        # BSP: PEval (or the restored snapshot) is the 0th superstep:
        # superstep 1 opens once every worker has reported, so it finds
        # the whole fleet's round-0 traffic on the wire.
        if self.mode == "BSP":
            self.owed = ("step-done", self.wid, 1)

    def _run_round(self, batch: Optional[List[Any]]) -> None:
        """One round through the step, shipped and reported."""
        step = self.step
        out = step.begin(batch)
        duration = step.finish(out)
        self._ship(out.messages)
        if batch and self.pool is not None:
            # the engine copied what it needed (concatenate/materialise);
            # the ring space behind the processed views can be reclaimed
            self.pool.release(batch)
        # eta (batches consumed) rides along for the master's Hsync policy
        if self.report_rounds:
            state = step.state
            self.control.put((
                "round", self.wid, state.rounds, duration,
                state.arrival_rate.predict(now=time.monotonic()),
                len(batch or ())))

    def _async_turn(self) -> None:
        """AP / SSP / AAP / Hsync: land what arrived, ask delta, act."""
        step, state = self.step, self.step.state
        for msg in self.carry + self._drain_in():
            step.arrived(msg)
        self.carry.clear()
        if not state.buffer:
            if not self.inactive_reported:
                self.control.put(("inactive", self.wid))
                self.inactive_reported = True
            self._block()
            return
        if self.inactive_reported:
            self.control.put(("active", self.wid))
            self.inactive_reported = False
        ds, action = step.decide(self.fleet)
        if action == "suspend":
            # gated (SSP bound, Hsync barrier): the buffer keeps the
            # batch; ask again when fresh fleet state or messages arrive.
            # The r_min worker itself is never gated, so some active
            # worker can always advance the bound.
            self._block()
            return
        if action == "wake_scheduled":
            # a delay stretch (or Hsync's switch cost) of ds seconds,
            # then take what accumulated meanwhile into the same round
            time.sleep(min(ds, _MAX_DELAY))
            for msg in self._drain_in():
                step.arrived(msg)
        self._run_round(state.buffer.drain())

    def _bsp_turn(self) -> None:
        """Strict supersteps: rounds only ever start on a command, but
        pickled frames are read as they come (the next superstep sorts
        them by stamp) and the barrier report waits until this worker's
        own have crossed: a frame larger than the pipe needs its reader,
        and must not straddle a barrier."""
        self.carry.extend(self._drain_in())
        if self.owed is not None and not any(
                lane.backlog for lane in self.out_lanes):
            self.control.put(self.owed)
            self.owed = None
        self._block(bell=False)

    def _report(self) -> None:
        pool = self.pool
        cpu, faults, max_rss = _usage_now()
        usage = {"pid": os.getpid(), "cpu_s": cpu - self.since[0],
                 "minor_faults": faults - self.since[1],
                 "max_rss_mb": max_rss}
        self.control.send(("done", self.wid, _WorkerReport(
            metrics=self.step.metrics(), values=self.context.export_state(),
            scratch=dict(self.context.scratch), events=self.events,
            shm_batches=pool.sent_batches if pool is not None else 0,
            shm_bytes=pool.sent_bytes if pool is not None else 0,
            shm_fallbacks=pool.fallbacks if pool is not None else 0,
            empty_wakeups=self.empty_wakeups, usage=usage)))
        # no pool.close() here: the rings serve the next run, numpy views
        # into them may still be alive (closing would raise BufferError);
        # process exit unmaps, and the master's arena sweep owns the
        # unlink

    # -- master commands ---------------------------------------------
    def _on_fleet(self, cmd) -> None:
        self.fleet = cmd[1]
        if cmd[2] is not None:
            # Hsync: this process's policy mirrors the master's switching
            # state, so gating and the once-per-switch cost are its own
            self.step.policy.mode, self.step.policy.switches = cmd[2]

    def _on_checkpoint(self, cmd) -> None:
        """Paper, Section 6: snapshot local state before any further send.

        Messages already drained (or buffered) that do *not* carry the
        token belong to the pre-snapshot channel state; they are both
        recorded and kept for normal processing.  The report carries
        this worker's cumulative un-tokened send/receive counts (offset by
        the incarnation bases a replacement inherits) so the master can
        tell when the cut's channels have fully flushed.
        """
        token = cmd[1]
        if self.ckpt_token == token:
            return  # already held: ignore the request
        self.carry.extend(self._drain_in())
        pre = [m for m in self.step.state.buffer.peek() + self.carry
               if getattr(m, "token", None) != token]
        self.control.put((
            "ckpt_state", self.wid, token, self.context.export_state(),
            dict(self.context.scratch), pre,
            self.ft.sent_base + self.entries_out,
            self.ft.recv_base + self.recv_total
            - self.recv_by_token.get(token, 0)))
        self.ckpt_token = token

    def _on_probe(self, cmd) -> None:
        # the paper's terminate broadcast: ack iff still inactive (both
        # planes: unread lane bytes AND unparsed ring records), and
        # nothing parked for a quarantined peer; the answer names the probe
        empty = (all(lane.empty() for lane in self.in_lanes)
                 and not self.carry and not self.step.state.buffer
                 and not any(self.parked.values())
                 and (self.pool is None or self.pool.drained))
        self.control.put(("ack" if empty else "wait", self.wid, cmd[1]))

    def _on_superstep(self, cmd) -> None:
        # a faster peer's output of this superstep stays for the next one
        self.step.superstep = cmd[1]
        for msg in self.carry + self._drain_in():
            self.step.arrived(msg)
        self.carry.clear()
        batch = self.step.drain()
        if batch:
            self._run_round(batch)
        self.owed = ("step-done", self.wid, len(batch))

    def _on_quarantine(self, cmd) -> None:
        """A peer died: take one final drain of everything already on the
        wire, then fence its rings.  The dead peer's held-back delayed
        traffic is discarded — the border re-ship at rejoin dominates
        those stale values under monotone aggregation (and the master's
        channel equalization settles their announce)."""
        qw = cmd[1]
        self.delayed = [x for x in self.delayed if x[1].dst != qw]
        while True:
            fresh = self._drain_in()
            if not fresh:
                break
            self.carry.extend(fresh)
        if self.pool is not None:
            last = self.pool.quarantine_peer(qw)
            if last:
                self._credit(last)
                self.carry.extend(last)
            # own every drained-but-unprocessed view of the dead
            # incarnation's ring bytes: the master is about to reset that
            # ring and the replacement will overwrite the slab behind them
            self.carry = [self._owned(msg, qw) for msg in self.carry]
            self.step.state.buffer.rewrite(lambda msg: self._owned(msg, qw))
        self.quarantined.add(qw)
        # resynchronise both data lanes shared with the dead peer: the
        # torn tail of its last frame, and whatever we had not finished
        # writing to it (the master empties the pipe itself once we have
        # acknowledged)
        self.lanes[(qw, self.wid)].discard()
        self.lanes[(self.wid, qw)].discard()
        self.control.put(("quarantined", self.wid, qw))

    def _owned(self, msg, peer: int):
        if isinstance(msg, ShmMessageBatch) and msg.src == peer:
            owned = to_owned(msg)
            self.pool.release([msg])
            return owned
        return msg

    def _on_rejoin(self, cmd) -> None:
        # the replacement is up behind reset rings: rebind our endpoints,
        # drop traffic parked during quarantine, and re-ship our full
        # border through the normal seam
        qw = cmd[1]
        self.quarantined.discard(qw)
        self.parked.pop(qw, None)
        if self.pool is not None:
            self.pool.rejoin_peer(qw)
        self._ship(self.engine.derive_reship(self.wid, qw, self.step.stamp))

    #: the master's commands (``stop`` / ``abort`` end the loop itself)
    _COMMANDS = {
        "fleet": _on_fleet, "checkpoint": _on_checkpoint,
        "probe": _on_probe, "superstep": _on_superstep,
        "quarantine": _on_quarantine, "rejoin": _on_rejoin}

    # -- transport ---------------------------------------------------
    def _put(self, msg) -> None:
        """``msg`` reaches the wire: slab ring when it fits, data lane
        otherwise."""
        self.step.sent(msg)
        if self.pool is None or not self.pool.try_send(msg):
            lane = self.lanes[(self.wid, msg.dst)]
            lane.put(msg)
            lane.flush(block=False)

    def _ship(self, messages) -> None:
        """The transport seam: park, stamp, inject, announce, put."""
        if self.quarantined:
            # park before stamping/injection/announce: parked traffic
            # never touches the ledger or the stats, so discarding it at
            # rejoin is accounting-neutral
            kept = []
            for m in messages:
                if m.dst in self.quarantined:
                    self.parked.setdefault(m.dst, []).append(m)
                else:
                    kept.append(m)
            messages = kept
        if not messages:
            return
        if self.ckpt_token is not None:
            messages = stamp_messages(messages, self.ckpt_token)
        later: List[Tuple[float, Any]] = []
        if self.injector is not None and self.injector.message_faults:
            now_ship: List[Any] = []
            for msg in messages:
                deliveries = self.injector.on_send(msg)
                self._fault(fault_kind(deliveries),
                            f"dst={msg.dst} seq={msg.seq}")
                for m, d in deliveries:
                    if d <= 0:
                        now_ship.append(m)
                    else:
                        later.append((time.monotonic() + d, m))
            messages = now_ship
        wire = _entries_by("dst", [*messages, *(m for _, m in later)])
        if wire:
            # Tell the master what is about to go on the wire — everything,
            # held messages included, before any becomes receivable: the
            # announcement (with every event queued before it) is in the
            # master's pipe first, so its in-flight counter can only
            # over-estimate, never under-estimate.  The ledger counts
            # *logical entries* (len of a Message or a packed
            # MessageBatch) per directed channel, so batching doesn't skew
            # termination and a takeover can settle exactly the dead
            # worker's channels.
            self.entries_out += sum(wire.values())
            self.control.put(("sent", self.wid, wire, self.incarnation))
            self.control.flush()
        for m in messages:
            self._put(m)
        self.delayed.extend(later)

    def _fault(self, fault: Optional[str], detail: str) -> None:
        """Record what the injector just did (``fault_injected``)."""
        if self.emit is not None and fault is not None:
            self.emit(obs_events.FAULT_INJECTED, time.monotonic(), self.wid,
                      self.step.state.rounds, {"fault": fault,
                                               "detail": detail})

    def _flush_delayed(self) -> None:
        """Release the injector's delayed messages that have come due (the
        step counts them, and records ``msg_send``, as they reach the
        wire)."""
        if not self.delayed:
            return
        now = time.monotonic()
        due = [m for at, m in self.delayed if at <= now]
        if due:
            self.delayed = [x for x in self.delayed if x[0] > now]
            for m in due:
                self._put(m)

    def _drain_in(self) -> List[Any]:
        """Receive from both planes and credit the channel ledger."""
        fresh = [msg for lane in self.in_lanes for msg in lane.get_all()]
        if self.pool is not None:
            fresh.extend(self.pool.poll())
        if fresh:
            self.unanswered = False
            self._credit(fresh)
        return fresh

    def _credit(self, fresh) -> None:
        """The ``drained`` report is the receive-side half of the master's
        per-channel conservation books: it fires when the messages leave
        the wire (not when a round consumes them), so in-flight reflects
        transport occupancy exactly and a takeover can settle the dead
        worker's channels without guessing what its peers had buffered."""
        self.control.put(("drained", self.wid, _entries_by("src", fresh),
                          self.incarnation))
        if self.ft is None:
            return
        # per-token receive accounting feeds the master's flush check: an
        # epoch is only complete when every pre-record message is
        # accounted for on the receive side (message conservation)
        for m in fresh:
            self.recv_total += len(m)
            tok = getattr(m, "token", None)
            if tok is not None:
                self.recv_by_token[tok] = (self.recv_by_token.get(tok, 0)
                                           + len(m))
            if self.ckpt_token is not None and tok != self.ckpt_token:
                # an un-tokened arrival after our record: channel state
                # of the snapshot (the master adds it to the matching one)
                self.control.put(("ckpt_late", self.wid, self.ckpt_token, m))

    def _block(self, bell: bool = True) -> None:
        """Sleep until a command or a message may be there: the command
        lane, the inbound lanes and (with ``bell``) the ring doorbell
        are all readable pipes, so nothing is missed between the poll
        that came back empty and this wait.  The timeout is the next
        timer (heartbeat, delayed-message release) or the safety net."""
        if self.unanswered:
            self.empty_wakeups += 1
        self.control.flush()
        timeout = _REPOLL
        if self.hb_interval > 0:
            timeout = min(timeout, self.hb_interval)
        if self.delayed:
            timeout = min(timeout, max(
                min(at for at, _ in self.delayed) - time.monotonic(), 0.0))
        rlist = [self.command, *self.in_lanes]
        # unsent tails of peer-bound frames go out as the pipes drain
        stuck = {lane.wfd: lane for lane in self.out_lanes if lane.backlog}
        if self.pool is not None and bell:
            ready, writable = self.pool.wait(timeout, rlist, list(stuck))
        else:
            ready, writable, _ = select.select(rlist, list(stuck), [],
                                               timeout)
        for fd in writable:
            stuck[fd].flush(block=False)
        # a readable pipe must turn into a command or a message on the
        # next pass; a timer or a flushed backlog owes nothing
        self.unanswered = bool(ready)

    # -- fault seams (never reached when ft is None) -----------------
    def _beat(self) -> None:
        if self.hb_interval <= 0:
            return
        now = time.monotonic()
        if now - self.last_hb >= self.hb_interval:
            self.control.send(("heartbeat", self.wid, self.incarnation))
            self.last_hb = now

    def _crash_if_due(self) -> None:
        rounds = self.step.state.rounds
        if self.injector is not None and self.injector.crash_due(
                self.wid, rounds):
            self._fault("crash", f"round={rounds}")
            # a real hard death: no error report, no done report — the
            # master's failure detector must notice on its own
            os._exit(17)
