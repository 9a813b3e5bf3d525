"""The master of the multiprocess runtime.

:class:`_Master` is the event loop of the parent process: it feeds the
workers' control events to the master's book
(:class:`~repro.core.master.MasterBook`: flags, per-channel ledger,
barrier, probe, fleet) and turns the book's barrier / probe / stop
decisions into commands.  With fault tolerance on it also runs the failure
detector and the checkpoint epochs, and repairs a dead worker in place
(:meth:`_Master.takeover`).  The wire protocol and its ordering guarantees
are described in :mod:`repro.runtime.multiprocess`.
"""

from __future__ import annotations

import time
from multiprocessing.connection import wait as wait_readable
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.delay import WorkerView
from repro.core.master import NONE, OPEN, STOP, MasterBook
from repro.errors import TerminationError, WorkerCrashedError
from repro.obs import events as obs_events
from repro.runtime.detection import FailureDetector, FailureEvent
from repro.runtime.lane import Lane
from repro.runtime.mp_worker import UNREPORTED_ROUND_TIME, _WorkerReport
from repro.runtime.slab import SlabArena
from repro.runtime.snapshot import LiveCheckpointer

#: seconds between fleet broadcasts, fault-tolerance ticks
_FLEET_PERIOD = 0.02
_FT_PERIOD = 0.005


def _reap(proc) -> bool:
    """Make sure ``proc`` is dead (terminate, then kill); True if it is."""
    for stop in (proc.terminate, proc.kill):
        if proc.is_alive():
            stop()
            proc.join(1.0)
    return not proc.is_alive()


class _Master:
    """The parent process's side of one run.

    ``rt`` is the :class:`~repro.runtime.multiprocess.MultiprocessRuntime`
    (configuration, and where failures / respawns / the last checkpoint
    are published); ``spawn(wid, incarnation, plan, sent_base, recv_base)``
    replaces a dead worker's process and lanes.
    """

    def __init__(self, rt, control: List[Lane], commands: List[Lane],
                 procs: List, lanes: Dict[Tuple[int, int], Lane],
                 arena: Optional[SlabArena], spawn: Callable):
        self.rt = rt
        self.m = m = len(control)
        self.control = control
        self.commands = commands
        self.procs = procs
        self.lanes = lanes
        self.arena = arena
        self.spawn = spawn
        self.deadline = time.monotonic() + rt.timeout
        #: flags, ledger, barrier, probe and fleet; under BSP a worker's
        #: ``step-done`` flags it, PEval being the 0th superstep
        self.book = MasterBook(m, bsp=rt.mode == "BSP",
                               round_time=UNREPORTED_ROUND_TIME,
                               emit=rt._emit_master)
        self.reports: Dict[int, _WorkerReport] = {}
        # async modes that consult fleet state get periodic broadcasts;
        # SSP and Hsync workers block on r_min, so they are also told
        # when it moves, not 20 ms later
        self.fleet_mode = rt.mode in ("AAP", "SSP", "Hsync")
        self.gating = rt.mode in ("SSP", "Hsync")
        self.told_rmin = -1
        self.next_fleet = 0.0
        self.timed_out = False
        # --- fault tolerance (all None / unused when off) ----------------
        self.budget = [rt.respawn_budget] * m
        self.plan_now = rt.fault_plan
        self.qacks: set = set()
        self.qtarget = -1
        self.detector = (FailureDetector(m, rt.heartbeat_interval,
                                         rt.heartbeat_timeout,
                                         now=time.monotonic())
                         if rt._ft else None)
        self.ckpt = (LiveCheckpointer(rt.checkpoint_interval, m)
                     if rt.checkpoint_interval is not None else None)
        self.last_ft_check = 0.0
        # per-epoch channel accounting: the cut is flushed only when every
        # un-tokened (pre-record) message has been received or amended
        self.ckpt_sent: Dict[int, int] = {}
        self.ckpt_recv: Dict[int, int] = {}
        self.ckpt_amend = 0

    # -- the loop ----------------------------------------------------
    def run(self) -> Dict[int, _WorkerReport]:
        """Until the stop broadcast; returns the workers' final reports."""
        rt = self.rt
        while True:
            now = time.monotonic()
            if now > self.deadline:
                raise TerminationError(
                    f"multiprocess run exceeded {rt.timeout}s "
                    f"(mode={rt.mode})")
            timers = [self.deadline]
            if rt._ft:
                self._ft_check()
                timers.append(self.last_ft_check + _FT_PERIOD)
            if self.fleet_mode:
                if now >= self.next_fleet or (
                        self.gating
                        and self.book.fleet().rmin != self.told_rmin):
                    self._broadcast_fleet()
                    self.next_fleet = now + _FLEET_PERIOD
                timers.append(self.next_fleet)
            if self._command():
                return self._collect_reports()
            got = self._events(min(timers) - time.monotonic())
            self.timed_out = got is None
            for evt in got or ():
                self.handle(evt)

    def _events(self, timeout: float) -> Optional[List[Tuple]]:
        """Block for one event, then take what is readable — one bounded
        read per lane that woke us.  ``None`` means the timeout passed in
        silence."""
        ready = wait_readable(self.control, max(timeout, 0.0))
        if not ready:
            return None
        return [evt for lane in ready for evt in lane.get_all()]

    def handle(self, evt) -> None:
        """Dispatch one control event; shared by the main loop and the
        takeover pump so no event class is ever starved."""
        handler = self._HANDLERS.get(evt[0])
        if handler is not None:
            handler(self, evt)

    def _broadcast(self, msg) -> None:
        for cq in self.commands:
            cq.send(msg)

    def _collect_reports(self) -> Dict[int, _WorkerReport]:
        while len(self.reports) < self.m:
            got = self._events(5.0)
            if got is None:
                missing = [w for w in range(self.m) if w not in self.reports]
                raise TerminationError(
                    f"workers {missing} never reported back after the "
                    f"stop broadcast")
            for evt in got:
                if evt[0] == "done":
                    self.reports[evt[1]] = evt[2]
        return self.reports

    # -- control events ----------------------------------------------
    def _on_quarantined(self, evt) -> None:
        if evt[2] == self.qtarget:
            self.qacks.add(evt[1])

    def _on_round(self, evt) -> None:
        _, wid, r, dur, rate, eta = evt
        rounds = self.book.rounds
        self.book.observe(wid, r, dur, rate)
        if self.rt.hsync is not None:
            # feed the switching heuristic; only eta and the duration
            # matter to on_round_complete
            self.rt.hsync.on_round_complete(WorkerView(
                wid=wid, round=r, eta=eta, rmin=min(rounds),
                rmax=max(rounds), idle_time=0.0,
                now=time.monotonic() - self.rt._started,
                t_pred=dur, s_pred=rate, fleet_avg_rate=0.0,
                num_workers=self.m), dur)

    def _on_heartbeat(self, evt) -> None:
        if self.detector is not None:
            self.detector.beat(evt[1], time.monotonic(), evt[2])

    def _on_ckpt_state(self, evt) -> None:
        _, wid, token, values, scratch, pre, sent_n, recv_n = evt
        ckpt = self.ckpt
        if (ckpt is not None and ckpt.current is not None
                and ckpt.current.token == token):
            ckpt.current.record_state(wid, values, scratch, pre)
            self.ckpt_sent[wid] = sent_n
            # the recorded buffer contents count as received
            self.ckpt_recv[wid] = recv_n

    def _on_ckpt_late(self, evt) -> None:
        # paper: "messages that arrive late without the token are added to
        # the last snapshot" — match by the receiver's token
        ckpt = self.ckpt
        if ckpt is None:
            return
        _, wid, token, msg = evt
        current_snap = (ckpt.current.snapshot
                        if ckpt.current is not None else None)
        for coord_snap in (current_snap, ckpt.last):
            if coord_snap is not None and coord_snap.token == token:
                coord_snap.channel_messages.setdefault(wid, []).append(msg)
                if coord_snap is current_snap:
                    # conservation is counted in logical entries,
                    # matching the workers' sent/recv counters
                    self.ckpt_amend += len(msg)
                return

    def _on_error(self, evt) -> None:
        raise TerminationError(
            f"worker {evt[1]} crashed: {evt[2]}"
            "\n--- worker traceback ---\n" + str(evt[3]).rstrip())

    #: control events by kind (``done`` is read by ``_collect_reports``);
    #: an ``active`` report to an open probe is as good as ``wait``
    _HANDLERS = {
        "sent": lambda self, e: self.book.announce(e[1], e[2], e[3]),
        "drained": lambda self, e: self.book.credit(e[1], e[2], e[3]),
        "inactive": lambda self, e: self.book.set_inactive(e[1]),
        "active": lambda self, e: self.book.set_active(e[1]),
        "step-done": lambda self, e: self.book.set_inactive(
            e[1], worked=e[2] > 0),
        "ack": lambda self, e: self.book.answer(e[1], True, e[2]),
        "wait": lambda self, e: self.book.answer(e[1], False, e[2]),
        "quarantined": _on_quarantined,
        "round": _on_round, "heartbeat": _on_heartbeat,
        "ckpt_state": _on_ckpt_state, "ckpt_late": _on_ckpt_late,
        "error": _on_error}

    # -- barrier / probe / stop --------------------------------------
    def _command(self) -> bool:
        """Carry out what the book decides right now; True once the stop
        broadcast went out.

        Deciding on the spot, not after a quiet spell, is safe because
        each lane is FIFO: by the time a worker's ``step-done`` or
        ``ack`` has been read, so has every ``sent`` and ``drained`` it
        reported before it."""
        decision = self.book.decide()
        if decision != NONE:
            self.rt._wake["decisions"] += 1
            self.rt._wake["timeout_decisions"] += self.timed_out
            # the commands are named as the decisions: ``probe n`` is the
            # paper's terminate broadcast, and its answers name ``n``
            self._broadcast(("superstep", self.book.superstep)
                            if decision == OPEN
                            else (decision, self.book.probe))
        return decision == STOP

    def _broadcast_fleet(self) -> None:
        fleet = self.book.fleet()
        self.told_rmin = fleet.rmin
        hsync = self.rt.hsync
        switching = (hsync.mode, hsync.switches) if hsync is not None else None
        # telemetry, not protocol: skip a worker whose pipe is full
        # rather than block the master behind a stalled consumer
        for cq in self.commands:
            cq.send_or_drop(("fleet", fleet, switching))

    # -- fault tolerance: checkpoint epochs, failure detection, takeover 
    def _reset_epoch(self) -> None:
        self.ckpt_sent.clear()
        self.ckpt_recv.clear()
        self.ckpt_amend = 0

    def _ft_check(self) -> None:
        now = time.monotonic()
        if now - self.last_ft_check < _FT_PERIOD:
            return
        self.last_ft_check = now
        rt, ckpt = self.rt, self.ckpt
        t = now - rt._started
        if ckpt is not None:
            coord = ckpt.maybe_start(now)
            if coord is not None:
                self._reset_epoch()
                self._broadcast(("checkpoint", coord.token))
            # the cut is usable once every pre-record message is on
            # the receive side (in a recorded buffer, a reported
            # late amendment, or a processed round) — the master's
            # raw in_flight counter would rarely be zero mid-run.
            # Clamped at zero: a post-takeover drain race can only
            # over-credit the receive side, and a genuinely late
            # message still lands in the snapshot via ckpt_late.
            residual = (max(sum(self.ckpt_sent.values())
                            - sum(self.ckpt_recv.values())
                            - self.ckpt_amend, 0)
                        if len(self.ckpt_sent) == self.m else 1)
            snap = ckpt.maybe_complete(now, residual)
            if snap is not None:
                rt.last_checkpoint = snap
                rt._emit_master(
                    obs_events.CHECKPOINT, token=snap.token,
                    workers=snap.num_workers_recorded,
                    channel_messages=snap.num_channel_messages)
        if self.detector is None:
            return
        for s in self.detector.check(
                now, alive=lambda i: self.procs[i].is_alive()):
            rt.failures.append(FailureEvent(
                t=t, kind=s.kind, wid=s.wid, detail=f"age={s.age:.3f}s"))
            if not s.fatal:
                rt._emit_master(obs_events.HEARTBEAT_MISS,
                                wid=s.wid, age=s.age)
                continue
            rt._emit_master(obs_events.FAILURE_DETECTED, wid=s.wid,
                            reason=s.kind, age=s.age)
            # degradation ladder, rung 1: try an in-place respawn
            # with fragment takeover before surfacing the crash
            if not self.takeover(s.wid):
                raise WorkerCrashedError(
                    wid=s.wid, reason=s.kind, detected_at=t,
                    checkpoint=ckpt.last if ckpt is not None else None,
                    failures=rt.failures, detection_latency=s.age)

    def _pump(self, timeout_s: float, until: Callable[[], bool]) -> bool:
        """Drain control events until ``until()`` holds (True) or the
        takeover-step timeout expires (False)."""
        end = time.monotonic() + timeout_s
        while not until():
            if time.monotonic() > self.deadline:
                raise TerminationError(
                    f"multiprocess run exceeded {self.rt.timeout}s "
                    f"(mode={self.rt.mode}, during takeover)")
            if time.monotonic() > end:
                return False
            for evt in self._events(0.005) or ():
                self.handle(evt)
        return True

    def _degrade(self, w: int, reason: str) -> bool:
        self.rt._emit_master(obs_events.DEGRADE, wid=w, frm="respawn",
                             to="rollback", reason=reason)
        return False

    def takeover(self, w: int) -> bool:
        """Degradation-ladder rung 1: in-place respawn with fragment
        takeover.  Returns True when the replacement is running and
        rejoined; False hands the failure to the next rung (whole-run
        rollback via WorkerCrashedError)."""
        rt, procs, commands = self.rt, self.procs, self.commands
        t0 = time.monotonic()
        if self.budget[w] <= 0:
            if rt.respawn_budget > 0:
                return self._degrade(w, "respawn budget exhausted")
            return False  # rung disabled: no DEGRADE noise
        if not getattr(rt.program, "reship_capable", True):
            return self._degrade(w, "program aggregation is not idempotent")
        if self.m == 1:
            return self._degrade(w, "no surviving peers to re-ship from")
        # 1. make sure the dead incarnation is really gone: its slab
        # cursors and lane ends must never touch the wire again
        if not _reap(procs[w]):  # pragma: no cover - defensive
            return self._degrade(w, "old incarnation would not die")
        # 2. quarantine: survivors take a final drain of everything
        # the dead worker got onto the wire, fence its rings, and
        # stop writing to its data lanes.  Only *live*
        # peers owe an acknowledgement — and one may die mid-pump
        # (its own scheduled crash, a cascading fault): it can never
        # ack, so stop waiting for it rather than timing the whole
        # takeover out.  Its own takeover runs next, as soon as the
        # failure detector notices; channel bookkeeping stays sound
        # because step 5 equalizes the dead pair's channels again.
        peers = [d for d in range(self.m) if d != w]
        self.qacks.clear()
        self.qtarget = w
        live = {d for d in peers if procs[d].is_alive()}
        for d in live:
            commands[d].send(("quarantine", w))

        def acked_or_dead() -> bool:
            for d in list(live - self.qacks):
                if not procs[d].is_alive():
                    live.discard(d)
            return live <= self.qacks

        ok = self._pump(5.0, acked_or_dead)
        self.qtarget = -1
        if not ok:
            return self._degrade(
                w, "quarantine acknowledgement timed out "
                f"(missing {sorted(live - self.qacks)})")
        # 3. empty the dead worker's inbound data lanes.  Each has one
        # producer, and that producer is now fenced (it acknowledged,
        # so it parks instead of writing until rejoin) or dead, so
        # whatever the pipe holds — whole frames or the torn head of
        # one — can be read off and thrown away; the replacement
        # starts on a frame boundary.  The books for these entries
        # are settled in step 5.
        for d in peers:
            self.lanes[(d, w)].discard()
        # 4. retire the dead incarnation's rings: the generation bump
        # makes any torn or stale endpoint state unreadable
        if self.arena is not None:
            self.arena.reset_worker(w)
        # 5. equalize the ledger.  The post-equalize sums seed the
        # replacement's cumulative checkpoint counters so epoch
        # conservation still balances across incarnations.
        sent_base, recv_base = self.book.settle(w)
        # 6. an open checkpoint epoch can never complete (the dead
        # worker will never record); abort it, keep the last one
        if self.ckpt is not None:
            self.ckpt.abort_current(time.monotonic())
            self._reset_epoch()
        # 7. respawn: disarm only the crash that fired, bump the
        # incarnation, seed from the last complete checkpoint
        self.budget[w] -= 1
        if self.plan_now is not None:
            self.plan_now = self.plan_now.without_crash(w)
        incarnation = (self.detector.respawn(w, time.monotonic())
                       if self.detector is not None
                       else self.book.era[w] + 1)
        snap = rt.last_checkpoint
        seeded = (snap is not None and snap.complete
                  and w in snap.worker_states)
        # 8. the replacement starts fresh in the book: only its reports
        # count, and under BSP the open barrier waits for its own
        # 0th-superstep report, whatever the dead incarnation answered
        self.book.rejoin(w, incarnation)
        self.spawn(w, incarnation, self.plan_now, sent_base, recv_base)
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
        token = snap.token if seeded else None
        rt.respawns.append({
            "wid": w, "incarnation": incarnation, "seeded": seeded,
            "token": token, "takeover": True, "t": t0 - rt._started,
            "duration": duration, "budget_left": self.budget[w]})
        rt._emit_master(obs_events.WORKER_RESPAWN, wid=w,
                        incarnation=incarnation, seeded=seeded,
                        token=token, budget_left=self.budget[w])
        rt._emit_master(obs_events.FRAGMENT_TAKEOVER, wid=w,
                        incarnation=incarnation, reshipped=len(live),
                        duration=duration)
        return True
