"""Online invariant oracles over the observability event stream.

Each oracle consumes the run's :class:`~repro.obs.events.ObsEvent` records
*as they are emitted* (via :class:`CheckingLog`) and records
:class:`OracleViolation` entries instead of raising, so one run can report
every broken invariant at once and the shrinker can compare verdicts.

The invariants come straight from Section 3 of the paper:

- **bounds** — ``r_min <= r_i <= r_max`` at every policy decision, plus
  SSP(c)'s gating: at most ``r_min + c`` ahead.  BSP is held to its whole
  schedule instead (the ``schedule`` check of :func:`repro.fuzz.run_cell`).
- **ledger** — every sent message is delivered exactly once, buffer depth
  and the staleness ``eta_i`` agree with the delivery/drain history (a
  round drains every buffered batch; a BSP round only its superstep's),
  and at termination nothing is in flight or buffered (sent = received +
  in-flight, with the in-flight set empty).
- **wake gate** — a worker never begins IncEval without a policy decision
  that released it (action ``start``, or an earlier ``host_queued`` that
  the host-queue drain honoured), i.e. no wake while ``DS_i`` is unexpired.

The oracles assume the simulator's sequential event stream (one global
order, drains visible as ``round_start``).  The wall-clock runtimes emit
the same record types but interleave them per worker, so only
:class:`BoundsOracle` is meaningful there.  :class:`ContractionProbe`
checks condition T2, which no event shows, on the engine itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as obs


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant, with enough context to replay and debug."""

    oracle: str
    message: str
    t: float = 0.0
    wid: int = -1

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "message": self.message,
                "t": self.t, "wid": self.wid}


class Oracle:
    """Base: consume events, accumulate violations (never raise)."""

    name = "oracle"
    #: stop recording after this many violations (a broken run floods)
    max_violations = 20

    def __init__(self) -> None:
        self.violations: List[OracleViolation] = []

    def violate(self, message: str, t: float = 0.0, wid: int = -1) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(
                OracleViolation(oracle=self.name, message=message,
                                t=t, wid=wid))

    def on_event(self, event: obs.ObsEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks (termination-time invariants)."""


class BoundsOracle(Oracle):
    """``r_min <= r_i <= r_max`` plus SSP start-gating and span.

    The span check uses ``c + 1``, not ``c``: the repo's round counters
    mean *rounds completed*, so a worker allowed to start at ``r_min + c``
    legitimately reads ``r_min + c + 1`` the moment it finishes.  The span
    check is also disabled for the rest of the run once a worker re-enters
    the pending set below the frontier (an inactive worker that receives a
    late message resumes at its old round, which lowers ``r_min``
    arbitrarily without any worker ever *starting* too far ahead — the
    gating check still covers the actual staleness semantics).
    """

    name = "bounds"

    def __init__(self, mode: str = "AAP",
                 staleness_bound: Optional[int] = None) -> None:
        super().__init__()
        self.mode = mode.upper()
        self.c = staleness_bound
        self._last_rmin: Optional[int] = None
        self._span_valid = True

    def on_event(self, event: obs.ObsEvent) -> None:
        if event.type == obs.STATUS_CHANGE:
            p = event.payload
            if (p.get("frm") == "inactive" and p.get("to") == "waiting"
                    and self._last_rmin is not None
                    and event.round < self._last_rmin):
                # late re-entry below the frontier: span is no longer a
                # sound invariant for this run (see class docstring)
                self._span_valid = False
            return
        if event.type != obs.DS_DECISION:
            return
        p = event.payload
        rmin, rmax = p["rmin"], p["rmax"]
        self._last_rmin = rmin
        if not rmin <= event.round <= rmax:
            self.violate(
                f"worker round {event.round} outside "
                f"[rmin={rmin}, rmax={rmax}]", event.t, event.wid)
        if self.mode != "SSP" or self.c is None:
            return
        if self._span_valid and rmax - rmin > self.c + 1:
            self.violate(
                f"{self.mode} span rmax-rmin = {rmax - rmin} exceeds "
                f"{self.c + 1}", event.t, event.wid)
        if p["action"] == "start" and event.round > rmin + self.c:
            self.violate(
                f"{self.mode} started round {event.round} > allowed "
                f"{rmin + self.c} (rmin={rmin}, c={self.c})",
                event.t, event.wid)


class LedgerOracle(Oracle):
    """Message conservation: sent = received + in-flight, depth = eta.

    Tracks every designated message by its ``seq``; cross-checks the
    receiver-side buffer depth reported at delivery, the batch count
    drained at each IncEval start, and the staleness ``eta`` the policy
    saw.  :meth:`finish` asserts the termination ledger: nothing in
    flight or buffered, every send matched by exactly one delivery.
    ``partial_drains`` (BSP) lets a round leave batches of the open
    superstep buffered; otherwise a round drains every buffered batch.
    """

    name = "ledger"

    def __init__(self, partial_drains: bool = False) -> None:
        super().__init__()
        self.partial_drains = partial_drains
        #: seq -> (src, dst) of sends not yet delivered
        self._in_flight: Dict[int, Tuple[int, int]] = {}
        self.sent = 0
        self.delivered = 0
        #: per-receiver batches delivered but not yet drained
        self._undrained: Dict[int, int] = {}

    def on_event(self, event: obs.ObsEvent) -> None:
        p = event.payload
        if event.type == obs.MSG_SEND:
            seq = p["seq"]
            if seq in self._in_flight:
                self.violate(f"duplicate send of seq {seq}",
                             event.t, event.wid)
            self._in_flight[seq] = (event.wid, p["dst"])
            self.sent += 1
        elif event.type == obs.MSG_DELIVER:
            seq = p["seq"]
            route = self._in_flight.pop(seq, None)
            if route is None:
                self.violate(
                    f"delivery of seq {seq} never sent (or delivered "
                    f"twice)", event.t, event.wid)
            elif route != (p["src"], event.wid):
                self.violate(
                    f"seq {seq} sent {route[0]}->{route[1]} but "
                    f"delivered {p['src']}->{event.wid}",
                    event.t, event.wid)
            self.delivered += 1
            depth = self._undrained.get(event.wid, 0) + 1
            self._undrained[event.wid] = depth
            if p["depth"] != depth:
                self.violate(
                    f"buffer depth {p['depth']} != ledger depth {depth}",
                    event.t, event.wid)
        elif event.type == obs.ROUND_START:
            if p["kind"] != "inceval":
                return
            expect = self._undrained.get(event.wid, 0)
            if (p["batches"] > expect if self.partial_drains
                    else p["batches"] != expect):
                self.violate(
                    f"IncEval drained {p['batches']} batches, ledger "
                    f"says {expect} were buffered", event.t, event.wid)
            self._undrained[event.wid] = expect - p["batches"]
        elif event.type == obs.DS_DECISION:
            eta = p["eta"]
            expect = self._undrained.get(event.wid, 0)
            if eta != expect:
                self.violate(
                    f"policy saw eta={eta}, ledger says {expect} "
                    f"batches buffered", event.t, event.wid)

    def finish(self) -> None:
        if self._in_flight:
            sample = sorted(self._in_flight)[:5]
            self.violate(
                f"{len(self._in_flight)} messages still in flight at "
                f"termination (seqs {sample})")
        if self.sent != self.delivered:
            self.violate(
                f"termination ledger: sent {self.sent} != delivered "
                f"{self.delivered}")
        for wid in sorted(w for w, n in self._undrained.items() if n):
            self.violate(f"{self._undrained[wid]} batches still buffered "
                         f"at termination", wid=wid)


class WakeGateOracle(Oracle):
    """No IncEval starts while the worker's ``DS_i`` is unexpired.

    Every IncEval ``round_start`` must be justified by the worker's most
    recent policy decision: either ``start`` (the decision released it at
    that instant) or ``host_queued`` (it was released but its physical
    host was busy; the host-queue drain may start it later *without* a
    fresh decision — the sticky case).  A ``suspend`` or pending
    ``wake_scheduled`` as the latest decision means the runtime ran a
    worker the policy had parked.

    Also cross-checks decision self-consistency: ``start``/``host_queued``
    require ``ds ~ 0``, ``suspend`` requires ``ds = inf``,
    ``wake_scheduled`` a finite positive ``ds``.
    """

    name = "wake_gate"
    _EPS = 1e-9

    def __init__(self) -> None:
        super().__init__()
        #: wid -> (action, ds, t) of the latest decision
        self._last: Dict[int, Tuple[str, float, float]] = {}

    def on_event(self, event: obs.ObsEvent) -> None:
        p = event.payload
        if event.type == obs.DS_DECISION:
            action, ds = p["action"], p["ds"]
            if action in ("start", "host_queued"):
                if ds > self._EPS:
                    self.violate(
                        f"action {action} with non-zero ds={ds}",
                        event.t, event.wid)
            elif action == "suspend":
                if not math.isinf(ds):
                    self.violate(
                        f"suspend with finite ds={ds}", event.t, event.wid)
            elif action == "wake_scheduled":
                if not (self._EPS < ds < math.inf):
                    self.violate(
                        f"wake_scheduled with ds={ds}", event.t, event.wid)
            else:
                self.violate(f"unknown ds action {action!r}",
                             event.t, event.wid)
            self._last[event.wid] = (action, ds, event.t)
        elif event.type == obs.ROUND_START and p["kind"] == "inceval":
            last = self._last.get(event.wid)
            if last is None:
                self.violate(
                    "IncEval started with no policy decision on record",
                    event.t, event.wid)
                return
            action, ds, t0 = last
            if action not in ("start", "host_queued"):
                self.violate(
                    f"IncEval started but latest decision was {action} "
                    f"(ds={ds} at t={t0:.6g})", event.t, event.wid)
            # a release is consumed by the start it authorised; the next
            # round needs a fresh decision (or a fresh host_queued)
            self._last.pop(event.wid, None)


class OracleSuite:
    """All event oracles behind one dispatch point."""

    def __init__(self, oracles: List[Oracle]):
        self.oracles = oracles
        #: violations found by non-event probes (contraction) join here
        self.extra: List[OracleViolation] = []
        self._finished = False

    @classmethod
    def for_run(cls, mode: str = "AAP",
                staleness_bound: Optional[int] = None) -> "OracleSuite":
        return cls([BoundsOracle(mode, staleness_bound),
                    LedgerOracle(partial_drains=mode == "BSP"),
                    WakeGateOracle()])

    def on_event(self, event: obs.ObsEvent) -> None:
        for oracle in self.oracles:
            oracle.on_event(event)

    def finish(self) -> None:
        if not self._finished:
            self._finished = True
            for oracle in self.oracles:
                oracle.finish()

    @property
    def violations(self) -> List[OracleViolation]:
        out: List[OracleViolation] = []
        for oracle in self.oracles:
            out.extend(oracle.violations)
        out.extend(self.extra)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations


class CheckingLog(obs.EventLog):
    """An :class:`~repro.obs.events.EventLog` that feeds a suite online.

    Drop-in for ``Observer.log``: runtimes emit as usual, every record
    (all come through :meth:`record`) is both stored and pushed through
    the oracle suite, so invariants are
    checked *during* the run at the exact global order the simulator saw.
    """

    def __init__(self, suite: OracleSuite):
        super().__init__()
        self.suite = suite

    def record(self, type: str, t: float, wid: int, round: int,
               payload: Any) -> None:
        super().record(type, t, wid, round, payload)
        self.suite.on_event(obs.as_event((type, t, wid, round, payload)))


class ContractionProbe:
    """Engine proxy asserting T2 monotone contraction per IncEval.

    Wraps an :class:`~repro.core.engine.Engine`; after every IncEval it
    requires each changed status variable to satisfy
    ``leq(new, old)`` — the update moved the value *toward* the fixpoint.
    Disabled (pure pass-through) for accumulative aggregators, whose
    ship-and-reset deltas are not monotone in the value order, and for the
    dense path, whose contexts are arrays, mirroring
    :func:`repro.core.convergence.check_contracting`.
    """

    def __init__(self, engine: Any, suite: OracleSuite):
        self._engine = engine
        self._suite = suite
        self.enabled = (not engine.vectorized
                        and not engine.program.aggregator.accumulative)
        self._reported = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def run_inceval(self, wid: int, batches, round_no: int):
        if not self.enabled:
            return self._engine.run_inceval(wid, batches, round_no)
        ctx = self._engine.contexts[wid]
        before = dict(ctx.values)
        out = self._engine.run_inceval(wid, batches, round_no)
        program = self._engine.program
        for v, new in ctx.values.items():
            old = before.get(v)
            if old is None or new == old:
                continue
            if not program.leq(new, old) and self._reported < 20:
                self._reported += 1
                self._suite.extra.append(OracleViolation(
                    oracle="contraction",
                    message=(f"IncEval round {round_no} moved node {v!r} "
                             f"from {old!r} to {new!r}, which is not "
                             f"leq-advanced (condition T2 violated)"),
                    wid=wid))
        return out
