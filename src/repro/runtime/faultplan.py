"""Seeded, deterministic fault injection for the live runtimes.

A :class:`FaultPlan` scripts the chaos of a degraded fleet — worker crashes,
message drops / delays / duplicates, straggler slow-downs — and a
:class:`FaultInjector` (one per run, built with :meth:`FaultPlan.injector`)
applies it at the *single transport seam* both live runtimes share: every
designated message passes through :meth:`FaultInjector.on_send` exactly once
before it becomes receivable, and every worker consults
:meth:`FaultInjector.crash_due` before starting a round.

Determinism
-----------
Message-level decisions must be reproducible even though the threaded and
multiprocess runtimes race for real.  They therefore never consume a shared
RNG stream (whose draw order would depend on thread scheduling); instead
each decision is a pure hash of ``(seed, fault-kind, src, dst, k)`` where
``k`` is the index of the message on its ``src -> dst`` channel.  The k-th
message a worker sends to a given peer receives the same verdict in every
run of the same plan — the acceptance meaning of "same plan, same injected
events".  Crash and straggler faults key on ``(wid, round)`` and are exact.

In the multiprocess runtime each worker process builds its own injector from
the (picklable) plan; since a channel's messages are produced by a single
worker, the per-channel counters agree with the threaded runtime's.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.messages import Message, MessageBatch, fresh_seq
from repro.errors import RuntimeConfigError

#: 64-bit odd constants for splitmix-style hashing
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(*parts: int) -> float:
    """Deterministically map integer parts to a float in [0, 1)."""
    h = 0x632BE59BD9B4E019
    for p in parts:
        h = (h ^ (p & _MASK)) & _MASK
        h = (h + _GAMMA) & _MASK
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
        h = h ^ (h >> 31)
    return (h >> 11) / float(1 << 53)


# stream tags keep drop/duplicate/delay verdicts independent per message
_TAG_DROP, _TAG_DUP, _TAG_DELAY = 1, 2, 3


class InjectedCrash(BaseException):
    """Raised inside a worker to simulate its sudden death.

    Derives from ``BaseException`` so PIE programs catching ``Exception``
    cannot accidentally survive an injected crash.  The threaded runtime
    treats it as a silent thread death (no abort, no error report) so the
    master's failure detector — not the normal error path — must notice.
    """

    def __init__(self, wid: int, round_no: int):
        super().__init__(f"injected crash: worker {wid} at round {round_no}")
        self.wid = wid
        self.round_no = round_no


@dataclass(frozen=True)
class CrashFault:
    """Kill worker ``wid`` when it is about to start round ``at_round``."""

    wid: int
    at_round: int = 1


@dataclass(frozen=True)
class DropFault:
    """Silently lose a fraction ``rate`` of messages (lossy channel)."""

    rate: float
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass(frozen=True)
class DuplicateFault:
    """Deliver a fraction ``rate`` of messages twice (at-least-once)."""

    rate: float
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass(frozen=True)
class DelayFault:
    """Hold a fraction ``rate`` of messages for ``delay`` wall-clock secs."""

    rate: float
    delay: float
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass(frozen=True)
class StragglerFault:
    """Stretch every round of worker ``wid`` by ``factor`` (>= 1)."""

    wid: int
    factor: float


@dataclass(frozen=True)
class InjectionRecord:
    """One injected event, for reports and tests."""

    kind: str
    wid: int
    detail: str


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos script: seed + a list of fault specs."""

    seed: int = 0
    faults: Tuple = ()

    def __post_init__(self):
        for f in self.faults:
            rate = getattr(f, "rate", None)
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise RuntimeConfigError(
                    f"fault rate must be in [0, 1], got {rate!r} on {f!r}")
            factor = getattr(f, "factor", None)
            if factor is not None and factor < 1.0:
                raise RuntimeConfigError(
                    f"straggler factor must be >= 1, got {factor!r}")
            delay = getattr(f, "delay", None)
            if delay is not None and delay < 0:
                raise RuntimeConfigError(
                    f"delay must be >= 0, got {delay!r} on {f!r}")
            wid = getattr(f, "wid", None)
            if wid is not None and wid < 0:
                raise RuntimeConfigError(
                    f"worker id must be >= 0, got {wid!r} on {f!r}")
            at_round = getattr(f, "at_round", None)
            if at_round is not None and at_round < 0:
                raise RuntimeConfigError(
                    f"at_round must be >= 0, got {at_round!r} on {f!r}")

    def injector(self) -> "FaultInjector":
        """Build a fresh injector (per run attempt)."""
        return FaultInjector(self)

    def without_crashes(self) -> "FaultPlan":
        """The same plan minus *all* crash faults.

        Blunt instrument: it also disarms crashes that never fired, so a
        multi-crash plan loses its later crashes across restart attempts.
        Supervisors should prefer :meth:`without_crash`, which surgically
        removes only the crash that already happened.
        """
        return FaultPlan(seed=self.seed, faults=tuple(
            f for f in self.faults if not isinstance(f, CrashFault)))

    def without_crash(self, wid: int,
                      at_round: Optional[int] = None) -> "FaultPlan":
        """The same plan minus *one* fired crash of worker ``wid``.

        Removes the matching crash fault (the earliest-scheduled one for
        ``wid`` when ``at_round`` is None), leaving every other fault —
        including later crashes of the same worker — armed.  A respawned
        worker therefore does not deterministically re-die at the same
        round, but the rest of the chaos script still plays out.
        """
        candidates = sorted(
            (f for f in self.faults
             if isinstance(f, CrashFault) and f.wid == wid
             and (at_round is None or f.at_round == at_round)),
            key=lambda f: f.at_round)
        if not candidates:
            return self
        fired = candidates[0]
        faults = list(self.faults)
        faults.remove(fired)
        return FaultPlan(seed=self.seed, faults=tuple(faults))

    @property
    def has_crashes(self) -> bool:
        return any(isinstance(f, CrashFault) for f in self.faults)

    @property
    def crash_faults(self) -> Tuple:
        return tuple(f for f in self.faults if isinstance(f, CrashFault))


def _matches(fault, src: int, dst: int) -> bool:
    return ((fault.src is None or fault.src == src)
            and (fault.dst is None or fault.dst == dst))


def fault_kind(deliveries) -> Optional[str]:
    """What :meth:`FaultInjector.on_send` did to one message, as the
    ``fault_injected`` record names it; ``None`` when it passed intact."""
    if not deliveries:
        return "drop"
    if len(deliveries) > 1:
        return "duplicate"
    return "delay" if deliveries[0][1] > 0 else None


class FaultInjector:
    """Applies one :class:`FaultPlan` to one run.

    Thread-safe: the threaded runtime's workers send concurrently.  The
    per-channel counters under the lock are the only mutable state; the
    verdicts themselves are pure functions of the plan seed and the
    channel-local message index.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        # per-worker crash schedule, earliest first: a worker with two
        # scheduled crashes fires the earliest, and — once the runtime
        # respawns it and calls :meth:`reset_worker` — the next one is
        # still armed (a dict keyed on wid would silently collapse them)
        self._crashes: Dict[int, List[int]] = {}
        for f in plan.faults:
            if isinstance(f, CrashFault):
                self._crashes.setdefault(f.wid, []).append(f.at_round)
        for schedule in self._crashes.values():
            schedule.sort()
        self._stragglers: Dict[int, float] = {
            f.wid: f.factor for f in plan.faults
            if isinstance(f, StragglerFault)}
        self._drops = [f for f in plan.faults if isinstance(f, DropFault)]
        self._dups = [f for f in plan.faults
                      if isinstance(f, DuplicateFault)]
        self._delays = [f for f in plan.faults if isinstance(f, DelayFault)]
        self._channel_idx: Dict[Tuple[int, int], int] = {}
        self._lock = threading.Lock()
        #: injected events, in injection order (per process)
        self.records: List[InjectionRecord] = []
        self._crashed: set = set()

    @property
    def message_faults(self) -> bool:
        return bool(self._drops or self._dups or self._delays)

    # ------------------------------------------------------------------
    def crash_due(self, wid: int, round_no: int) -> bool:
        """True when ``wid`` must die before running ``round_no``."""
        schedule = self._crashes.get(wid)
        if not schedule or wid in self._crashed or round_no < schedule[0]:
            return False
        with self._lock:
            self._crashed.add(wid)
            schedule.pop(0)
            self.records.append(InjectionRecord(
                kind="crash", wid=wid, detail=f"round={round_no}"))
        return True

    def reset_worker(self, wid: int) -> None:
        """Re-arm ``wid`` after an in-place respawn.

        The fired crash was already consumed by :meth:`crash_due`; this
        only clears the "already dead" latch so the respawned worker's
        remaining schedule (if any) can fire.  Used by the threaded
        runtime, whose respawned workers share this injector; multiprocess
        replacements build a fresh injector from
        :meth:`FaultPlan.without_crash` instead.
        """
        with self._lock:
            self._crashed.discard(wid)

    def round_slowdown(self, wid: int, duration: float) -> float:
        """Extra seconds worker ``wid`` must stall after a round."""
        factor = self._stragglers.get(wid)
        if factor is None:
            return 0.0
        return (factor - 1.0) * max(duration, 0.0)

    def stall(self, wid: int, duration: float, cap: float) -> None:
        """Straggler fault on a wall-clock runtime: sleep a round that
        took ``duration`` out to its slowed-down length (``cap`` at most)
        — the worker step's ``stretch`` seam."""
        extra = self.round_slowdown(wid, duration)
        if extra > 0:
            time.sleep(min(extra, cap))

    # ------------------------------------------------------------------
    def on_send(self, msg: Message) -> List[Tuple[Message, float]]:
        """The transport seam: decide the fate of one outgoing message.

        Returns ``(message, extra_delay_seconds)`` pairs to actually put on
        the wire — empty when dropped, two entries when duplicated.

        A packed :class:`MessageBatch` is judged *per entry*: each entry
        consumes one channel index and gets its own drop/duplicate/delay
        verdict, exactly as if it had been sent as an unpacked message, so
        batching does not change what a chaos plan injects.
        """
        if not self.message_faults:
            return [(msg, 0.0)]
        if isinstance(msg, MessageBatch):
            return self._on_send_batch(msg)
        with self._lock:
            key = (msg.src, msg.dst)
            k = self._channel_idx.get(key, 0)
            self._channel_idx[key] = k + 1
        seed = self.plan.seed
        for f in self._drops:
            if _matches(f, msg.src, msg.dst) and _mix(
                    seed, _TAG_DROP, msg.src, msg.dst, k) < f.rate:
                self._record("drop", msg, k)
                return []
        deliveries = [(msg, 0.0)]
        for f in self._dups:
            if _matches(f, msg.src, msg.dst) and _mix(
                    seed, _TAG_DUP, msg.src, msg.dst, k) < f.rate:
                self._record("duplicate", msg, k)
                # the duplicate is its own wire message: it must carry a
                # fresh seq or seq-keyed ledgers double-count deliveries
                deliveries.append(
                    (dataclasses.replace(msg, seq=fresh_seq()), 0.0))
                break
        for f in self._delays:
            if _matches(f, msg.src, msg.dst) and _mix(
                    seed, _TAG_DELAY, msg.src, msg.dst, k) < f.rate:
                self._record("delay", msg, k)
                deliveries = [(m, d + f.delay) for m, d in deliveries]
                break
        return deliveries

    def _on_send_batch(self, batch: MessageBatch
                       ) -> List[Tuple[MessageBatch, float]]:
        """Per-entry verdicts over a packed batch.

        Surviving entries are regrouped into sub-batches by extra delay
        (entries delivered together must share a wire message); duplicated
        entries additionally go out as separate batches.  The channel
        counter advances by the entry count, keeping verdicts aligned with
        an unpacked run of the same plan.
        """
        import numpy as np
        n = len(batch)
        if n == 0:
            return [(batch, 0.0)]
        with self._lock:
            key = (batch.src, batch.dst)
            k0 = self._channel_idx.get(key, 0)
            self._channel_idx[key] = k0 + n
        seed = self.plan.seed
        src, dst = batch.src, batch.dst
        keep = np.ones(n, dtype=bool)
        dup = np.zeros(n, dtype=bool)
        delay = np.zeros(n, dtype=np.float64)
        for i in range(n):
            k = k0 + i
            dropped = False
            for f in self._drops:
                if _matches(f, src, dst) and _mix(
                        seed, _TAG_DROP, src, dst, k) < f.rate:
                    self._record("drop", batch, k)
                    keep[i] = False
                    dropped = True
                    break
            if dropped:
                continue
            for f in self._dups:
                if _matches(f, src, dst) and _mix(
                        seed, _TAG_DUP, src, dst, k) < f.rate:
                    self._record("duplicate", batch, k)
                    dup[i] = True
                    break
            for f in self._delays:
                if _matches(f, src, dst) and _mix(
                        seed, _TAG_DELAY, src, dst, k) < f.rate:
                    self._record("delay", batch, k)
                    delay[i] = f.delay
                    break
        if keep.all() and not dup.any() and not delay.any():
            return [(batch, 0.0)]
        out: List[Tuple[MessageBatch, float]] = []
        for mask in (keep, keep & dup):
            if not mask.any():
                continue
            for dly in np.unique(delay[mask]):
                sel = mask & (delay == dly)
                sub = MessageBatch(
                    src=src, dst=dst, round=batch.round,
                    ids=batch.ids[sel], payloads=batch.payloads[sel],
                    token=batch.token, entry_bytes=batch.entry_bytes)
                out.append((sub, float(dly)))
        return out

    def _record(self, kind: str, msg: Message, k: int) -> None:
        with self._lock:
            self.records.append(InjectionRecord(
                kind=kind, wid=msg.src,
                detail=f"dst={msg.dst} channel_idx={k}"))
