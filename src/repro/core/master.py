"""The master's book (paper, Section 3), decided once for every runtime.

The paper's master does three jobs: termination (workers flag
``inactive``; once all are and nothing flies the master probes, each
worker answers ``ack`` if still inactive or ``wait``, and unanimous
``ack`` ends the run), BSP's barrier (superstep ``s + 1`` opens once every
worker reported ``s``; PEval is the 0th), and the ``r_min`` / ``r_max`` /
rate statistics Eq. 1 reads.  :class:`MasterBook` keeps the books for all
three and decides; like :class:`~repro.core.step.WorkerStep` it never
blocks, sleeps or sends.  A runtime feeds it what it sees and carries out
its decision (docs/architecture.md, "Master book").
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.step import DEFAULT_ROUND_TIME, Fleet
from repro.errors import TerminationError
from repro.obs import events as obs_events

#: what :meth:`MasterBook.decide` tells its driver to do
NONE, OPEN, PROBE, STOP = "none", "open", "probe", "stop"


def fleet_of(rounds: Sequence[int], active: Sequence[bool],
             rates: Sequence[float], round_times: Sequence[float]) -> Fleet:
    """Eq. 1's fleet over worker slots: ``rmin`` / ``rmax`` over the
    active ones (``None``: nobody has work), so a finished worker never
    pins an SSP / Hsync bound; the mean positive rate and round time."""
    base = [r for r, busy in zip(rounds, active) if busy]
    live = [r for r in rates if 0.0 < r < math.inf]
    return Fleet(rmin=min(base) if base else None,
                 rmax=max(base) if base else None,
                 avg_rate=sum(live) / len(live) if live else 0.0,
                 avg_round_time=sum(round_times) / len(round_times),
                 num_workers=len(rounds))


def local_fleet(states, now: float,
                default_round_time: float = DEFAULT_ROUND_TIME) -> Fleet:
    """:func:`fleet_of` over workers sharing this address space: their
    rounds, ``pending`` and predictors at ``now``."""
    return fleet_of([w.rounds for w in states], [w.pending for w in states],
                    [w.arrival_rate.predict(now=now) for w in states],
                    [w.round_time.predict(default=default_round_time)
                     for w in states])


class MasterBook:
    """The master's books over ``m`` worker slots, and its one decision.

    Per slot: the inactive flag (BSP: reported the open superstep), the
    round, rate and round time, and the era whose ledger reports count.
    Per directed channel: entries announced and received.  The open
    superstep (``None``: not BSP) and the numbered probe's answers.
    ``emit(type, **payload)`` records opened barriers and closed probes.
    Not thread-safe: a threaded driver calls it under one lock.
    """

    def __init__(self, m: int, bsp: bool = False,
                 round_time: float = DEFAULT_ROUND_TIME,
                 emit: Optional[Callable[..., None]] = None):
        self.m = m
        self.emit = emit or (lambda type_, **payload: None)
        self.round_time = round_time
        self.inactive = [False] * m
        self.rounds = [1] * m
        self.rates = [0.0] * m
        self.round_times = [round_time] * m
        self.sent: Dict[Tuple[int, int], int] = {}
        self.recv: Dict[Tuple[int, int], int] = {}
        self.era = [0] * m
        #: slots a takeover settled: their channels may stay over-credited
        self.settled: set = set()
        self.superstep: Optional[int] = 0 if bsp else None
        #: whether a worker ran a round in the open superstep
        self.worked = False
        self.probing, self.probe = False, 0
        self.answered: set = set()
        self.waited = False

    # -- what the workers report ---------------------------------------
    def set_inactive(self, w: int, worked: bool = False,
                     unless: Optional[Callable[[], bool]] = None) -> bool:
        """Slot ``w`` has nothing to do (BSP: it reported the open
        superstep, having run a round in it iff ``worked``); refused
        (False) if ``unless()``, asked here so that a driver holding its
        lock across both lets no barrier in between."""
        if unless is not None and unless():
            return False
        self.inactive[w] = True
        self.worked = self.worked or worked
        return True

    def set_active(self, w: int) -> None:
        """Slot ``w`` has mail: active, and a ``wait`` to an open probe."""
        self.inactive[w] = False
        self.waited = True

    def answer(self, w: int, ack: bool, probe: int) -> None:
        """Slot ``w``'s answer to probe ``probe`` (dropped unless that is
        the open one: a takeover may have abandoned it)."""
        if self.probing and probe == self.probe:
            self.answered.add(w)
            self.waited = self.waited or not ack

    def observe(self, w: int, round_no: int, round_time: float,
                rate: float) -> None:
        """Slot ``w`` finished a round: its round, time and rate."""
        self.rounds[w] = round_no
        self.round_times[w] = round_time
        self.rates[w] = rate

    # -- the ledger ------------------------------------------------------
    def announce(self, src: int, by_dst: Dict[int, int], era: int = 0) -> None:
        """``src`` put ``by_dst[d]`` entries on the wire to each ``d``; a
        report from an older era arrives late and is dropped."""
        if era == self.era[src]:
            for dst, n in by_dst.items():
                self.sent[(src, dst)] = self.sent.get((src, dst), 0) + n

    def credit(self, dst: int, by_src: Dict[int, int], era: int = 0) -> None:
        """``dst`` took ``by_src[s]`` entries off the wire from each ``s``."""
        if era == self.era[dst]:
            for src, n in by_src.items():
                self.recv[(src, dst)] = self.recv.get((src, dst), 0) + n

    def in_flight(self) -> int:
        """Entries announced and not received, clamped per channel: a
        credit read before its announce (two processes' reports) must not
        hide real traffic on another channel."""
        return sum(max(n - self.recv.get(chan, 0), 0)
                   for chan, n in self.sent.items())

    def settle(self, w: int) -> Tuple[int, int]:
        """Equalize dead slot ``w``'s channels; returns its cumulative
        ``(sent, received)`` entries, the bases its replacement inherits.
        Outbound, sent drops to what was drained (the rest died with it);
        inbound, received rises to sent (drained at quarantine, discarded
        with the rings, or forgone)."""
        peers = [d for d in range(self.m) if d != w]
        for d in peers:
            self.recv[(d, w)] = self.sent.get((d, w), 0)
            self.sent[(w, d)] = self.recv.get((w, d), 0)
        self.settled.add(w)
        return (sum(self.sent.get((w, d), 0) for d in peers),
                sum(self.recv.get((d, w), 0) for d in peers))

    def rejoin(self, w: int, era: int) -> None:
        """Incarnation ``era`` replaces slot ``w``: only its reports count,
        it starts fresh (active, round 1; BSP: unreported), and an open
        probe is abandoned (the replacement answers none)."""
        self.era[w] = era
        self.inactive[w] = False
        self.observe(w, 1, self.round_time, 0.0)
        self.probing = False

    # -- the decision ----------------------------------------------------
    def decide(self, holds: Optional[Callable[[int], bool]] = None) -> str:
        """:data:`NONE`, :data:`OPEN` (superstep :attr:`superstep`, every
        flag cleared), :data:`PROBE` or :data:`STOP`, by one rule.

        Once every slot is inactive, BSP opens the next superstep if a
        worker ran a round in this one (what flies is its input);
        otherwise, once nothing flies, the master probes.  All ``ack``
        with still nothing in flight stops the run; a ``wait`` opens the
        next superstep (BSP) or resumes.  A driver that sees every buffer
        passes ``holds(w)``: the probe is answered on the spot, ``wait``
        iff ``w`` holds mail, and the driver never sees :data:`PROBE`.
        """
        if self.probing:
            if len(self.answered) < self.m:
                return NONE
            decision = self._close_probe()
            if decision != NONE:
                return decision
        if not all(self.inactive):
            return NONE
        if self.superstep is not None and self.worked:
            return self._open()
        if self.in_flight():
            return NONE
        self.probing, self.waited, self.probe = True, False, self.probe + 1
        self.answered.clear()
        if holds is None:
            return PROBE
        for w in range(self.m):
            self.answer(w, not holds(w), self.probe)
        return self._close_probe()

    def _close_probe(self) -> str:
        self.probing = False
        self.emit(obs_events.TERMINATE_PROBE,
                  result="wait" if self.waited else "ack")
        if self.waited or self.in_flight() or not all(self.inactive):
            return NONE if self.superstep is None else self._open()
        # every announce precedes its worker's ack, so reordering no
        # longer explains an over-credit; only a takeover's settle can
        over = sorted(chan for chan, n in self.recv.items()
                      if n > self.sent.get(chan, 0)
                      and not self.settled.intersection(chan))
        if over:
            raise TerminationError(
                f"in-flight counter went negative: channels {over} "
                f"received more entries than were announced")
        return STOP

    def _open(self) -> str:
        self.superstep += 1
        self.inactive[:] = [False] * self.m
        self.worked = False
        self.emit(obs_events.BARRIER, step=self.superstep)
        return OPEN

    def fleet(self) -> Fleet:
        """:func:`fleet_of` over the reported rounds; a slot is active
        unless flagged inactive."""
        return fleet_of(self.rounds, [not idle for idle in self.inactive],
                        self.rates, self.round_times)
