"""Simultaneous fixpoint semantics with explicit schedules (Section 4.1).

The paper models AAP as the fixpoint operator

    R_i^0     = PEval(Q, F_i^0[x̄_i])                      (2)
    R_i^{r+1} = IncEval(Q, R_i^r, F_i^r[x̄_i], M_i)        (3)

A *run* is a sequence of worker activations.  :class:`ScheduledExecutor`
executes equations (2)/(3) directly under an arbitrary explicit schedule —
no clocks, no costs — which gives tests precise control over activation
order.  The Church-Rosser tests compare its results across schedules and
against the timed runtimes.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.core.engine import Engine
from repro.core.messages import Message
from repro.errors import TerminationError


class ScheduledExecutor:
    """Run a PIE program round-by-round under an explicit schedule.

    Message delivery is immediate (each derived message lands in the
    destination buffer before the next scheduled activation), so a schedule
    fully determines the run.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        m = engine.num_workers
        self.buffers: List[List[Message]] = [[] for _ in range(m)]
        self.rounds = [0] * m
        self.total_messages = 0
        self.total_bytes = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run PEval everywhere (the simultaneous round 0)."""
        if self._started:
            raise TerminationError("executor already started")
        self._started = True
        outs = [self.engine.run_peval(wid)
                for wid in range(self.engine.num_workers)]
        for out in outs:
            self.rounds[out.wid] += 1
            self._deliver(out.messages)

    def resume(self, messages: Iterable[Message]) -> None:
        """Start from a converged engine instead of PEval: its contexts
        hold a fixpoint that local updates have moved, ``messages`` are
        the designated messages those updates derived (round 0 is done)."""
        if self._started:
            raise TerminationError("executor already started")
        self._started = True
        self.rounds = [1] * self.engine.num_workers
        self._deliver(messages)

    def step(self, wid: int) -> bool:
        """Activate worker ``wid`` once (one IncEval round).

        Returns ``False`` when the worker had an empty buffer (no round ran).
        """
        if not self._started:
            raise TerminationError("call start() before step()")
        batch, self.buffers[wid] = self.buffers[wid], []
        if not batch:
            return False
        out = self.engine.run_inceval(wid, batch, round_no=self.rounds[wid])
        self.rounds[wid] += 1
        self._deliver(out.messages)
        return True

    def _deliver(self, messages: Iterable[Message]) -> None:
        for msg in messages:
            self.buffers[msg.dst].append(msg)
            self.total_messages += 1
            self.total_bytes += msg.size_bytes

    def superstep(self) -> bool:
        """One strict BSP superstep: every worker consumes exactly the
        messages produced by the previous superstep, simultaneously.

        Returns ``False`` when no worker had messages (fixpoint reached).
        """
        if not self._started:
            raise TerminationError("call start() before superstep()")
        snapshots = [list(b) for b in self.buffers]
        for wid in range(len(self.buffers)):
            self.buffers[wid] = []
        progressed = False
        for wid, batch in enumerate(snapshots):
            if not batch:
                continue
            out = self.engine.run_inceval(wid, batch,
                                          round_no=self.rounds[wid])
            self.rounds[wid] += 1
            self._deliver(out.messages)
            progressed = True
        return progressed

    def run_supersteps(self, max_supersteps: int = 1_000_000) -> int:
        """Strict BSP execution to fixpoint; returns the superstep count."""
        if not self._started:
            self.start()
        count = 0
        while self.superstep():
            count += 1
            if count > max_supersteps:
                raise TerminationError(
                    f"no fixpoint after {max_supersteps} supersteps")
        return count

    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """True at the simultaneous fixpoint (all buffers empty)."""
        return all(not b for b in self.buffers)

    def run_schedule(self, schedule: Sequence[int],
                     then_drain: bool = True) -> Any:
        """Start, apply ``schedule``, optionally drain, then assemble."""
        self.start()
        for wid in schedule:
            self.step(wid)
        if then_drain:
            self.drain()
        return self.engine.assemble()

    def drain(self, max_steps: int = 1_000_000) -> int:
        """Round-robin until quiescent; returns the number of rounds run."""
        if not self._started:
            self.start()
        steps = 0
        while not self.quiescent:
            progressed = False
            for wid in range(self.engine.num_workers):
                if self.buffers[wid]:
                    self.step(wid)
                    progressed = True
                    steps += 1
                    if steps > max_steps:
                        raise TerminationError(
                            f"no fixpoint after {max_steps} rounds")
            if not progressed:  # pragma: no cover - defensive
                break
        return steps

    def assemble(self) -> Any:
        return self.engine.assemble()


def run_sequential_fixpoint(engine: Engine,
                            max_steps: int = 1_000_000) -> Any:
    """Shorthand: PEval everywhere, round-robin IncEval to fixpoint, Assemble.

    This is the canonical *reference run* — a BSP-like logical execution that
    correct monotone programs must agree with under any model.
    """
    ex = ScheduledExecutor(engine)
    ex.start()
    ex.drain(max_steps=max_steps)
    return ex.assemble()


def resume_to_fixpoint(engine: Engine, messages: Iterable[Message],
                       max_steps: int = 1_000_000) -> int:
    """Continue a converged ``engine`` from ``messages`` on the calling
    thread: round-robin IncEval until quiescent, no PEval, no Assemble.
    Returns the number of rounds run.

    A continuation after a small update is a handful of rounds of
    microseconds each; on threads it costs more in hand-offs than in
    work, and its latency is the scheduler's, not the program's.
    """
    ex = ScheduledExecutor(engine)
    ex.resume(messages)
    return ex.drain(max_steps=max_steps)
