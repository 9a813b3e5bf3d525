"""Empirical bounded-incrementality checks for IncEval (paper, Section 3).

The paper credits much of AAP's speed-up to *bounded* incremental
algorithms: *"IncEval is bounded if ... it computes ∆O_i in cost that can
be expressed as a function in |M_i| + |∆O_i|, the size of changes in the
input and output"* — i.e. the cost of a round tracks the size of the
change, not the size of the (possibly big) fragment.

:func:`measure_incrementality` probes a converged program with single-value
perturbations of different magnitudes and records (|M| + |∆O|, work) pairs;
:func:`check_bounded` fits them and reports whether work scales with the
change (bounded) or with the fragment (unbounded).  This is an empirical
falsifier in the spirit of :mod:`repro.core.convergence`: it can expose an
accidentally unbounded IncEval (e.g. one that rescans the whole fragment
per round), and gives evidence — not proof — of boundedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.core.engine import Engine
from repro.core.fixpoint import ScheduledExecutor
from repro.core.messages import Message
from repro.core.pie import PIEProgram
from repro.errors import ConvergenceError
from repro.partition.fragment import PartitionedGraph


@dataclass
class Probe:
    """One perturbation experiment on a converged fragment."""

    wid: int
    #: |M|: perturbed update parameters
    input_change: int
    #: |∆O|: status variables whose value changed in response
    output_change: int
    #: work units IncEval spent
    work: int

    @property
    def change(self) -> int:
        return self.input_change + self.output_change


@dataclass
class BoundednessReport:
    """Outcome of the boundedness measurement."""

    probes: List[Probe] = field(default_factory=list)
    fragment_size: int = 0

    @property
    def max_work_per_change(self) -> float:
        ratios = [p.work / max(p.change, 1) for p in self.probes]
        return max(ratios) if ratios else 0.0

    def zero_change_work(self) -> int:
        """Work spent on probes that changed nothing (stale re-delivery)."""
        return max((p.work for p in self.probes if p.output_change == 0),
                   default=0)

    def looks_bounded(self, slack: float = 8.0) -> bool:
        """True when no probe's work exceeds ``slack * (|M| + |∆O| + 1)``
        and stale re-deliveries cost (next to) nothing.

        ``slack`` absorbs the constant factor of the incremental algorithm
        (heap operations per relaxation, root-link fan-out, ...).
        """
        if not self.probes:
            return True
        if self.zero_change_work() > slack:
            return False
        return all(p.work <= slack * (p.change + 1) for p in self.probes)


def measure_incrementality(program: PIEProgram, pg: PartitionedGraph,
                           query: Any,
                           perturbations: Sequence[Tuple[Any, Any]],
                           wid: int = 0) -> BoundednessReport:
    """Converge the program, then probe worker ``wid`` with synthetic
    messages and record how much work each change triggers.

    ``perturbations`` are ``(node, value)`` pairs; each is delivered as a
    one-entry message to ``wid`` on an otherwise converged state.  Nodes
    must be local to fragment ``wid``.
    """
    engine = Engine(program, pg, query)
    ex = ScheduledExecutor(engine)
    ex.start()
    ex.drain()
    frag = pg.fragments[wid]
    ctx = engine.contexts[wid]
    report = BoundednessReport(fragment_size=frag.size)
    round_no = ex.rounds[wid]
    for node, value in perturbations:
        if node not in ctx.values:
            raise ConvergenceError(
                f"perturbation target {node!r} is not local to fragment "
                f"{wid}")
        before = dict(ctx.values)
        msg = Message(src=(wid + 1) % pg.num_fragments, dst=wid,
                      round=round_no, entries=((node, value),))
        out = engine.run_inceval(wid, [msg], round_no=round_no)
        round_no += 1
        output_change = sum(1 for v, val in ctx.values.items()
                            if before[v] != val)
        report.probes.append(Probe(
            wid=wid, input_change=1, output_change=output_change,
            work=out.work))
    return report
