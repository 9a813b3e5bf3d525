"""Streaming sessions: keep a converged computation live across updates.

A :class:`StreamingSession` runs a PIE program to its fixpoint once, then
accepts batches of edge insertions.  Each batch is integrated *incrementally*
and in place, the way a :class:`~repro.serve.GraphService` epoch is: the
partition grows (same owners, new nodes hashed), new local nodes get a
status variable, each affected fragment integrates its local insertions
through :meth:`PIEProgram.inc_update` + one IncEval, and the continuation
run starts from the resulting designated messages — no PEval, no rebuild.
For monotone programs Theorem 2 applies from any intermediate state, so the
continuation converges to ``Q(G ⊕ ∆G)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.core.pie import PIEProgram
from repro.core.result import RunResult
from repro.graph.graph import Graph
from repro.graph.stable import stable_owner
from repro.partition.builder import build_edge_cut
from repro.partition.grow import GrowthReport, grow_edge_cut
from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime
from repro.streaming.updates import UpdateBatch, validate_batch

Node = Hashable


def integrate_insertions(engine: Engine, report: GrowthReport) -> List:
    """Fold the insertions growth just materialised (``report``, of
    :func:`~repro.partition.grow.grow_edge_cut`) into a converged
    ``engine``: ``inc_update`` + one IncEval on every fragment that got a
    copy of one, and the designated messages that seed the continuation
    run.  The one integration step behind :class:`StreamingSession` and
    :class:`~repro.serve.GraphService`.
    """
    program, query = engine.program, engine.query
    messages: List = []
    for wid in sorted(report.inserted):
        frag, ctx = engine.pg.fragments[wid], engine.contexts[wid]
        if engine.vectorized:
            seeds = program.dense_inc_update(frag, ctx, *report.rows[wid],
                                             query)
            if len(seeds):
                program.dense_inceval(frag, ctx, seeds, query)
        else:
            seeds = program.inc_update(frag, ctx, report.inserted[wid],
                                       query)
            if seeds:
                program.inceval(frag, ctx, set(seeds), query)
        messages.extend(engine.derive_messages(wid, round_no=1))
    return messages


class StreamingSession:
    """A live computation over a growing graph."""

    def __init__(self, program: PIEProgram, graph: Graph, query: Any,
                 num_fragments: int = 4, mode: str = "AAP",
                 cost_model_factory: Optional[Callable[[], CostModel]]
                 = None,
                 staleness_bound: Optional[int] = None):
        self.program = program
        self.graph = graph.copy()
        self.query = query
        self.m = num_fragments
        self.mode = mode
        self.cost_model_factory = cost_model_factory
        if staleness_bound is None and program.needs_bounded_staleness:
            staleness_bound = program.default_staleness_bound
        self.staleness_bound = staleness_bound
        # placement must be a pure function of the node id: builtin hash
        # is salted per process (PYTHONHASHSEED), so two processes — or a
        # session and the service it warms — would disagree on ownership
        owner = {v: stable_owner(v, num_fragments) for v in self.graph.nodes}
        #: one partition and one engine for the session's life, grown in
        #: place; ``owner`` is the partition's own node -> fragment map
        self.pg = build_edge_cut(self.graph, owner, self.m, "streaming")
        self.owner: Dict[Node, int] = self.pg.owner
        self.engine = Engine(program, self.pg, query)
        self.batches_applied = 0
        self.initial_result = self._runtime().run()

    # ------------------------------------------------------------------
    def _runtime(self) -> SimulatedRuntime:
        """A fresh simulator over the session's engine, under its mode and
        cost model."""
        factory = self.cost_model_factory
        return SimulatedRuntime(
            self.engine,
            make_policy(self.mode, staleness_bound=self.staleness_bound),
            cost_model=factory() if factory is not None else None,
            record_trace=False)

    # ------------------------------------------------------------------
    @property
    def answer(self) -> Any:
        """The current fixpoint's assembled answer."""
        return self.engine.assemble()

    def apply(self, batch: UpdateBatch) -> RunResult:
        """Integrate one batch of edge insertions and re-converge.

        Atomic: the whole batch is validated against the current graph
        before anything mutates, so a rejected batch (duplicate edge,
        self-loop) leaves graph, partition and engine exactly as they
        were and the session stays usable.  Returns the continuation run's
        result (metrics, rounds; no ``answer`` — read :attr:`answer`).
        """
        validate_batch(self.graph, batch)
        for u, v, w in batch.insertions:
            self.graph.add_edge(u, v, w)
        report = grow_edge_cut(self.pg, batch.insertions)
        self.engine.extend_contexts(report)
        self.engine.refresh_routes(report)
        messages = integrate_insertions(self.engine, report)
        runtime = self._runtime()
        runtime.seed_resume(messages)
        result = runtime.run()
        # a fragment the continuation never woke did its integration work
        # outside any round: nobody took it, and it must not be charged
        # to the next batch's first round
        for ctx in self.engine.contexts:
            ctx.take_work()
        self.batches_applied += 1
        return result
