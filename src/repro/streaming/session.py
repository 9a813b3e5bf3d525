"""Streaming sessions: keep a converged computation live across updates.

A :class:`StreamingSession` runs a PIE program to its fixpoint once, then
accepts batches of edge insertions.  Each batch is integrated *incrementally*:
the partition grows (same owners, new nodes hashed), the converged status
variables carry over, each affected fragment integrates its local insertions
through :meth:`PIEProgram.inc_update` + one IncEval, and the continuation
run starts from the resulting designated messages — no PEval, no global
recomputation.  For monotone programs Theorem 2 applies from any
intermediate state, so the continuation converges to ``Q(G ⊕ ∆G)``.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.core.pie import PIEProgram
from repro.core.result import RunResult
from repro.graph.graph import Graph
from repro.graph.stable import stable_owner
from repro.partition.builder import build_edge_cut
from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime
from repro.streaming.updates import (EdgeInsertion, UpdateBatch,
                                     validate_batch)

Node = Hashable


def integrate_insertions(engine: Engine,
                         insertions: Sequence[EdgeInsertion]) -> List:
    """Fold already-materialised ``insertions`` into a converged
    ``engine``: ``inc_update`` + one IncEval on every fragment that holds
    a copy of one, and the designated messages that seed the continuation
    run.  The one integration step behind :class:`StreamingSession` and
    :class:`~repro.serve.GraphService`.
    """
    program, query = engine.program, engine.query
    messages: List = []
    for wid, frag in enumerate(engine.pg):
        g = frag.graph
        local = [(u, v, w) for u, v, w in insertions
                 if g.has_node(u) and g.has_node(v) and g.has_edge(u, v)]
        if not local:
            continue
        ctx = engine.contexts[wid]
        seeds = program.inc_update(frag, ctx, local, query)
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
        self.owner: Dict[Node, int] = {
            v: stable_owner(v, num_fragments) for v in self.graph.nodes}
        self.pg = build_edge_cut(self.graph, self.owner, self.m, "streaming")
        self.engine = Engine(program, self.pg, query)
        self.batches_applied = 0
        self.initial_result = self._run_full()

    # ------------------------------------------------------------------
    def _policy(self):
        return make_policy(self.mode, staleness_bound=self.staleness_bound)

    def _cost(self) -> Optional[CostModel]:
        if self.cost_model_factory is None:
            return None
        return self.cost_model_factory()

    def _run_full(self) -> RunResult:
        runtime = SimulatedRuntime(self.engine, self._policy(),
                                   cost_model=self._cost(),
                                   record_trace=False)
        return runtime.run()

    # ------------------------------------------------------------------
    @property
    def answer(self) -> Any:
        """The current fixpoint's assembled answer."""
        return self.engine.assemble()

    def apply(self, batch: UpdateBatch) -> RunResult:
        """Integrate one batch of edge insertions and re-converge.

        Atomic: the whole batch is validated against the current graph
        before anything mutates, so a rejected batch (duplicate edge,
        self-loop) leaves graph, engine and owner map exactly as they
        were and the session stays usable.  Returns the continuation run's
        result (metrics, rounds; no ``answer`` — read :attr:`answer`).
        """
        validate_batch(self.graph, batch)
        self._grow_graph(batch)
        new_engine = self._rebuild_engine()
        messages = integrate_insertions(new_engine, batch.insertions)
        runtime = SimulatedRuntime(new_engine, self._policy(),
                                   cost_model=self._cost(),
                                   record_trace=False)
        runtime.seed_resume(messages)
        result = runtime.run()
        self.engine = new_engine
        self.batches_applied += 1
        return result

    # ------------------------------------------------------------------
    def _grow_graph(self, batch: UpdateBatch) -> None:
        """Materialise a *validated* batch (see :meth:`apply`)."""
        for u, v, w in batch.insertions:
            self.graph.add_edge(u, v, w)
        for v in batch.touched_nodes:
            if v not in self.owner:
                self.owner[v] = stable_owner(v, self.m)

    def _rebuild_engine(self) -> Engine:
        """Rebuild fragments for the grown graph, carrying the state over."""
        self.pg = build_edge_cut(self.graph, self.owner, self.m, "streaming")
        new_engine = Engine(self.program, self.pg, self.query)
        old_contexts = self.engine.contexts
        for wid, new_ctx in enumerate(new_engine.contexts):
            old_ctx = old_contexts[wid]
            for v in new_ctx.values:
                if v in old_ctx.values:
                    # same fragment knew this node: carry its value
                    new_ctx.values[v] = old_ctx.values[v]
                else:
                    owner = self.owner.get(v)
                    if owner is not None and \
                            v in old_contexts[owner].values:
                        # fresh mirror of a pre-existing node: adopt the
                        # owner's converged value
                        new_ctx.values[v] = old_contexts[owner].values[v]
            # program scratch (e.g. CC's component index) carries over;
            # inc_update extends it for new nodes.  Deep-copied, not
            # aliased: a caller retaining the old engine (or a result
            # built from it) must not observe mutations from later batches
            new_ctx.scratch = copy.deepcopy(old_ctx.scratch)
            new_ctx.changed = set()
        return new_engine
