"""Single-source reachability as a PIE program.

The simplest monotone PIE program: the status variable is a boolean
("reached"), ``f_aggr`` is OR (``Max`` over ``False < True``), PEval is a
local traversal from the source, IncEval a local traversal from newly
reached border nodes.  Values live in the two-element lattice, so T1-T3
hold trivially and Theorem 2 gives Church-Rosser convergence under every
model — this is the canonical correctness demo for the framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Set

from repro.core.aggregators import Max
from repro.core.pie import FragmentContext, PIEProgram
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable


@dataclass(frozen=True)
class ReachQuery:
    """Which nodes can ``source`` reach (directed) / touch (undirected)?"""

    source: Node


class ReachabilityProgram(PIEProgram):
    """PIE program for single-source reachability."""

    aggregator = Max()
    needs_bounded_staleness = False
    finite_domain = True

    def init_values(self, frag: Fragment, query: ReachQuery
                    ) -> Dict[Node, bool]:
        return {v: v == query.source for v in frag.graph.nodes}

    def peval(self, frag: Fragment, ctx: FragmentContext,
              query: ReachQuery) -> None:
        if frag.graph.has_node(query.source):
            self._traverse(frag, ctx, {query.source})

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: ReachQuery) -> None:
        self._traverse(frag, ctx, activated)

    def _traverse(self, frag: Fragment, ctx: FragmentContext,
                  seeds: Set[Node]) -> None:
        g = frag.graph
        mirrors = frag.mirrors if frag.cut == "edge" else ()
        stack = [v for v in sorted(seeds, key=repr) if ctx.get(v)]
        while stack:
            v = stack.pop()
            if v in mirrors:
                continue  # the owner follows v's out-edges
            for u, _ in g.out_edges(v):
                ctx.add_work(1)
                if not ctx.get(u):
                    ctx.set(u, True)
                    stack.append(u)

    def routes(self, pg: PartitionedGraph, frag: Fragment, lids=None):
        from repro.core.dense import routes_by_cut
        return routes_by_cut(frag, lids)

    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: ReachQuery) -> Set[Node]:
        """The set of reached nodes."""
        return {v for v, fid in pg.owner.items()
                if contexts[fid].values[v]}
