"""Single-source widest (bottleneck) paths as a PIE program.

A max-min lattice computation: the width of a path is its minimum edge
weight; ``width(s, v)`` is the maximum width over all paths.  The status
variable only *increases* (``f_aggr = max``), relaxation takes
``min(width(u), w(u, v))`` — a textbook monotone computation different in
shape from both SSSP (min-plus) and CC (min-label), exercising the ``Max``
aggregator end to end.  Conditions T1-T3 hold (widths come from the finite
set of edge weights), so Theorem 2 applies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Set

from repro.core.aggregators import Max
from repro.core.pie import FragmentContext, PIEProgram
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable


@dataclass(frozen=True)
class WidestPathQuery:
    """Maximum bottleneck width from ``source`` to every node."""

    source: Node


class WidestPathProgram(PIEProgram):
    """PIE program for single-source widest paths."""

    aggregator = Max()
    needs_bounded_staleness = False
    finite_domain = True

    def init_values(self, frag: Fragment, query: WidestPathQuery
                    ) -> Dict[Node, float]:
        return {v: (math.inf if v == query.source else 0.0)
                for v in frag.graph.nodes}

    def peval(self, frag: Fragment, ctx: FragmentContext,
              query: WidestPathQuery) -> None:
        if frag.graph.has_node(query.source):
            self._widen(frag, ctx, {query.source})

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: WidestPathQuery) -> None:
        self._widen(frag, ctx, activated)

    def _widen(self, frag: Fragment, ctx: FragmentContext,
               seeds: Set[Node]) -> None:
        """Widest-path Dijkstra variant: settle nodes widest-first."""
        g = frag.graph
        mirrors = frag.mirrors if frag.cut == "edge" else ()
        heap = []
        seq = 0
        for v in sorted(seeds, key=repr):
            width = ctx.get(v)
            if width > 0.0:
                heap.append((-width, seq, v))
                seq += 1
        heapq.heapify(heap)
        while heap:
            neg, _, v = heapq.heappop(heap)
            width = -neg
            ctx.add_work(1)
            if width < ctx.get(v):
                continue  # stale entry
            if v in mirrors:
                continue
            for u, w in g.out_edges(v):
                ctx.add_work(1)
                new_width = min(width, w)
                if new_width > ctx.get(u):
                    ctx.set(u, new_width)
                    heapq.heappush(heap, (-new_width, seq, u))
                    seq += 1

    def destinations(self, pg: PartitionedGraph, frag: Fragment,
                     v: Node) -> Sequence[int]:
        if frag.cut != "edge":
            return frag.locations(v)
        if v not in frag.mirrors:
            return ()
        owner = pg.owner[v]
        return (owner,) if owner != frag.fid else ()

    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: WidestPathQuery) -> Dict[Node, float]:
        return {v: contexts[fid].values[v] for v, fid in pg.owner.items()}


def reference_widest_paths(graph, source) -> Dict[Node, float]:
    """Sequential reference: widest-path Dijkstra on one machine."""
    width = {v: 0.0 for v in graph.nodes}
    width[source] = math.inf
    heap = [(-math.inf, 0, source)]
    seq = 1
    while heap:
        neg, _, v = heapq.heappop(heap)
        if -neg < width[v]:
            continue
        for u, w in graph.out_edges(v):
            cand = min(-neg, w)
            if cand > width[u]:
                width[u] = cand
                heapq.heappush(heap, (-cand, seq, u))
                seq += 1
    return width
