"""SSSP as a PIE program (paper, Section 5.1).

PEval is Dijkstra's algorithm per fragment; IncEval is the incremental
shortest-path algorithm in the Ramalingam–Reps style: when border distances
decrease, a multi-source Dijkstra re-relaxes only the affected region.  The
aggregate function is ``min``; the status variable of node ``v`` is
``dist(s, v)``.  IncEval is contracting and monotonic (distances only
decrease), so by Theorem 2 every AAP run converges to the true distances —
bounded staleness is not needed.

The priority-queue optimisation is exactly the sequential-algorithm
optimisation the paper credits for GRAPE+'s advantage over vertex-centric
systems (which relax in Bellman-Ford fashion).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Sequence, Set

import numpy as np

from repro.core.aggregators import Min
from repro.core.dense import (FEW_EDGES, FEW_NODES, FILTER_SHARE,
                              assemble_owner_values, distinct, routes_by_cut,
                              scalar_waves)
from repro.core.pie import FragmentContext, PIEProgram
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable
INF = math.inf


@dataclass(frozen=True)
class SSSPQuery:
    """A single-source shortest path query."""

    source: Node


class SSSPProgram(PIEProgram):
    """PIE program for single-source shortest paths."""

    aggregator = Min()
    needs_bounded_staleness = False
    # distances come from sums over the finite set of edge weights
    finite_domain = True
    dense_capable = True
    dense_dtype = "float64"

    def init_values(self, frag: Fragment, query: SSSPQuery
                    ) -> Dict[Node, float]:
        return {v: (0.0 if v == query.source else INF)
                for v in frag.graph.nodes}

    def init_value(self, frag: Fragment, v: Node,
                   query: SSSPQuery) -> float:
        return 0.0 if v == query.source else INF

    # ------------------------------------------------------------------
    def peval(self, frag: Fragment, ctx: FragmentContext,
              query: SSSPQuery) -> None:
        """Dijkstra from the source, if it is local."""
        if frag.graph.has_node(query.source):
            self._dijkstra(frag, ctx, seeds={query.source})

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: SSSPQuery) -> None:
        """Multi-source Dijkstra seeded at the nodes whose dist decreased."""
        self._dijkstra(frag, ctx, seeds=activated)

    def _dijkstra(self, frag: Fragment, ctx: FragmentContext,
                  seeds: Set[Node]) -> None:
        g = frag.graph
        # under edge-cut, a mirror's distance only feeds the owner
        # fragment via message passing (the owner holds all its edges);
        # under vertex-cut every copy relaxes the edges it holds
        mirrors = frag.mirrors if frag.cut == "edge" else ()
        heap = []
        seq = 0
        # seeds go in unsorted: heapify orders by distance and the final
        # fixpoint is seed-order independent (ties only affect visit
        # order, never the min over path sums)
        for v in seeds:
            d = ctx.get(v)
            if d < INF:
                heap.append((d, seq, v))
                seq += 1
        heapq.heapify(heap)
        while heap:
            d, _, v = heapq.heappop(heap)
            ctx.add_work(1)
            if d > ctx.get(v):
                continue  # stale heap entry
            if v in mirrors:
                continue
            for u, w in g.out_edges(v):
                ctx.add_work(1)
                nd = d + w
                if nd < ctx.get(u):
                    ctx.set(u, nd)
                    heapq.heappush(heap, (nd, seq, u))
                    seq += 1

    # ------------------------------------------------------------------
    # vectorized kernels (frontier-based relaxation over the CSR view)
    # ------------------------------------------------------------------
    def dense_seed(self, frag: Fragment, ctx: Any,
                   query: SSSPQuery) -> None:
        ctx.array.fill(INF)
        src = ctx.view.lid(query.source)
        if src is not None:
            ctx.array[src] = 0.0

    def dense_peval(self, frag: Fragment, ctx: Any,
                    query: SSSPQuery) -> None:
        src = ctx.view.lid(query.source)
        if src is not None:
            self._dense_relax(frag, ctx,
                              np.asarray([src], dtype=np.int64))

    def dense_inceval(self, frag: Fragment, ctx: Any, activated_lids,
                      query: SSSPQuery) -> None:
        self._dense_relax(frag, ctx, activated_lids)

    def _dense_relax(self, frag: Fragment, ctx: Any, seeds) -> None:
        """Wave relaxation to the local fixpoint via ``np.minimum.at``.

        Computes the same min over left-to-right path sums as
        :meth:`_dijkstra` (floats included: ``min`` is exact and each
        path's sum is evaluated in the same order), so the cross-check
        against the generic path is exact equality.
        """
        view = ctx.view
        dist = ctx.array
        # under edge-cut, mirrors never relax locally (the owner holds
        # all their out-edges); under vertex-cut every copy relaxes
        relax_ok = view.owned_mask if frag.cut == "edge" else None
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size <= FEW_NODES:
            seeds = scalar_waves(ctx, seeds.tolist(), weighted=True,
                                 active=relax_ok, count_nodes=True)
            if not seeds:
                return
        frontier = distinct(np.asarray(seeds, dtype=np.int64), dist.size)
        # only a seed can sit at infinity: every later frontier was just
        # lowered
        frontier = frontier[np.isfinite(dist[frontier])]
        while frontier.size:
            if relax_ok is not None:
                # the one filter that can empty a frontier of lowered lids
                frontier = frontier[relax_ok[frontier]]
                if not frontier.size:
                    break
            offer, tgt, weights = view.out_edges(frontier, at_source=dist)
            ctx.add_work(int(frontier.size + tgt.size))
            if tgt.size == 0:
                break
            nd = offer + weights
            if tgt.size < FILTER_SHARE * dist.size:
                # few candidates: keep the improving ones, edge-sized work
                better = nd < dist[tgt]
                tgt = tgt[better]
                if not tgt.size:
                    break
                np.minimum.at(dist, tgt, nd[better])
                frontier = distinct(tgt, dist.size)
            else:
                # many: an unfiltered scatter-min and a node-sized
                # before/after compare cost less than the filtering
                prev = dist.copy()
                np.minimum.at(dist, tgt, nd)
                frontier = np.flatnonzero(dist < prev)
            ctx.mask[frontier] = True

    # ------------------------------------------------------------------
    def inc_update(self, frag: Fragment, ctx: FragmentContext,
                   inserted, query: SSSPQuery) -> Set[Node]:
        """Edge insertions only shorten paths: reseed Dijkstra from every
        inserted edge's source that already has a finite distance."""
        seeds = set()
        for u, v, w in inserted:
            if u in ctx.values and ctx.get(u) < INF:
                seeds.add(u)
            # undirected edges relax both ways
            if not frag.directed and v in ctx.values \
                    and ctx.get(v) < INF:
                seeds.add(v)
        return seeds

    def dense_inc_update(self, frag: Fragment, ctx: Any, src_lids,
                         dst_lids, weights, query: SSSPQuery):
        """Every old edge is relaxed already, so only the new rows can
        shorten a path: relax them alone and go on from the heads they
        improved.  A row relaxes from a mirror tail too (its value is
        the owner's, a real path's length): the head's fragment learns
        at once what the tail's owner is about to ship it."""
        dist = ctx.array
        if len(weights) <= FEW_EDGES:  # a handful of rows: one by one
            heads = []
            for row in zip(src_lids, dst_lids, weights):
                ways = (row,) if frag.directed \
                    else (row, (row[1], row[0], row[2]))
                for tail, head, weight in ways:
                    nd = dist.item(tail) + weight
                    if nd < dist.item(head):
                        dist[head] = nd
                        ctx.mask[head] = True
                        heads.append(head)
            # and on from the heads, while that stays a handful too
            return np.array(scalar_waves(
                ctx, heads, weighted=True, count_nodes=True,
                active=ctx.view.owned_mask if frag.cut == "edge" else None),
                dtype=np.int64)
        src_lids, dst_lids, weights = (
            np.asarray(src_lids), np.asarray(dst_lids),
            np.asarray(weights, dtype=dist.dtype))
        if not frag.directed:  # undirected edges relax both ways
            src_lids, dst_lids, weights = (
                np.concatenate(pair) for pair in (
                    (src_lids, dst_lids), (dst_lids, src_lids),
                    (weights, weights)))
        nd = dist[src_lids] + weights
        better = nd < dist[dst_lids]
        heads = dst_lids[better]
        np.minimum.at(dist, heads, nd[better])
        ctx.mask[heads] = True
        return heads

    # ------------------------------------------------------------------
    def routes(self, pg: PartitionedGraph, frag: Fragment, lids=None):
        """Ship mirror updates to the owner (``C_i = F_i.O`` designated
        messages) under edge-cut: a node's owner holds all of its outgoing
        edges, so an owned node's new distance is only useful locally, and
        a mirror's improvement only to the owner — other mirror holders'
        copies feed the owner independently.  Under vertex-cut every
        replicated copy relaxes edges, so all copies exchange updates."""
        return routes_by_cut(frag, lids)

    # ------------------------------------------------------------------
    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: SSSPQuery) -> Dict[Node, float]:
        """dist(s, v) for every node, taken from each node's owner."""
        return {v: contexts[fid].values[v] for v, fid in pg.owner.items()}

    def answer_delta(self, pg: PartitionedGraph,
                     contexts: Sequence[FragmentContext], written,
                     query: SSSPQuery) -> Dict[Node, float]:
        """The answer is the owner's status variable, so it moves exactly
        where an owner copy was written."""
        owner = pg.owner
        return {v: contexts[fid].values[v]
                for fid, nodes in enumerate(written)
                for v in nodes if owner[v] == fid}

    def dense_answer_delta(self, pg: PartitionedGraph, contexts, written,
                           query: SSSPQuery) -> Dict[Node, float]:
        return assemble_owner_values(pg, contexts, lids=written)
