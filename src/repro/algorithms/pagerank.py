"""PageRank as a PIE program (paper, Section 5.3).

Delta-based accumulative formulation (as in Maiter): each node ``v`` keeps a
score ``P_v`` and a pending update ``x_v`` (the status variable / update
parameter).  Processing ``v`` adds ``x_v`` to ``P_v`` and pushes
``d * x_v / N_v`` into each successor's pending update; ``f_aggr`` is *sum*.
Messages carry pending deltas of mirror copies, which the owner consumes
exactly once (ship-and-reset) — this is the accumulative semantics.

Correctness does not need bounded staleness: every path contribution
``p(v)`` is added to ``P_v`` at most once (paper's remark in Section 5.3),
so all runs converge to the same scores up to the tolerance ``epsilon``.

IncEval drains pending mass to a *local fixpoint* before anything ships,
so the in-fragment waves are where a PageRank run spends its time.  The
vectorized kernel treats each wave as the sparse matrix-vector product it
is (the delayed-asynchronous SpMV sequence of Blanco et al., PAPERS.md)
and picks, per wave, between sweeping the out-edges of all owned nodes
and expanding only the frontier's ranges — see
:meth:`PageRankProgram._dense_propagate` and :data:`DENSE_EDGE_SHARE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set

from repro.core.aggregators import Sum
from repro.core.pie import FragmentContext, PIEProgram
from repro.errors import ProgramError
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable

#: A wave takes the full SpMV once its frontier holds more than this share
#: of the out-edges of the fragment's owned nodes.  The ratio of the two
#: measured per-edge costs: ~3.4 ns per *owned-source* edge for gather +
#: ``bincount`` over those rows against ~12 ns per *frontier* edge for the
#: ragged expansion on the power-law workload (break-even 0.28), ~2.7
#: against ~7 on the R-MAT one (0.37) (docs/performance.md, ledger
#: entries 2 and 11).
DENSE_EDGE_SHARE = 0.3


def _spmv_arrays(frag: Fragment):
    """``(out-degrees, share divisor, source lid, target lid)`` of
    ``frag``, the last two per out-edge of an *owned* node, in the order
    :meth:`~repro.partition.fragment.FragmentCSR.out_edges` yields them.

    Pure functions of the fragment's adjacency, memoized on the fragment
    (and dropped when the fragment grows in place).  The divisor is the
    float out-degree with dangling nodes clamped to 1: they have no edge
    to gather their share through.  An edge that starts at a mirror is
    not kept: a mirror never propagates (its pending mass ships to the
    owner), so its share in a full sweep is exactly 0.
    """
    import numpy as np

    def build():
        view = frag.compact()
        degrees = view.out_degrees()
        edge_src, edge_dst, _ = view.out_edges(
            np.flatnonzero(view.owned_mask), weighted=False)
        return (degrees, np.maximum(degrees, 1).astype(np.float64),
                edge_src, edge_dst)
    return frag.memo("pagerank.spmv_arrays", build)


@dataclass(frozen=True)
class PageRankQuery:
    """PageRank with damping ``d`` and convergence threshold ``epsilon``.

    ``epsilon`` bounds the total residual mass left unpropagated; each node
    stops propagating once its pending update falls below
    ``epsilon / num_nodes``.  Pass ``num_nodes`` (|V| of the whole graph) so
    the per-node threshold is independent of how the graph is fragmented;
    without it each fragment falls back to its local node count, which is
    slightly stricter.
    """

    damping: float = 0.85
    epsilon: float = 1e-3
    num_nodes: Optional[int] = None


class PageRankProgram(PIEProgram):
    """PIE program for delta-accumulative PageRank."""

    aggregator = Sum()
    needs_bounded_staleness = False
    finite_domain = False  # real-valued scores; termination via epsilon
    dense_capable = True
    dense_dtype = "float64"

    def init_values(self, frag: Fragment, query: PageRankQuery
                    ) -> Dict[Node, float]:
        if frag.cut != "edge":
            raise ProgramError(
                "PageRankProgram requires an edge-cut partition (an owner "
                "holds all out-edges of its nodes)")
        # pending update x_v: (1 - d) for owned nodes, 0 for mirror copies
        return {v: (0.0 if v in frag.mirrors else 1.0 - query.damping)
                for v in frag.graph.nodes}

    # ------------------------------------------------------------------
    def peval(self, frag: Fragment, ctx: FragmentContext,
              query: PageRankQuery) -> None:
        ctx.scratch["score"] = {v: 0.0 for v in frag.owned}
        denom = query.num_nodes if query.num_nodes \
            else frag.graph.num_nodes
        ctx.scratch["eps_node"] = query.epsilon / max(denom, 1)
        self._propagate(frag, ctx, query, seeds=frag.owned)

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: PageRankQuery) -> None:
        # activated nodes are owned nodes whose pending delta grew from
        # incoming mirror deltas
        self._propagate(frag, ctx, query, seeds=activated)

    def _propagate(self, frag: Fragment, ctx: FragmentContext,
                   query: PageRankQuery, seeds) -> None:
        """Local fixpoint: drain pending updates above the node threshold.

        Breadth-first (Jacobi-style) waves: a node is processed at most once
        per wave, after the whole previous wave's contributions have been
        accumulated into its pending update.  Depth-first ordering would
        reprocess nodes with partial deltas and multiply the work.
        """
        g = frag.graph
        owned = frag.owned
        score = ctx.scratch["score"]
        eps_node = ctx.scratch["eps_node"]
        d = query.damping
        current = sorted((v for v in seeds if v in owned), key=repr)
        while current:
            next_wave = set()
            for v in current:
                delta = ctx.get(v)
                if abs(delta) <= eps_node:
                    continue
                ctx.set(v, 0.0)
                score[v] += delta
                ctx.add_work(1)
                deg = g.out_degree(v)
                if deg == 0:
                    continue
                share = d * delta / deg
                for u, _ in g.out_edges(v):
                    ctx.set(u, ctx.get(u) + share)
                    ctx.add_work(1)
                    if u in owned and abs(ctx.get(u)) > eps_node:
                        next_wave.add(u)
            current = sorted(next_wave, key=repr)

    # ------------------------------------------------------------------
    # vectorized kernels (one SpMV per wave of delta accumulation)
    # ------------------------------------------------------------------
    def dense_seed(self, frag: Fragment, ctx: Any,
                   query: PageRankQuery) -> None:
        import numpy as np
        if frag.cut != "edge":
            raise ProgramError(
                "PageRankProgram requires an edge-cut partition (an owner "
                "holds all out-edges of its nodes)")
        # pending update x_v: (1 - d) for owned nodes, 0 for mirror copies
        ctx.array[:] = np.where(ctx.view.owned_mask,
                                1.0 - query.damping, 0.0)

    def dense_peval(self, frag: Fragment, ctx: Any,
                    query: PageRankQuery) -> None:
        import numpy as np
        view = ctx.view
        ctx.scratch["score_arr"] = np.zeros(len(view), dtype=np.float64)
        denom = query.num_nodes if query.num_nodes else len(view)
        ctx.scratch["eps_node"] = query.epsilon / max(denom, 1)
        self._dense_propagate(frag, ctx, query,
                              np.nonzero(view.owned_mask)[0])

    def dense_inceval(self, frag: Fragment, ctx: Any, activated_lids,
                      query: PageRankQuery) -> None:
        self._dense_propagate(frag, ctx, query, activated_lids)

    def _dense_propagate(self, frag: Fragment, ctx: Any, query:
                         PageRankQuery, seeds) -> None:
        """Drain pending deltas in Jacobi waves, one SpMV per wave.

        A wave's gain is ``bincount(targets, weights=shares)`` over the
        frontier's out-edges.  A frontier holding more than
        :data:`DENSE_EDGE_SHARE` of the out-edges of owned nodes sweeps
        all of those — scatter the shares into a node vector, gather it
        through the memoized per-edge sources — and a smaller one
        expands only its own ranges, its shares spread over them by the
        accessor (``np.repeat`` over the range lengths).  Both sum a
        node's gain in CSR edge order (the extra edges of the full sweep
        add exact zeros), so the answer does not depend on which branch
        a wave took.  Pending mass is never negative — it starts at
        ``1 - d`` or 0 and only ever receives shares and incoming mirror
        deltas — so the threshold test needs no ``abs``.

        ``ctx.mask`` marks the nodes whose pending mass moved.
        Floating-point accumulation order differs from the generic path,
        so the cross-check is tolerance-based (within ``epsilon``), not
        exact — the paper's accuracy argument bounds both the same way.
        """
        import numpy as np
        view = ctx.view
        degrees, divisor, edge_src, edge_dst = _spmv_arrays(frag)
        pend = ctx.array
        score = ctx.scratch["score_arr"]
        eps_node = ctx.scratch["eps_node"]
        d = query.damping
        owned = view.owned_mask
        n = pend.size
        dense_above = DENSE_EDGE_SHARE * edge_dst.size
        # a sparse wave's share per node, read back at the frontier: only
        # the entries just written are ever read, so it is never cleared
        share_of = np.empty(n)
        front = np.zeros(n, dtype=bool)
        front[np.asarray(seeds, dtype=np.int64)] = True
        while True:
            front &= owned
            front &= pend > eps_node
            active = np.nonzero(front)[0]
            if active.size == 0:
                break
            delta = pend[active]
            pend[active] = 0.0
            score[active] += delta
            counts = degrees[active]
            edges = int(counts.sum())
            ctx.add_work(int(active.size) + edges)
            if edges == 0:
                break
            share = d * delta / divisor[active]
            if edges > dense_above:
                per_node = np.zeros(n)
                per_node[active] = share
                gain = np.bincount(edge_dst, weights=per_node[edge_src],
                                   minlength=n)
            else:
                share_of[active] = share
                shares, dst, _ = view.out_edges(active, weighted=False,
                                                at_source=share_of)
                gain = np.bincount(dst, weights=shares, minlength=n)
            pend += gain
            front = gain != 0.0
            ctx.mask |= front

    def dense_emit(self, frag: Fragment, ctx: Any, lids) -> Any:
        """Ship accumulated mirror deltas and reset them (take-and-zero)."""
        delta = ctx.array[lids].copy()
        ctx.array[lids] = 0.0
        return delta

    def dense_should_ship(self, frag: Fragment, ctx: Any, lids) -> Any:
        import numpy as np
        return np.abs(ctx.array[lids]) > ctx.scratch["eps_node"]

    def dense_apply_incoming(self, frag: Fragment, ctx: Any, lids,
                             payloads) -> Any:
        import numpy as np
        np.add.at(ctx.array, lids, payloads)
        # unique lids at a cost proportional to the batch, not the fragment
        lids = np.sort(lids)
        first = np.ones(lids.size, dtype=bool)
        first[1:] = lids[1:] != lids[:-1]
        return lids[first]

    def dense_assemble(self, pg: PartitionedGraph, contexts: Sequence[Any],
                       query: PageRankQuery) -> Dict[Node, float]:
        """Final scores; residual pending mass is folded in for accuracy."""
        from repro.core.dense import assemble_owner_values
        return assemble_owner_values(
            pg, contexts,
            values=lambda ctx: ctx.scratch["score_arr"] + ctx.array)

    # ------------------------------------------------------------------
    # accumulative message semantics
    # ------------------------------------------------------------------
    def emit(self, frag: Fragment, ctx: FragmentContext, v: Node) -> float:
        """Ship the mirror's accumulated delta and reset it to zero."""
        delta = ctx.get(v)
        ctx.set_silent(v, 0.0)
        return delta

    def routes(self, pg: PartitionedGraph, frag: Fragment, lids=None):
        """Only mirror copies carry outbound deltas, and a delta must be
        consumed exactly once: ship to the owner only."""
        from repro.core.dense import routes_to_owner
        return routes_to_owner(frag, lids)

    def should_ship(self, frag: Fragment, ctx: FragmentContext,
                    v: Node) -> bool:
        """Hold back sub-threshold mirror deltas (Maiter-style).

        The unshipped residual per mirror is bounded by the node threshold,
        the same bound already accepted for owned nodes, so accuracy
        stays within ``epsilon`` while traffic drops dramatically.
        """
        return abs(ctx.get(v)) > ctx.scratch["eps_node"]

    def apply_incoming(self, frag: Fragment, ctx: FragmentContext, v: Node,
                       payloads: Sequence[float]) -> bool:
        total = sum(payloads)
        if total == 0.0:
            return False
        ctx.set(v, ctx.get(v) + total)
        return True

    # ------------------------------------------------------------------
    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: PageRankQuery) -> Dict[Node, float]:
        """Final scores; residual pending mass is folded in for accuracy."""
        out: Dict[Node, float] = {}
        for v, fid in pg.owner.items():
            ctx = contexts[fid]
            out[v] = ctx.scratch["score"][v] + ctx.values[v]
        return out
