"""Connected components as a PIE program (paper, Examples 2-4, Figs. 2-3).

PEval computes local connected components with a sequential traversal,
creates a "root" per component carrying the minimum node id (``cid``), and
links every member to its root.  IncEval merges components: when a border
node's ``cid`` decreases, the change is propagated to its root and from the
root to all members (a *bounded* incremental algorithm — cost proportional to
the size of the change, not the fragment).

``f_aggr`` is ``min``; IncEval is contracting and monotonic, so Theorem 2
applies: every asynchronous run converges to the same components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Sequence, Set

import numpy as np

from repro.core.aggregators import Min
from repro.core.dense import (FEW_NODES, FILTER_SHARE, assemble_owner_values,
                              distinct, routes_by_cut, scalar_waves)
from repro.core.pie import FragmentContext, PIEProgram
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable


@dataclass(frozen=True)
class CCQuery:
    """CC has a single query per graph: compute all connected components."""


class CCProgram(PIEProgram):
    """PIE program for connected components (undirected semantics)."""

    aggregator = Min()
    needs_bounded_staleness = False
    finite_domain = True  # cids are node ids
    dense_capable = True
    dense_dtype = "int64"  # cids are (integer) node ids on the dense path

    def init_values(self, frag: Fragment, query: CCQuery) -> Dict[Node, Node]:
        return {v: v for v in frag.graph.nodes}

    def init_value(self, frag: Fragment, v: Node, query: CCQuery) -> Node:
        return v

    # ------------------------------------------------------------------
    def peval(self, frag: Fragment, ctx: FragmentContext,
              query: CCQuery) -> None:
        """Find local components; set every member's cid to the minimum id."""
        g = frag.graph
        root_of: Dict[Node, Node] = {}
        members: Dict[Node, List[Node]] = {}
        comp_cid: Dict[Node, Node] = {}
        seen: Set[Node] = set()
        for start in sorted(g.nodes, key=repr):
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            comp: List[Node] = []
            while stack:
                v = stack.pop()
                comp.append(v)
                ctx.add_work(1)
                for u, _ in g.out_edges(v):
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
                if g.directed:
                    for u, _ in g.in_edges(v):
                        if u not in seen:
                            seen.add(u)
                            stack.append(u)
            cid = min(comp)
            root = comp[0]
            comp_cid[root] = cid
            members[root] = comp
            for v in comp:
                root_of[v] = root
                ctx.set(v, cid)
        ctx.scratch["root_of"] = root_of
        ctx.scratch["members"] = members
        ctx.scratch["comp_cid"] = comp_cid
        ctx.scratch["moved"] = set()
        # only nodes shared with other fragments need eager value updates
        # on later cid changes; interior nodes are resolved through their
        # root at Assemble time (the paper's Assemble does exactly this)
        shared = frag.shared_nodes
        ctx.scratch["border_members"] = {
            root: [v for v in comp if v in shared]
            for root, comp in members.items()}
        # every node that sits in some border_members list
        ctx.scratch["tracked"] = shared

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: CCQuery) -> None:
        """Merge components via min-cid propagation (Fig. 3 of the paper).

        A decreased border cid is propagated to the component's root and
        from there to the border members linked to it — a *bounded*
        incremental step.  Interior members keep stale values; Assemble
        resolves them through their root, as in the paper.
        """
        root_of = ctx.scratch["root_of"]
        border_members = ctx.scratch["border_members"]
        comp_cid = ctx.scratch["comp_cid"]
        moved = ctx.scratch["moved"]
        dirty_roots: Dict[Node, Node] = {}
        for v in activated:
            new_cid = ctx.get(v)
            root = root_of[v]
            best = dirty_roots.get(root, comp_cid[root])
            if new_cid < best:
                dirty_roots[root] = new_cid
            ctx.add_work(1)
        for root, new_cid in dirty_roots.items():
            if new_cid < comp_cid[root]:
                comp_cid[root] = new_cid
                moved.add(root)
                for v in border_members[root]:
                    ctx.set(v, new_cid)
                    ctx.add_work(1)

    # ------------------------------------------------------------------
    # vectorized kernels (min-label propagation over CSR slices)
    # ------------------------------------------------------------------
    def dense_seed(self, frag: Fragment, ctx: Any,
                   query: CCQuery) -> None:
        # label of v starts as v itself: the lid -> gid map, verbatim
        ctx.array[:] = ctx.view.gids

    def dense_peval(self, frag: Fragment, ctx: Any,
                    query: CCQuery) -> None:
        self._dense_propagate(frag, ctx,
                              np.arange(len(ctx.view), dtype=np.int64))

    def dense_inceval(self, frag: Fragment, ctx: Any, activated_lids,
                      query: CCQuery) -> None:
        self._dense_propagate(frag, ctx, activated_lids)

    def _dense_propagate(self, frag: Fragment, ctx: Any, seeds) -> None:
        """Propagate min labels to the local fixpoint (both directions).

        Unlike the generic path, labels of *every* local node stay fresh,
        so the default owner-values ``dense_assemble`` replaces the
        root/cid scratch resolution; the global fixpoint (min member id
        per component) is identical.
        """
        view = ctx.view
        labels = ctx.array
        # undirected adjacency already holds each edge both ways; directed
        # graphs need the reverse one for CC's undirected semantics
        reads = [view.out_edges, view.in_edges] if view.directed \
            else [view.out_edges]
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size <= FEW_NODES:
            seeds = scalar_waves(
                ctx, seeds.tolist(), weighted=False,
                reads=(False, True) if view.directed else (False,))
            if not seeds:
                return
        frontier = distinct(np.asarray(seeds, dtype=np.int64), labels.size)
        while frontier.size:
            # label propagation keeps nearly every node improving for
            # several waves; once the frontier covers half the fragment
            # a flat sweep of the whole edge array is cheaper than the
            # ragged-range expansion (extra edges are no-ops under min)
            sweep = frontier.size * 2 >= labels.size
            lowered = []
            for edges_of in reads:
                lab, tgt, _ = edges_of(None if sweep else frontier,
                                       weighted=False, at_source=labels)
                ctx.add_work(int(tgt.size))
                if tgt.size == 0:
                    continue
                if tgt.size < FILTER_SHARE * labels.size:
                    # few candidates: keep the improving ones,
                    # edge-sized work
                    better = lab < labels[tgt]
                    tgt = tgt[better]
                    if tgt.size:
                        np.minimum.at(labels, tgt, lab[better])
                        lowered.append(tgt)
                else:
                    # many: an unfiltered scatter-min plus a node-sized
                    # before/after compare beats filtering the edge-sized
                    # candidate list (a gather, a compare and two
                    # compressions over |E| entries to save work that
                    # minimum.at skips anyway)
                    prev = labels.copy()
                    np.minimum.at(labels, tgt, lab)
                    lowered.append(np.flatnonzero(labels < prev))
            if not lowered:
                break
            frontier = distinct(np.concatenate(lowered), labels.size)
            ctx.mask[frontier] = True

    # ------------------------------------------------------------------
    def inc_update(self, frag: Fragment, ctx: FragmentContext,
                   inserted, query: CCQuery) -> Set[Node]:
        """Union the endpoint components of every inserted local edge.

        New nodes (including fresh mirror copies) get singleton components
        first; the union adopts the smaller cid and rewrites every member's
        status variable, so the engine ships the changes and the
        continuation run propagates them across fragments.
        """
        root_of = ctx.scratch["root_of"]
        members = ctx.scratch["members"]
        comp_cid = ctx.scratch["comp_cid"]
        border_members = ctx.scratch["border_members"]
        tracked = ctx.scratch["tracked"]
        moved = ctx.scratch["moved"]

        def ensure(v: Node) -> Node:
            if v not in root_of:
                root_of[v] = v
                members[v] = [v]
                comp_cid[v] = ctx.get(v)
                border_members[v] = []
            return root_of[v]

        for u, v, _ in inserted:
            ru, rv = ensure(u), ensure(v)
            # an endpoint may have just *become* shared (its edge is the
            # new cut edge): start tracking it for eager updates
            for x, r in ((u, ru), (v, rv)):
                if x not in tracked and frag.is_shared(x):
                    tracked.add(x)
                    border_members[r].append(x)
            if ru == rv:
                continue
            # absorb the smaller component into the larger one
            if len(members[ru]) < len(members[rv]):
                ru, rv = rv, ru
            new_cid = min(comp_cid[ru], comp_cid[rv])
            if new_cid != comp_cid[ru]:
                moved.add(ru)
            if new_cid != comp_cid[rv] or rv in moved:
                # the absorbed side's answers moved, the absorbing side's
                # may not have: remember its nodes, not the merged root
                moved.discard(rv)
                moved.update(members[rv])
            for x in members[rv]:
                root_of[x] = ru
                ctx.add_work(1)
            members[ru].extend(members[rv])
            border_members[ru].extend(border_members[rv])
            del members[rv]
            del border_members[rv]
            del comp_cid[rv]
            comp_cid[ru] = new_cid
            for x in border_members[ru]:
                ctx.set(x, new_cid)
                ctx.add_work(1)
        return set()

    def dense_inc_update(self, frag: Fragment, ctx: Any, src_lids,
                         dst_lids, weights, query: CCQuery):
        """Labels are fresh on every local node, so a new edge's union is
        its higher end taking the lower label; propagation goes on from
        the ends that moved."""
        labels = ctx.array
        src_lids, dst_lids = np.asarray(src_lids), np.asarray(dst_lids)
        ends = np.concatenate((src_lids, dst_lids))
        lower = np.minimum(labels[src_lids], labels[dst_lids])
        lower = np.concatenate((lower, lower))
        moved = ends[labels[ends] > lower]
        np.minimum.at(labels, ends, lower)
        ctx.mask[moved] = True
        return moved

    # ------------------------------------------------------------------
    def routes(self, pg: PartitionedGraph, frag: Fragment, lids=None):
        """Ship mirror cids to the owner under edge-cut (``C_i = F_i.O``);
        every copy exchanges updates under vertex-cut.

        The owner's local component holds mirror copies of each adjacent
        fragment's border nodes, so min-cid information still flows both
        ways across every cut edge.
        """
        return routes_by_cut(frag, lids)

    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: CCQuery) -> Dict[Node, Node]:
        """Map every node to its component id (the min member id).

        As in the paper, Assemble "first updates the cid of each node to
        the cid of its linked root": interior values may be stale, the
        root's cid is authoritative.
        """
        out: Dict[Node, Node] = {}
        for v, fid in pg.owner.items():
            ctx = contexts[fid]
            root = ctx.scratch["root_of"][v]
            out[v] = ctx.scratch["comp_cid"][root]
        return out

    def answer_delta(self, pg: PartitionedGraph,
                     contexts: Sequence[FragmentContext], written,
                     query: CCQuery) -> Dict[Node, Node]:
        """Every owned member of a component whose cid moved, plus the
        owned nodes written (new nodes among them).

        Assemble reads the component index, not the status variables, so
        ``written`` alone would miss interior members — and a merge of two
        border-less components writes no status variable at all.  PEval,
        IncEval and ``inc_update`` note what they moved in
        ``scratch["moved"]``; this drains it.
        """
        owner = pg.owner
        out: Dict[Node, Node] = {}
        for fid, ctx in enumerate(contexts):
            root_of = ctx.scratch["root_of"]
            members = ctx.scratch["members"]
            comp_cid = ctx.scratch["comp_cid"]
            moved = ctx.scratch["moved"]
            nodes = set(written[fid])
            for x in moved:
                nodes.update(members.get(x, (x,)))
            moved.clear()
            for v in nodes:
                if owner[v] == fid:
                    out[v] = comp_cid[root_of[v]]
        return out

    def dense_answer_delta(self, pg: PartitionedGraph, contexts, written,
                           query: CCQuery) -> Dict[Node, Node]:
        return assemble_owner_values(pg, contexts, lids=written)


def components_from_answer(answer: Dict[Node, Node]) -> List[Set[Node]]:
    """Group the node -> cid map into component sets (sorted by cid)."""
    buckets: Dict[Node, Set[Node]] = {}
    for v, cid in answer.items():
        buckets.setdefault(cid, set()).add(v)
    return [buckets[cid] for cid in sorted(buckets)]
