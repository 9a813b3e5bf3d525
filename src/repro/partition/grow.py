"""Grow an edge-cut partition in place, without rebuilding fragments.

:func:`repro.partition.builder.build_edge_cut` materialises a partition
from scratch in O(|V| + |E|); a service ingesting a continuous update
stream cannot afford that per batch.  :func:`grow_edge_cut` applies
one batch of edge insertions *incrementally*: only the fragments an
insertion touches are mutated, and the mutation cost is proportional to
the batch, not the graph.  The result is — by construction, and enforced
by the equivalence tests, whose oracle the rebuild is — identical to it
under the same owner map, modulo the order of local ids: same local
edges, same owned/mirror/border nodes, same routing index, same placement.

Growth works on the fragments' array form
(:class:`~repro.partition.fragment.FragmentCSR`): presence is a lid
lookup, border membership a mask bit, a new local node a row appended to
every per-lid column, an edge copy a row after the CSR's, a routing entry
an appended ``(lid, peer)`` pair.  Node sets, routing dict, dict graph and
placement map only ever *gain* members under insertion, so the ones that
have been built are patched in place; the others are built later from the
grown arrays.  They are patched rather than rebuilt after each epoch
because a rebuild costs 3x (2,000 nodes) to 25x (20,000) a whole generic
epoch and grows with the fragment (docs/performance.md, ledger entry
22).  The :class:`GrowthReport` names, per fragment, the nodes
whose presence, border status or routing changed and the edge copies it
got; an :class:`~repro.core.engine.Engine` kept over the partition
follows from it (:meth:`~repro.core.engine.Engine.extend_contexts`,
:meth:`~repro.core.engine.Engine.refresh_routes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Sequence, Set, Tuple

from repro.errors import PartitionError
from repro.graph.stable import owner
from repro.partition.fragment import (_WAYS, BORDER_SETS,
                                      PartitionedGraph)

Node = Hashable
EdgeInsertion = Tuple[Node, Node, float]


@dataclass
class GrowthReport:
    """What one in-place growth step changed."""

    #: fragment ids whose structure (edges, nodes or routing) changed
    touched: Set[int] = field(default_factory=set)
    #: per fragment: nodes that became locally present this step (new
    #: owned nodes and fresh mirror copies alike), in the order of the
    #: local ids they took — the fragment's last ones
    new_local: Dict[int, List[Node]] = field(default_factory=dict)
    #: nodes that did not exist anywhere before this step
    new_nodes: Set[Node] = field(default_factory=set)
    #: per fragment: nodes whose presence, border status or routing entry
    #: changed there, with their lids — everything a per-fragment function
    #: of those (a routing rule) has to look at again; every other node is
    #: as it was
    rerouted: Dict[int, Dict[Node, int]] = field(default_factory=dict)
    #: per fragment: the insertions it got a copy of, in insertion order —
    #: the fragment's last edge rows — and the same as rows over its
    #: lids: ``(tails, heads, weights)``
    inserted: Dict[int, List[EdgeInsertion]] = field(default_factory=dict)
    rows: Dict[int, Tuple[List[int], List[int], List[float]]] = field(
        default_factory=dict)
    #: per fresh mirror copy, ``(fragment, lid)`` of the copy and of the
    #: owner's: where a warm engine finds the value the copy adopts
    mirrored: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: fragments whose appended edges were folded into their CSR
    merged: Set[int] = field(default_factory=set)


def grow_edge_cut(pg: PartitionedGraph,
                  insertions: Sequence[EdgeInsertion],
                  assign: Callable[[Node, int], int] = owner
                  ) -> GrowthReport:
    """Mutate ``pg`` to include ``insertions``; return what changed.

    ``insertions`` must already be validated (no duplicates of existing
    edges, no self-loops, no within-batch duplicates) — growth assumes
    every edge is novel.  New nodes are owned by ``assign(v, m)``
    (default: :func:`repro.graph.stable.owner`, the placement
    :class:`~repro.serve.GraphService` builds its partition with).

    Only edge-cut partitions grow in place; vertex-cut placement depends
    on global edge assignment and needs a rebuild.
    """
    if pg.cut != "edge":
        raise PartitionError(
            f"in-place growth requires an edge-cut partition, got "
            f"{pg.cut!r}")
    m, frags, owner = pg.num_fragments, pg.fragments, pg.owner
    placement = vars(pg).get("placement")  # patched if somebody built it
    report = GrowthReport()
    touched, rerouted, inserted = (report.touched, report.rerouted,
                                   report.inserted)

    # the edge has a copy in the fragment of each endpoint
    for edge in insertions:
        for v in edge[:2]:
            if v not in owner:
                owner[v] = assign(v, m)
                report.new_nodes.add(v)
                if placement is not None:
                    placement[v] = (owner[v],)
        fu, fv = owner[edge[0]], owner[edge[1]]
        inserted.setdefault(fu, []).append(edge)
        if fv != fu:
            inserted.setdefault(fv, []).append(edge)

    fresh_mirrors: List[Tuple[int, Node, int]] = []
    #: per fragment, node -> lid of every lookup this step makes
    where: Dict[int, Dict[Node, int]] = {}
    for fid, edges in inserted.items():
        touched.add(fid)
        fresh_mirrors += _append(frags[fid], edges, owner, report,
                                 where.setdefault(fid, {}))

    # a fresh mirror makes its node reside in one more place: one more
    # routing pair everywhere it is present (the owner's copy knows where)
    for fid, v, lid in fresh_mirrors:
        home = owner[v]
        home_lid = where.setdefault(home, {}).get(v)
        if home_lid is None:
            home_lid = where[home][v] = frags[home]._arrays.lid(v)
        report.mirrored.append((fid, lid, home, home_lid))
        holders = sorted([home] + frags[home]._arrays.peers_of(home_lid))
        for at in holders:
            there = frags[at]._arrays
            at_lid = where.setdefault(at, {}).get(v)
            if at_lid is None:
                at_lid = there.lid(v)
            there.add_routes(at_lid, (fid,))
            frags[at].peer_fragments().add(fid)
            _route(frags[at], v, (fid,))
            touched.add(at)
            rerouted.setdefault(at, {})[v] = at_lid
        frags[fid]._arrays.add_routes(lid, holders)
        frags[fid].peer_fragments().update(holders)
        _route(frags[fid], v, holders)
        if placement is not None:
            placement[v] = tuple(sorted(placement[v] + (fid,)))

    for fid in touched:
        # routing masks and kernel arrays are functions of the
        # partition that just changed under them
        frags[fid].invalidate_caches()
        view = frags[fid]._arrays
        if view.spilled > view.merge_threshold:
            view.merge()
            report.merged.add(fid)
    return report


def _append(frag, edges: List[EdgeInsertion], owner: Dict[Node, int],
            report: GrowthReport, found: Dict[Node, int]
            ) -> List[Tuple[int, Node, int]]:
    """One fragment's share of a growth step: the endpoints that are not
    local yet become rows of its node table, its copies of the edges rows
    after its CSR's, and the containers it has built are patched.
    ``found`` collects node -> lid of every endpoint; returns the fresh
    mirror copies as ``(fragment, node, lid)``."""
    fid, view, built = frag.fid, frag._arrays, vars(frag)
    dirty = report.rerouted.setdefault(fid, {})
    # endpoints that are not local yet take the next lids, in order
    arrived: Dict[Node, int] = {}
    lids = []
    size, new_nodes, lid_of = len(view), report.new_nodes, view.lid
    for edge in edges:
        for v in edge[:2]:
            lid = found.get(v)
            if lid is None:
                lid = None if v in new_nodes else lid_of(v)
                if lid is None:
                    lid = arrived[v] = size + len(arrived)
                found[v] = lid
            lids.append(lid)
    fresh_mirrors = []
    if arrived:
        new = report.new_local[fid] = list(arrived)
        view.add_nodes(new, [owner[v] for v in new])
        dirty.update(arrived)
        for v, lid in arrived.items():
            kind = "owned" if owner[v] == fid else "mirrors"
            if kind in built:
                built[kind].add(v)
            if kind == "mirrors":
                fresh_mirrors.append((fid, v, lid))
        if "graph" in built:
            for v in new:
                built["graph"].add_node(v)
    ends = tails, heads = lids[0::2], lids[1::2]
    weights = [edge[2] for edge in edges]
    if not view.directed:  # rows keep the orientation a dict graph keys by
        flip = [repr(u) > repr(v) for u, v, _ in edges]
        tails, heads = (
            [h if f else t for t, h, f in zip(tails, heads, flip)],
            [t if f else h for t, h, f in zip(tails, heads, flip)])
    view.add_edges(tails, heads, weights)
    report.rows[fid] = tails, heads, weights
    if "graph" in built:
        for u, v, w in edges:
            built["graph"].add_edge(u, v, w)
    # border bookkeeping on the sets somebody built (the masks are read
    # off the edge rows when asked for); directed semantics, and
    # undirected graphs get the symmetric closure — mirroring
    # build_edge_cut exactly.  The lids are the edges' own ends: a row may
    # have been flipped above
    leaving, entering = (_WAYS[:1], _WAYS[1:]) if view.directed \
        else (_WAYS, _WAYS)
    for (u, v, _), u_lid, v_lid in zip(edges, *ends) \
            if not built.keys().isdisjoint(BORDER_SETS) else ():
        fu = owner[u]
        if fu == owner[v]:
            continue
        # the owned end, the mirror end, and the sets they join
        if fu == fid:
            near, near_lid, far, far_lid, ways = u, u_lid, v, v_lid, leaving
        else:
            near, near_lid, far, far_lid, ways = v, v_lid, u, u_lid, entering
        for border, copies in ways:
            for name, x, lid in ((border, near, near_lid),
                                 (copies, far, far_lid)):
                members = built.get(name)
                if members is not None and x not in members:
                    members.add(x)
                    dirty[x] = lid
    if not dirty:  # an edge between two nodes it already owned
        del report.rerouted[fid]
    return fresh_mirrors


def _route(frag, v: Node, more: Sequence[int]) -> None:
    """Add ``more`` to ``v``'s entry of the routing dict, if it is built."""
    routing = vars(frag).get("_routing")
    if routing is not None:
        routing[v] = tuple(sorted(routing.get(v, ()) + tuple(more)))
