"""Grow an edge-cut partition in place, without rebuilding fragments.

:func:`repro.partition.builder.build_edge_cut` materialises a partition
from scratch in O(|V| + |E|); a service or a session ingesting a continuous
update stream cannot afford that per batch.  :func:`grow_edge_cut` applies
one batch of edge insertions *incrementally*: only the fragments an
insertion touches are mutated, and the mutation cost is proportional to
the batch, not the graph.  The result is — by construction, and enforced
by the equivalence tests, whose oracle the rebuild is — identical to it
under the same owner map: same local graphs, same owned/mirror/border
sets, same routing index, same placement.

Fragment sets, the routing index and the peer sets only ever *gain*
members under insertion, so they are grown in place, and the
:class:`GrowthReport` names the nodes whose presence, border status or
routing changed in each fragment.  A touched fragment's containers are
the truth from then on: the builder's node arrays and the array-shaped
caches (CSR view, dense routes, kernel arrays) are dropped
(:meth:`~repro.partition.fragment.Fragment.invalidate_caches`); an
:class:`~repro.core.engine.Engine` kept over the partition patches its ship
sets from the report (:meth:`~repro.core.engine.Engine.refresh_routes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Sequence, Set, Tuple

from repro.errors import PartitionError
from repro.graph.stable import stable_owner
from repro.partition.fragment import PartitionedGraph

Node = Hashable
EdgeInsertion = Tuple[Node, Node, float]


@dataclass
class GrowthReport:
    """What one in-place growth step changed."""

    #: fragment ids whose structure (graph, sets or routing) changed
    touched: Set[int] = field(default_factory=set)
    #: per fragment: nodes that became locally present this step, in
    #: insertion order (new owned nodes and fresh mirror copies alike)
    new_local: Dict[int, List[Node]] = field(default_factory=dict)
    #: nodes that did not exist anywhere before this step
    new_nodes: Set[Node] = field(default_factory=set)
    #: per fragment: nodes whose presence, border status or routing entry
    #: changed there — everything a per-fragment function of those (a ship
    #: set) has to look at again; every other node is as it was
    rerouted: Dict[int, Set[Node]] = field(default_factory=dict)


def grow_edge_cut(pg: PartitionedGraph,
                  insertions: Sequence[EdgeInsertion],
                  assign: Callable[[Node, int], int] = stable_owner
                  ) -> GrowthReport:
    """Mutate ``pg`` to include ``insertions``; return what changed.

    ``insertions`` must already be validated (no duplicates of existing
    edges, no self-loops, no within-batch duplicates) — growth assumes
    every edge is novel.  New nodes are owned by ``assign(v, m)``
    (default: the stable hash :class:`~repro.streaming.StreamingSession`
    and :class:`~repro.serve.GraphService` build their partitions with).

    Only edge-cut partitions grow in place; vertex-cut placement depends
    on global edge assignment and needs a rebuild.
    """
    if pg.cut != "edge":
        raise PartitionError(
            f"in-place growth requires an edge-cut partition, got "
            f"{pg.cut!r}")
    m = pg.num_fragments
    frags = pg.fragments
    report = GrowthReport()
    touched = report.touched

    def dirty(fid: int, v: Node) -> None:
        touched.add(fid)
        report.rerouted.setdefault(fid, set()).add(v)

    def ensure_owner(v: Node) -> int:
        fid = pg.owner.get(v)
        if fid is None:
            fid = pg.owner[v] = assign(v, m)
            report.new_nodes.add(v)
            report.new_local.setdefault(fid, []).append(v)
            frags[fid].owned.add(v)
            frags[fid].graph.add_node(v)
            pg.placement[v] = (fid,)
            dirty(fid, v)
        return fid

    def ensure_mirror(fid: int, v: Node) -> None:
        """Give fragment ``fid`` a mirror copy of remotely-owned ``v``."""
        frag = frags[fid]
        if v in frag.mirrors:
            return
        frag.mirrors.add(v)
        report.new_local.setdefault(fid, []).append(v)
        # v now resides in one more place: rewrite its routing entry
        # everywhere it is present
        present = pg.placement[v] = tuple(sorted(pg.placement[v] + (fid,)))
        for at in present:
            peers = tuple(f for f in present if f != at)
            frags[at]._routing[v] = peers
            if frags[at]._peers is not None:
                frags[at]._peers.update(peers)
            dirty(at, v)

    def mark(fid: int, border: Set[Node], v: Node) -> None:
        if v not in border:
            border.add(v)
            dirty(fid, v)

    directed = frags[0].directed
    for u, v, w in insertions:
        fu = ensure_owner(u)
        fv = ensure_owner(v)
        # the edge has a copy in the fragment of each endpoint
        frags[fu].graph.add_edge(u, v, w)
        touched.add(fu)
        if fv == fu:
            continue
        a, b = frags[fu], frags[fv]
        b.graph.add_edge(u, v, w)
        touched.add(fv)
        # border bookkeeping, directed semantics; undirected graphs
        # get the symmetric closure — mirroring build_edge_cut exactly
        ensure_mirror(fu, v)
        ensure_mirror(fv, u)
        mark(fu, a.out_border, u)
        mark(fu, a.out_copies, v)
        mark(fv, b.in_border, v)
        mark(fv, b.in_copies, u)
        if not directed:
            mark(fv, b.out_border, v)
            mark(fv, b.out_copies, u)
            mark(fu, a.in_border, u)
            mark(fu, a.in_copies, v)
    # the node arrays, CSR views, dense routes and kernel arrays are
    # functions of the partition that just changed under them
    for fid in touched:
        frags[fid].invalidate_caches()
    return report
