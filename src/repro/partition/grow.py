"""Grow an edge-cut partition in place, without rebuilding fragments.

:func:`repro.partition.builder.build_edge_cut` materialises a partition
from scratch in O(|V| + |E|); a resident service ingesting a continuous
update stream cannot afford that per batch.  :func:`grow_edge_cut` applies
one batch of edge insertions *incrementally*: only the fragments an
insertion touches are mutated, and the mutation cost is proportional to
the batch, not the graph.  The result is — by construction, and enforced
by the equivalence tests — identical to rebuilding with the same owner
map: same local graphs, same owned/mirror/border sets, same routing index,
same placement.

The one global cost is cache invalidation: touched fragments drop their
memoized ship sets, dense routes and CSR views (they are pure functions of
a partition that just changed); an :class:`~repro.core.engine.Engine` kept
over the partition refreshes its per-fragment routing via
:meth:`~repro.core.engine.Engine.refresh_routes`.
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

    def _note_local(self, fid: int, v: Node) -> None:
        self.new_local.setdefault(fid, []).append(v)


def grow_edge_cut(pg: PartitionedGraph,
                  insertions: Sequence[EdgeInsertion],
                  assign: Callable[[Node, int], int] = stable_owner
                  ) -> GrowthReport:
    """Mutate ``pg`` to include ``insertions``; return what changed.

    ``insertions`` must already be validated (no duplicates of existing
    edges, no self-loops, no within-batch duplicates) — growth assumes
    every edge is novel.  New nodes are owned by ``assign(v, m)``
    (default: the stable hash shared with
    :class:`~repro.streaming.StreamingSession`).

    Only edge-cut partitions grow in place; vertex-cut placement depends
    on global edge assignment and needs a rebuild.
    """
    if pg.cut != "edge":
        raise PartitionError(
            f"in-place growth requires an edge-cut partition, got "
            f"{pg.cut!r}")
    m = pg.num_fragments
    report = GrowthReport()
    # fragments collect set deltas in mutable scratch; frozensets are
    # reassigned once per touched fragment at the end
    scratch: Dict[int, Dict[str, set]] = {}
    # nodes whose presence set changed (routing must be rewritten
    # everywhere they are present)
    presence_dirty: Set[Node] = set()
    placement: Dict[Node, Set[int]] = {}

    def presence(v: Node) -> Set[int]:
        got = placement.get(v)
        if got is None:
            got = placement[v] = set(pg.placement.get(v, ()))
        return got

    def sets_of(fid: int) -> Dict[str, set]:
        got = scratch.get(fid)
        if got is None:
            frag = pg.fragments[fid]
            got = scratch[fid] = {
                "owned": set(frag.owned), "mirrors": set(frag.mirrors),
                "in_border": set(frag.in_border),
                "out_border": set(frag.out_border),
                "out_copies": set(frag.out_copies),
                "in_copies": set(frag.in_copies)}
            report.touched.add(fid)
        return got

    def ensure_owner(v: Node) -> int:
        fid = pg.owner.get(v)
        if fid is None:
            fid = assign(v, m)
            pg.owner[v] = fid
            report.new_nodes.add(v)
            report._note_local(fid, v)
            sets_of(fid)["owned"].add(v)
            pg.fragments[fid].graph.add_node(v)
            presence(v).add(fid)
            presence_dirty.add(v)
        return fid

    def ensure_mirror(fid: int, v: Node) -> None:
        """Give fragment ``fid`` a mirror copy of remotely-owned ``v``."""
        s = sets_of(fid)
        if v not in s["mirrors"]:
            s["mirrors"].add(v)
            report._note_local(fid, v)
        pres = presence(v)
        if fid not in pres:
            pres.add(fid)
            presence_dirty.add(v)

    directed = pg.fragments[0].directed
    for u, v, w in insertions:
        fu = ensure_owner(u)
        fv = ensure_owner(v)
        # the edge has a copy in the fragment of each endpoint
        pg.fragments[fu].graph.add_edge(u, v, w)
        report.touched.add(fu)
        if fv != fu:
            pg.fragments[fv].graph.add_edge(u, v, w)
            # border bookkeeping, directed semantics; undirected graphs
            # get the symmetric closure — mirroring build_edge_cut exactly
            su, sv = sets_of(fu), sets_of(fv)
            su["out_border"].add(u)
            su["out_copies"].add(v)
            ensure_mirror(fu, v)
            sv["in_border"].add(v)
            sv["in_copies"].add(u)
            ensure_mirror(fv, u)
            if not directed:
                sv["out_border"].add(v)
                sv["out_copies"].add(u)
                su["in_border"].add(u)
                su["in_copies"].add(v)

    # commit set deltas and rewrite routing for dirty nodes
    for fid, s in scratch.items():
        frag = pg.fragments[fid]
        frag.owned = frozenset(s["owned"])
        frag.mirrors = frozenset(s["mirrors"])
        frag.in_border = frozenset(s["in_border"])
        frag.out_border = frozenset(s["out_border"])
        frag.out_copies = frozenset(s["out_copies"])
        frag.in_copies = frozenset(s["in_copies"])
    for v in presence_dirty:
        fids = placement[v]
        pg.placement[v] = tuple(sorted(fids))
        if len(fids) > 1:
            for fid in fids:
                pg.fragments[fid]._routing[v] = tuple(
                    sorted(fids - {fid}))
                report.touched.add(fid)
    # memoized ship sets / dense routes / CSR views are functions of the
    # partition that just changed under them
    for fid in report.touched:
        pg.fragments[fid].invalidate_caches()
    return report
