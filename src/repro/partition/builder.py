"""Build fragments from node or edge assignments — array-native.

:func:`build_edge_cut` implements the paper's edge-cut semantics: a cut edge
from ``F_i`` to ``F_j`` has a copy in both fragments, and mirror copies of the
remote endpoint are materialised locally.  :func:`build_vertex_cut` implements
vertex-cut: edges are distributed and every endpoint present in more than one
fragment becomes a border node with copies.

Both take the input as :class:`~repro.graph.csr.GraphArrays` — from a dict
graph over non-negative integer ids with no Python step per edge, from any
other dict graph by one streamed pass over ``edges()``, from a
``CompactGraph`` as it is — gather the assignment, and cut each fragment out
by boolean selection, which keeps the global edge order.  A fragment gets
its slice as arrays, its ids included (the id census is taken once, by
``GraphArrays.of``); no dict ``Graph`` is built here, nor the order it
lists the nodes in — :attr:`Fragment.graph` does that on first access and
reproduces what inserting the same nodes and edges one by one gives.  Node
sets, routing index, placement map and owner map are handed over the same
way (:class:`~repro.partition.fragment.NodeArrays`): positions and fragment
ids, which become ``set`` / ``dict`` when someone reads them.  The per-edge
builder this replaces is the oracle of
``tests/partition/test_builder_equivalence.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph import stable
from repro.graph.csr import GraphArrays, expand_ranges
from repro.graph.graph import Graph, Node
from repro.partition.fragment import (Fragment, NodeArrays, PartitionedGraph,
                                      insertion_order)


def _mask(scratch: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``scratch`` (a reused boolean array) with exactly ``positions``
    set."""
    scratch[:] = False
    scratch[positions] = True
    return scratch


def _assemble(arrays: GraphArrays, cut: str, strategy_name: str,
              own: np.ndarray, owner: Dict[Node, int] | None,
              labels: Mapping[Node, Any], parts: List[tuple]
              ) -> PartitionedGraph:
    """The one way to make fragments, shared by both cuts.  ``own`` is the
    owner per node position, ``owner`` the partition's map (``None``: made
    from ``own`` when read); a part is one fragment's local node positions,
    ascending, the boolean selection of its edges and its border sets as
    node positions.  A node resides exactly where it is local, which gives
    the routing index — handed over as arrays, like the node sets: the
    fragments build the containers when someone reads them, and the
    placement map is read off the routing (in the owner map's order)."""
    nodes, ids, m = arrays.nodes, arrays.ids, len(parts)
    # every (node, fragment) presence, by node and then by fragment
    at, fids = np.divmod(np.sort(np.concatenate(
        [local * m + fid for fid, (local, _, _) in enumerate(parts)])), m)
    counts = np.bincount(at, minlength=len(nodes))
    # routing: each presence of a node with copies, paired with every
    # other fragment the node resides on
    shared = np.flatnonzero(counts[at] > 1)
    copies = counts[at[shared]]
    here = np.repeat(shared, copies)
    there = expand_ranges((np.cumsum(counts) - counts)[at[shared]], copies)
    elsewhere = fids[here] != fids[there]
    here, peers = here[elsewhere], fids[there[elsewhere]]
    slot = np.empty(len(nodes), dtype=np.int64)
    member = np.empty(len(nodes), dtype=bool)
    fragments = []
    for fid, (local, edges, borders) in enumerate(parts):
        if ids is None or not arrays.is_keyed:  # as NodeArrays lists them
            ends = arrays.src[edges], arrays.dst[edges]
            local = insertion_order((own == fid) & (cut == "edge"), *ends,
                                    local)
        slot[local] = np.arange(local.size)
        local_nodes, local_own = nodes[local], own[local]
        mine = fids[here] == fid
        fragments.append(Fragment.from_arrays(
            fid, GraphArrays(
                local_nodes, slot[arrays.src[edges]],
                slot[arrays.dst[edges]], arrays.weights[edges],
                arrays.directed,
                {v: labels[v] for v in local_nodes[local_own == fid]
                 if v in labels} if labels else {}, arrays.is_keyed,
                None if ids is None else ids[local]),
            NodeArrays(local_nodes, local_own,
                       {name: _mask(member, members)[local]
                        for name, members in borders.items()},
                       slot[at[here[mine]]], peers[mine]), cut))
    return PartitionedGraph.from_arrays(fragments, owner or (nodes, own),
                                        strategy_name, cut)


def build_edge_cut(g: Graph, owner: Mapping[Node, int] | np.ndarray, m: int,
                   strategy_name: str = "custom") -> PartitionedGraph:
    """Materialise edge-cut fragments from a node->fragment assignment (a
    mapping, or the fragment ids as an array in ``g.nodes`` order)."""
    arrays = GraphArrays.of(g)
    nodes, src, dst = arrays.nodes, arrays.src, arrays.dst
    if isinstance(owner, np.ndarray):
        own, owner = owner.astype(np.int64, copy=False), None
        if len(own) != len(nodes):
            raise PartitionError(f"{len(own)} fragment ids for {len(nodes)}"
                                 " nodes")
    else:
        try:
            own = np.fromiter(map(owner.__getitem__, nodes), np.int64,
                              len(nodes))
        except KeyError as exc:
            raise PartitionError(
                f"node {exc.args[0]!r} was not assigned a fragment") from None
        if len(owner) != len(nodes):  # every node has one: keys to spare
            extra = set(owner).difference(nodes.tolist()).pop()
            raise PartitionError(f"node {extra!r} was assigned a fragment "
                                 "but is not in the graph")
        owner = dict(owner)
    bad = (own < 0) | (own >= m)
    if bad.any():
        at = bad.argmax()
        raise PartitionError(f"node {nodes[at]!r} assigned out-of-range "
                             f"fragment {own[at]}")
    fu, fv = own[src], own[dst]
    cut = fu != fv
    parts = []
    for fid in range(m):
        # the edge has a copy in the fragment of each endpoint
        here = (fu == fid) | (fv == fid)
        # border bookkeeping, directed semantics; undirected graphs get
        # the symmetric closure
        leaving, entering = cut & (fu == fid), cut & (fv == fid)
        out_border, out_copies = src[leaving], dst[leaving]
        in_border, in_copies = dst[entering], src[entering]
        if not g.directed:
            out_border = in_border = np.concatenate((out_border, in_border))
            out_copies = in_copies = np.concatenate((out_copies, in_copies))
        # local: the owned nodes and the mirrors cut edges bring in
        local = own == fid
        local[out_copies] = local[in_copies] = True
        parts.append((np.flatnonzero(local), here, dict(
            in_border=in_border, out_border=out_border,
            out_copies=out_copies, in_copies=in_copies)))
    labels = {v: label for v, label in g.node_labels().items()
              if label is not None}
    return _assemble(arrays, "edge", strategy_name, own, owner, labels,
                     parts)


def build_vertex_cut(g: Graph, edge_owner: Mapping[Tuple[Node, Node], int],
                     m: int,
                     strategy_name: str = "custom") -> PartitionedGraph:
    """Materialise vertex-cut fragments from an edge->fragment assignment.

    Each node's *master* fragment is the smallest fragment id holding one of
    its edges (deterministic); copies elsewhere are mirrors.  Under vertex-cut
    the paper's border nodes are exactly the nodes with copies in more than
    one fragment; we expose them through the same I/O sets (a replicated node
    is simultaneously in-border and out-border on its master, and an in/out
    copy on the others).
    """
    arrays = GraphArrays.of(g)
    nodes, src, dst = arrays.nodes, arrays.src, arrays.dst
    n = len(nodes)
    us, vs = nodes[src].tolist(), nodes[dst].tolist()
    fids = list(map(edge_owner.get, zip(us, vs)))
    if not g.directed:
        fids = [edge_owner.get((v, u)) if fid is None else fid
                for fid, u, v in zip(fids, us, vs)]
    if None in fids:
        at = fids.index(None)
        raise PartitionError(f"edge ({us[at]!r}, {vs[at]!r}) was not assigned")
    fe = np.fromiter(fids, np.int64, len(fids))
    bad = (fe < 0) | (fe >= m)
    if bad.any():
        at = int(bad.argmax())
        raise PartitionError(
            f"edge ({us[at]!r}, {vs[at]!r}) out-of-range {fids[at]}")
    # isolated nodes: placed by the owner function
    isolated = np.flatnonzero(
        np.bincount(np.concatenate((src, dst)), minlength=n) == 0)
    iso_fid = np.fromiter((stable.owner(v, m) for v in nodes[isolated]),
                          np.int64, isolated.size)
    heres = [fe == fid for fid in range(m)]
    locals_ = [np.flatnonzero(np.bincount(np.concatenate(
        (src[here], dst[here], isolated[iso_fid == fid])), minlength=n))
        for fid, here in enumerate(heres)]
    copies = np.bincount(np.concatenate(locals_), minlength=n)
    own = np.empty(n, dtype=np.int64)
    for fid in reversed(range(m)):  # the smallest fragment id wins
        own[locals_[fid]] = fid
    parts = []
    for fid, (local, here) in enumerate(zip(locals_, heres)):
        owned = own[local] == fid
        replicated, mirrors = local[owned & (copies[local] > 1)], local[~owned]
        parts.append((local, here, dict(
            in_border=replicated, out_border=replicated,
            out_copies=mirrors, in_copies=mirrors)))
    order = insertion_order(np.zeros(n, dtype=bool), src, dst, None)
    owner = dict(zip(nodes[order].tolist(), own[order].tolist()))
    return _assemble(arrays, "vertex", strategy_name, own, owner, {}, parts)
