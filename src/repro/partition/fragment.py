"""Fragments: the unit of data-partitioned parallelism.

A fragment ``F_i`` (Section 2 of the paper) is a subgraph assigned to a
virtual worker.  Under edge-cut, a cut edge from ``F_i`` to ``F_j`` has a copy
in both fragments, so a fragment holds its *owned* nodes plus *mirror* copies
of remote endpoints.  The paper's border sets are exposed directly:

- ``F.I``  (:attr:`Fragment.in_border`):  owned nodes with an
  incoming cut edge,
- ``F.O'`` (:attr:`Fragment.out_border`): owned nodes with an
  outgoing cut edge,
- ``F.O``  (:attr:`Fragment.out_copies`): remote nodes that owned
  nodes point to,
- ``F.I'`` (:attr:`Fragment.in_copies`):  remote nodes that point
  into owned nodes.

Each fragment also carries the routing index ``I_i`` (paper, Section 3):
for a border node ``v``, :meth:`Fragment.locations` returns every other
fragment where ``v`` resides, used to derive designated messages ``M(i, j)``.

A fragment's local graph has **one source of truth at a time**: the
builder's :class:`~repro.graph.csr.GraphArrays`, from which
:meth:`Fragment.compact` builds the CSR view the vectorized path runs on,
until :attr:`Fragment.graph` is first read; that turns them into the dict
:class:`~repro.graph.graph.Graph` and drops them (``compact()`` keeps its
view, or rebuilds it from the dict graph after in-place growth).  Only
generic-path programs (so ``GraphService`` and ``StreamingSession``),
``grow_edge_cut`` on the fragments it touches and ``runtime.recovery`` read
``graph``; sizes, ``directed`` and the quality metrics never do.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

import numpy as np

from repro.errors import GraphError, PartitionError
from repro.graph.csr import GraphArrays
from repro.graph.graph import Graph, Node


class FragmentCSR:
    """Cached array view of one fragment: contiguous local ids + CSR.

    The vectorized fast path keeps status variables in arrays indexed by
    *local id* (lid); this view maps lids to global nodes and back and holds
    a :class:`~repro.graph.csr.CompactGraph` over lids plus owned/mirror
    masks.  It needs non-negative integer node ids; build it through
    :meth:`Fragment.compact`, which caches one instance per fragment.
    """

    __slots__ = ("fragment", "nodes", "lid_of", "gids", "csr",
                 "owned_mask", "mirror_mask", "_gid_to_lid")

    def __init__(self, frag: "Fragment", local: GraphArrays):
        try:
            self.gids, self.csr = local.to_csr()
        except GraphError as exc:
            raise PartitionError(
                f"fragment {frag.fid}: dense view {exc}") from None
        self.fragment = frag
        #: local nodes in lid order (sorted global ids)
        self.nodes: List[int] = self.gids.tolist()
        self.lid_of: Dict[int, int] = dict(
            zip(self.nodes, range(len(self.nodes))))
        self.owned_mask = np.fromiter(
            map(frag.owned.__contains__, self.nodes), bool, len(self.nodes))
        self.mirror_mask = ~self.owned_mask
        self._gid_to_lid = None

    def __len__(self) -> int:
        return len(self.nodes)

    def lids_for(self, gids: np.ndarray) -> np.ndarray:
        """Vectorized global-id -> lid lookup; ``-1`` for non-local ids."""
        if self._gid_to_lid is None:
            size = int(self.gids[-1]) + 1 if self.gids.size else 0
            table = np.full(size, -1, dtype=np.int64)
            table[self.gids] = np.arange(len(self.nodes), dtype=np.int64)
            self._gid_to_lid = table
        table = self._gid_to_lid
        gids = np.asarray(gids, dtype=np.int64)
        out = np.full(gids.shape, -1, dtype=np.int64)
        ok = (gids >= 0) & (gids < table.size)
        out[ok] = table[gids[ok]]
        return out


class Fragment:
    """One fragment of a partitioned graph, resident at one virtual worker."""

    __slots__ = ("fid", "_local", "owned", "mirrors", "in_border",
                 "out_border", "out_copies", "in_copies", "cut", "_routing",
                 "_peers", "_compact", "_memo")

    def __init__(self, fid: int, graph: Union[Graph, GraphArrays],
                 owned: Iterable[Node], mirrors: Iterable[Node],
                 in_border: Iterable[Node], out_border: Iterable[Node],
                 out_copies: Iterable[Node], in_copies: Iterable[Node],
                 routing: Mapping[Node, Sequence[int]],
                 cut: str = "edge"):
        self.fid = fid
        self.cut = cut
        # one source of truth: the builder's arrays until someone asks
        # for the dict graph, the dict graph afterwards
        self._local: Union[Graph, GraphArrays] = graph
        # plain sets: in-place growth only ever adds members
        # (repro.partition.grow); nobody else may mutate them
        self.owned: Set[Node] = set(owned)
        self.mirrors: Set[Node] = set(mirrors)
        self.in_border: Set[Node] = set(in_border)
        self.out_border: Set[Node] = set(out_border)
        self.out_copies: Set[Node] = set(out_copies)
        self.in_copies: Set[Node] = set(in_copies)
        self._routing: Dict[Node, Tuple[int, ...]] = {
            v: tuple(fids) for v, fids in routing.items()}
        self._peers: Optional[Set[int]] = None
        self._compact: Optional[FragmentCSR] = None
        self._memo: Optional[Dict] = None
        self._validate()

    def _validate(self) -> None:
        if self.owned & self.mirrors:
            overlap = next(iter(self.owned & self.mirrors))
            raise PartitionError(
                f"fragment {self.fid}: node {overlap!r} both owned and mirror")
        for v in (self.in_border | self.out_border) - self.owned:
            raise PartitionError(
                f"fragment {self.fid}: border node {v!r} not owned")
        for v in (self.out_copies | self.in_copies) - self.mirrors:
            raise PartitionError(
                f"fragment {self.fid}: copy {v!r} not a mirror")

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The local dict graph, materialised from the builder's arrays
        on first access (which drops the arrays)."""
        local = self._local
        if isinstance(local, GraphArrays):
            local = self._local = local.to_graph()
        return local

    @property
    def materialised(self) -> bool:
        """Whether the dict graph has been built (or was handed in)."""
        return isinstance(self._local, Graph)

    @property
    def directed(self) -> bool:
        return self._local.directed

    @property
    def border_nodes(self) -> Set[Node]:
        """The paper's border nodes of ``F_i``: ``F.I ∪ F.O'``."""
        return self.in_border | self.out_border

    @property
    def shared_nodes(self) -> Set[Node]:
        """All nodes with a presence in some other fragment
        (border + mirrors)."""
        return self.border_nodes | self.mirrors

    def is_shared(self, v: Node) -> bool:
        """``v in shared_nodes`` without building the union."""
        return (v in self.mirrors or v in self.in_border
                or v in self.out_border)

    def locations(self, v: Node) -> Tuple[int, ...]:
        """Fragment ids (excluding this one) where node ``v`` also resides.

        This is the routing index ``I_i`` deduced from the partition strategy.
        Nodes local to this fragment only return an empty tuple.
        """
        return self._routing.get(v, ())

    def peer_fragments(self) -> Set[int]:
        """Fragments sharing at least one node with this one (its senders).

        Computed once (runtimes rebuild their queues from this on every
        run); in-place growth adds the peers it creates.
        """
        if self._peers is None:
            self._peers = set().union(*self._routing.values())
        return self._peers

    def compact(self) -> FragmentCSR:
        """The cached :class:`FragmentCSR` view, built on first use (the
        vectorized path asks per context, so later calls are free).  Raises
        :class:`~repro.errors.PartitionError` unless node ids are
        non-negative integers."""
        if self._compact is None:
            self._compact = FragmentCSR(self, GraphArrays.of(self._local))
        return self._compact

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Memoize partition-derived data on this fragment.

        Engines cache ship sets and dense routing masks here (keyed by
        program class), kernels their per-fragment arrays (out-degrees,
        per-edge sources): pure functions of the partition that would
        otherwise be rebuilt per engine or per round.  Callers must treat
        cached objects as immutable; the one exception is the ship set,
        which the engine that follows in-place growth patches and
        re-installs (:meth:`~repro.core.engine.Engine.refresh_routes`).
        """
        if self._memo is None:
            self._memo = {}
        try:
            return self._memo[key]
        except KeyError:
            value = build()
            self._memo[key] = value
            return value

    def invalidate_caches(self) -> None:
        """Drop every memoized view after the fragment grew in place.

        :func:`repro.partition.grow.grow_edge_cut` mutates the local graph
        and the border/routing sets, which the CSR view, ship sets, dense
        routes and kernel arrays are functions of (the peer set it patches
        itself).  An engine kept over the partition patches its ship set
        from the growth report and puts it back
        (:meth:`~repro.core.engine.Engine.refresh_routes`).
        """
        self._compact = None
        self._memo = None

    @property
    def num_local_edges(self) -> int:
        return self._local.num_edges

    def num_edges_from_owned(self) -> int:
        """Local edges whose stored source endpoint is owned here.  Under
        edge-cut both copies of a cut edge keep one orientation, so this
        counts every edge of the graph in exactly one fragment."""
        local = GraphArrays.of(self._local)
        return sum(map(self.owned.__contains__, local.nodes[local.src]))

    @property
    def size(self) -> int:
        """Fragment size ``|F_i|`` (nodes + edges), used for skew ratio r."""
        return len(self.owned) + len(self.mirrors) + self.num_local_edges

    def __repr__(self) -> str:
        return (f"Fragment(fid={self.fid}, owned={len(self.owned)}, "
                f"mirrors={len(self.mirrors)}, "
                f"edges={self.num_local_edges})")


class PartitionedGraph:
    """A graph partitioned into fragments ``(F_1, ..., F_m)``.

    Provides the global placement map (node -> fragments where it resides)
    and owner lookup used by the engine and by ``Assemble``.
    """

    __slots__ = ("fragments", "owner", "placement", "strategy_name", "cut")

    def __init__(self, fragments: Sequence[Fragment],
                 owner: Mapping[Node, int],
                 placement: Mapping[Node, Sequence[int]],
                 strategy_name: str = "custom", cut: str = "edge"):
        self.cut = cut
        self.fragments: List[Fragment] = list(fragments)
        self.owner: Dict[Node, int] = dict(owner)
        self.placement: Dict[Node, Tuple[int, ...]] = {
            v: tuple(fids) for v, fids in placement.items()}
        self.strategy_name = strategy_name
        if not self.fragments:
            raise PartitionError("a partition needs at least one fragment")
        seen_fids = {f.fid for f in self.fragments}
        if seen_fids != set(range(len(self.fragments))):
            raise PartitionError(
                f"fragment ids must be 0..m-1, got {sorted(seen_fids)}")

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    def fragment_of(self, v: Node) -> Fragment:
        """The fragment that owns node ``v``."""
        try:
            return self.fragments[self.owner[v]]
        except KeyError:
            raise PartitionError(f"node {v!r} has no owner") from None

    def sizes(self) -> List[int]:
        return [f.size for f in self.fragments]

    def __iter__(self):
        return iter(self.fragments)

    def __len__(self) -> int:
        return len(self.fragments)

    def __repr__(self) -> str:
        return (f"PartitionedGraph(m={self.num_fragments}, "
                f"strategy={self.strategy_name!r}, sizes={self.sizes()})")
