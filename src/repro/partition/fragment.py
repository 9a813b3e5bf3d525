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
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterable,
                    List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph, Node


class FragmentCSR:
    """Cached array view of one fragment: contiguous local ids + CSR.

    The vectorized fast path stores status variables in arrays indexed by
    *local id* (lid); this view provides the lid <-> global-node mapping,
    a :class:`~repro.graph.csr.CompactGraph` over lids, and owned/mirror
    boolean masks.  It requires non-negative integer node ids (what every
    generator produces); build it through :meth:`Fragment.compact`, which
    caches one instance per fragment.
    """

    __slots__ = ("fragment", "nodes", "lid_of", "gids", "csr",
                 "owned_mask", "mirror_mask", "_gid_to_lid")

    def __init__(self, frag: "Fragment"):
        nodes = []
        for v in frag.graph.nodes:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) \
                    or v < 0:
                raise PartitionError(
                    f"fragment {frag.fid}: dense view requires non-negative "
                    f"integer node ids, got {v!r}")
            nodes.append(int(v))
        nodes.sort()
        self.fragment = frag
        #: local nodes in lid order (sorted global ids)
        self.nodes: List[int] = nodes
        self.lid_of: Dict[int, int] = {v: i for i, v in enumerate(nodes)}
        self.gids = np.asarray(nodes, dtype=np.int64)
        lid = self.lid_of
        edges = [(lid[u], lid[v], w) for u, v, w in frag.graph.edges()]
        self.csr = CompactGraph.from_edges(len(nodes), edges,
                                           directed=frag.graph.directed)
        self.owned_mask = np.zeros(len(nodes), dtype=bool)
        for v in frag.owned:
            self.owned_mask[lid[v]] = True
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

    __slots__ = ("fid", "graph", "owned", "mirrors", "in_border", "out_border",
                 "out_copies", "in_copies", "cut", "_routing", "_compact",
                 "_memo")

    def __init__(self, fid: int, graph: Graph, owned: Iterable[Node],
                 mirrors: Iterable[Node],
                 in_border: Iterable[Node], out_border: Iterable[Node],
                 out_copies: Iterable[Node], in_copies: Iterable[Node],
                 routing: Mapping[Node, Sequence[int]],
                 cut: str = "edge"):
        self.fid = fid
        self.cut = cut
        self.graph = graph
        self.owned: FrozenSet[Node] = frozenset(owned)
        self.mirrors: FrozenSet[Node] = frozenset(mirrors)
        self.in_border: FrozenSet[Node] = frozenset(in_border)
        self.out_border: FrozenSet[Node] = frozenset(out_border)
        self.out_copies: FrozenSet[Node] = frozenset(out_copies)
        self.in_copies: FrozenSet[Node] = frozenset(in_copies)
        self._routing: Dict[Node, Tuple[int, ...]] = {
            v: tuple(fids) for v, fids in routing.items()}
        self._compact: Optional[FragmentCSR] = None
        self._memo: Optional[Dict] = None
        self._validate()

    def _validate(self) -> None:
        if self.owned & self.mirrors:
            overlap = next(iter(self.owned & self.mirrors))
            raise PartitionError(
                f"fragment {self.fid}: node {overlap!r} both owned and mirror")
        for v in self.in_border | self.out_border:
            if v not in self.owned:
                raise PartitionError(
                    f"fragment {self.fid}: border node {v!r} not owned")
        for v in self.out_copies | self.in_copies:
            if v not in self.mirrors:
                raise PartitionError(
                    f"fragment {self.fid}: copy {v!r} not a mirror")

    # ------------------------------------------------------------------
    @property
    def border_nodes(self) -> FrozenSet[Node]:
        """The paper's border nodes of ``F_i``: ``F.I ∪ F.O'``."""
        return self.in_border | self.out_border

    @property
    def shared_nodes(self) -> FrozenSet[Node]:
        """All nodes with a presence in some other fragment
        (border + mirrors)."""
        return self.border_nodes | self.mirrors

    def locations(self, v: Node) -> Tuple[int, ...]:
        """Fragment ids (excluding this one) where node ``v`` also resides.

        This is the routing index ``I_i`` deduced from the partition strategy.
        Nodes local to this fragment only return an empty tuple.
        """
        return self._routing.get(v, ())

    def peer_fragments(self) -> FrozenSet[int]:
        """Fragments sharing at least one node with this one (its senders).

        Memoized: the routing index is fixed at construction and runtimes
        rebuild their queues from this on every run.
        """
        return self.memo("peer_fragments", self._compute_peers)

    def _compute_peers(self) -> FrozenSet[int]:
        peers = set()
        for fids in self._routing.values():
            peers.update(fids)
        return frozenset(peers)

    def nodes(self) -> Iterable[Node]:
        """All nodes present locally (owned + mirrors)."""
        return self.graph.nodes

    def compact(self) -> FragmentCSR:
        """The cached :class:`FragmentCSR` array view of this fragment.

        Built lazily on first use; the vectorized fast path calls this per
        context construction, so later calls must be free.  Raises
        :class:`~repro.errors.PartitionError` if node ids are not
        non-negative integers.
        """
        if self._compact is None:
            self._compact = FragmentCSR(self)
        return self._compact

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Memoize partition-derived data on this fragment.

        Engines cache ship sets and dense routing masks here (keyed by
        program class), kernels the per-fragment arrays they would
        otherwise rebuild on every call (out-degrees, per-edge sources):
        all pure functions of the partition, so rebuilding them on every
        engine construction — or every round — over the same
        ``PartitionedGraph`` is wasted work.  Cached objects must be
        treated as immutable by callers.
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
        and the border/routing sets; the cached CSR view, ship sets, dense
        routes, peer sets and kernel arrays are all pure functions of that
        structure and must be rebuilt on next use.  Engines kept over the
        partition additionally call
        :meth:`~repro.core.engine.Engine.refresh_routes` to refresh the
        per-instance copies they hold.
        """
        self._compact = None
        self._memo = None

    @property
    def num_local_nodes(self) -> int:
        return len(self.owned)

    @property
    def num_local_edges(self) -> int:
        return self.graph.num_edges

    @property
    def size(self) -> int:
        """Fragment size ``|F_i|`` (nodes + edges), used for skew ratio r."""
        return self.graph.num_nodes + self.graph.num_edges

    def __repr__(self) -> str:
        return (f"Fragment(fid={self.fid}, owned={len(self.owned)}, "
                f"mirrors={len(self.mirrors)}, edges={self.graph.num_edges})")


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
