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

A fragment the builder makes is **arrays for life** and containers on
demand; in-place growth is the one event that changes which is the truth:

- the node bookkeeping is a :class:`NodeArrays` (owner per local node, a
  mask per border set, the routing index as pairs).  The six node sets
  and the routing ``dict`` are *cached attributes* built from it, each on
  its own first read (:class:`built_on_read`); the arrays stay, so a CSR
  view (:meth:`Fragment.compact`) carries its masks, per-lid owners and
  routing pairs whenever it is built.  :attr:`PartitionedGraph.placement`
  and the view's ``lid_of`` / ``nodes`` are cached the same way;
- :func:`~repro.partition.grow.grow_edge_cut` mutates the containers of
  the fragments it touches, in place, and ends with
  :meth:`Fragment.invalidate_caches`: the containers own the truth from
  then on, the node arrays and every array-shaped cache are dropped, and
  a later CSR view asks the sets (its ``owner`` / ``routed`` / ``peers``
  are ``None``, as for a hand-made ``Fragment(fid, graph, owned=...,
  ...)``, which holds its containers from the start);
- the local graph is a :class:`~repro.graph.csr.GraphArrays` until
  :attr:`Fragment.graph` is first read; the dict
  :class:`~repro.graph.graph.Graph` built then replaces it (``compact()``
  keeps its view, or rebuilds it from the dict graph after growth).

A vectorized build and run reads neither the dict graph nor any of the
containers: peers come from the builder, routes from the programs' array
rules (:meth:`~repro.core.pie.PIEProgram.dense_routes`), sizes,
``directed`` and the quality metrics from the arrays.  Generic-path
programs (so the one engine a ``GraphService`` or ``StreamingSession``
keeps), ``grow_edge_cut`` on the fragments it touches,
``replication_factor`` and ``runtime.recovery`` are who reads them.
"""

from __future__ import annotations

import numbers
import threading
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
                    Union)

import numpy as np

from repro.errors import GraphError, PartitionError
from repro.graph.csr import GraphArrays
from repro.graph.graph import Graph, Node

BORDER_SETS = ("in_border", "out_border", "out_copies", "in_copies")
#: what a builder fragment makes from its :class:`NodeArrays` on first read
_CONTAINERS = ("owned", "mirrors", *BORDER_SETS, "_routing")


class NodeArrays(NamedTuple):
    """A fragment's node bookkeeping the way the builder computes it.

    Positions index ``nodes``, which lists the local nodes in the order
    the fragment's dict graph does.
    """

    #: the local node objects (object array)
    nodes: np.ndarray
    #: per local node, the fragment that owns it
    owner: np.ndarray
    #: per name in :data:`BORDER_SETS`, the boolean mask of its members
    borders: Mapping[str, np.ndarray]
    #: the routing index ``I_i`` as pairs, grouped by node and ascending
    #: in the peer: ``routed[k]`` also resides on fragment ``peers[k]``
    routed: np.ndarray
    peers: np.ndarray


def grouped_tuples(labels: np.ndarray, starts: np.ndarray,
                   counts: np.ndarray, values: np.ndarray
                   ) -> Iterator[Tuple[Any, Tuple[int, ...]]]:
    """``(labels[i], tuple(values[starts[i]:starts[i] + counts[i]]))`` per
    group ``i``.  Groups of equal length are cut from one 2-D array, so
    there is no Python step per group beyond the final ``zip``."""
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        group = np.flatnonzero(counts == c)
        rows = values[starts[group][:, None] + np.arange(c)]
        # no list per row: nothing for the collector to track
        yield from zip(labels[group].tolist(),
                       zip(*(column.tolist() for column in rows.T)))


def distinct_fids(fids: np.ndarray) -> List[int]:
    """The distinct values of an array of fragment ids, ascending (plain
    ``np.unique`` would do, and import ``numpy.ma`` to do it)."""
    return np.flatnonzero(np.bincount(fids)).tolist()


class built_on_read:
    """An attribute that ``build(obj)`` makes on its first read.

    A non-data descriptor: the value is stored in the instance
    ``__dict__``, which shadows it, so it is reached on a miss only and
    plain assignment (a hand-made ``Fragment(...)``, in-place growth)
    works as on any object.  First reads race (threaded workers share a
    partition): a miss looks again under ``_FIRST_READ``.
    """

    #: serialises first reads; re-entrant, as a builder may read another
    #: attribute that is not built yet
    _FIRST_READ = threading.RLock()

    def __init__(self, build: Callable[[Any], Any]):
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        with self._FIRST_READ:
            have = vars(obj)
            # else another first reader finished while this one waited
            if self.name not in have:
                have[self.name] = self.build(obj)
            return have[self.name]


def _any_built(*names: str) -> property:
    """Read-only probe: whether any of the attributes ``names`` exists
    yet (asking builds none)."""
    return property(lambda self: not vars(self).keys().isdisjoint(names))


class FragmentCSR:
    """Cached array view of one fragment: contiguous local ids + CSR.

    The vectorized fast path keeps status variables in arrays indexed by
    *local id* (lid): position in the ascending global ids :attr:`gids`.
    The view holds a :class:`~repro.graph.csr.CompactGraph` over lids, the
    owned/mirror masks and — for a fragment that still has the builder's
    :class:`NodeArrays` — each lid's owner and the routing index as
    ``(lid, peer)`` pairs, which is what array routing rules read
    (:meth:`~repro.core.pie.PIEProgram.dense_routes`).  Lookups go through
    ``searchsorted`` (:meth:`lid`, :meth:`lids_for`); the ``nodes`` list
    (local nodes in lid order) and the ``lid_of`` dict exist for the
    scalar facade of :mod:`repro.core.dense`, built when it first reads
    them (:class:`built_on_read`).  It needs non-negative
    integer node ids; build it through :meth:`Fragment.compact`, which
    caches one instance per fragment.
    """

    nodes = built_on_read(lambda view: view.gids.tolist())
    lid_of = built_on_read(
        lambda view: dict(zip(view.nodes, range(len(view)))))
    built = _any_built("nodes", "lid_of")

    def __init__(self, frag: "Fragment", local: GraphArrays):
        try:
            self.gids, rank, self.csr = local.to_csr()
        except GraphError as exc:
            raise PartitionError(
                f"fragment {frag.fid}: dense view {exc}") from None
        self.fragment = frag
        arrays = frag._node_arrays
        if arrays is None:  # hand-made, or grown in place: ask the sets
            self.owner = self.routed = self.peers = None
            self.owned_mask = np.fromiter(
                map(frag.owned.__contains__, self.gids.tolist()), bool,
                len(self.gids))
        else:
            self.owner = np.empty(len(self.gids), dtype=np.int64)
            self.owner[rank] = arrays.owner
            self.routed, self.peers = rank[arrays.routed], arrays.peers
            self.owned_mask = self.owner == frag.fid
        self.mirror_mask = ~self.owned_mask

    def __len__(self) -> int:
        return len(self.gids)

    def lid(self, v: Node) -> Optional[int]:
        """The local id of node ``v``, ``None`` when it is not local."""
        if not isinstance(v, numbers.Real) or not len(self.gids):
            return None
        at = min(int(np.searchsorted(self.gids, v)), len(self.gids) - 1)
        return at if self.gids[at] == v else None

    def lids_for(self, gids: np.ndarray) -> np.ndarray:
        """Vectorized global-id -> lid lookup; ``-1`` for non-local ids."""
        gids = np.asarray(gids, dtype=np.int64)
        if not len(self.gids):
            return np.full(gids.shape, -1, dtype=np.int64)
        at = np.searchsorted(self.gids, gids)
        at[at == len(self.gids)] = 0
        at[self.gids[at] != gids] = -1
        return at


def _node_set(select: Callable[[NodeArrays, int], np.ndarray]
              ) -> Callable[["Fragment"], Set[Node]]:
    """Builder of the set of local nodes ``select(arrays, fid)`` picks."""
    def build(frag: "Fragment") -> Set[Node]:
        arrays = frag._node_arrays
        return set(arrays.nodes[select(arrays, frag.fid)].tolist())
    return build


def _border_set(name: str) -> Callable[["Fragment"], Set[Node]]:
    return _node_set(lambda arrays, fid: arrays.borders[name])


def _routing_index(frag: "Fragment") -> Dict[Node, Tuple[int, ...]]:
    arrays = frag._node_arrays
    routed = arrays.routed
    first = np.ones(routed.size, dtype=bool)  # of each node's run of pairs
    first[1:] = routed[1:] != routed[:-1]
    starts = np.flatnonzero(first)
    return dict(grouped_tuples(arrays.nodes[routed[starts]], starts,
                               np.diff(starts, append=routed.size),
                               arrays.peers))


def _dict_graph(frag: "Fragment") -> Graph:
    local = frag._local
    if isinstance(local, GraphArrays):  # which the dict graph replaces
        local = frag._local = local.to_graph()
    return local


class Fragment:
    """One fragment of a partitioned graph, resident at one virtual worker."""

    # plain sets: in-place growth only ever adds members
    # (repro.partition.grow); nobody else may mutate them
    owned = built_on_read(_node_set(lambda arrays, fid: arrays.owner == fid))
    mirrors = built_on_read(_node_set(lambda arrays, fid: arrays.owner != fid))
    in_border = built_on_read(_border_set("in_border"))
    out_border = built_on_read(_border_set("out_border"))
    out_copies = built_on_read(_border_set("out_copies"))
    in_copies = built_on_read(_border_set("in_copies"))
    _routing = built_on_read(_routing_index)
    #: the local dict graph, materialised from the builder's arrays on
    #: first read
    graph = built_on_read(_dict_graph)
    built = _any_built(*_CONTAINERS)

    def __init__(self, fid: int, graph: Union[Graph, GraphArrays],
                 owned: Iterable[Node], mirrors: Iterable[Node],
                 in_border: Iterable[Node], out_border: Iterable[Node],
                 out_copies: Iterable[Node], in_copies: Iterable[Node],
                 routing: Mapping[Node, Sequence[int]],
                 cut: str = "edge"):
        self._setup(fid, graph, None, None, cut)
        self.owned: Set[Node] = set(owned)
        self.mirrors: Set[Node] = set(mirrors)
        self.in_border: Set[Node] = set(in_border)
        self.out_border: Set[Node] = set(out_border)
        self.out_copies: Set[Node] = set(out_copies)
        self.in_copies: Set[Node] = set(in_copies)
        self._routing: Dict[Node, Tuple[int, ...]] = {
            v: tuple(fids) for v, fids in routing.items()}
        self._validate()

    @classmethod
    def from_arrays(cls, fid: int, graph: GraphArrays, arrays: NodeArrays,
                    cut: str = "edge") -> "Fragment":
        """The fragment the array-native builder makes: its sets and its
        routing index are built from ``arrays`` when someone reads them."""
        self = cls.__new__(cls)
        self._setup(fid, graph, arrays, set(distinct_fids(arrays.peers)), cut)
        self._validate_arrays()
        return self

    def _setup(self, fid: int, graph: Union[Graph, GraphArrays],
               arrays: Optional[NodeArrays], peers: Optional[Set[int]],
               cut: str) -> None:
        self.fid = fid
        self.cut = cut
        # the builder's arrays until someone asks for the dict graph,
        # the dict graph afterwards
        self._local: Union[Graph, GraphArrays] = graph
        # what the node sets and the routing index are built from, and
        # what a CSR view reads; ``None`` once the fragment grew in place
        self._node_arrays = arrays
        self._peers = peers
        self._compact: Optional[FragmentCSR] = None
        self._memo: Optional[Dict] = None

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

    def _validate_arrays(self) -> None:
        """:meth:`_validate` on the arrays (one owner per node, so owned
        and mirrors cannot overlap)."""
        arrays = self._node_arrays
        owned = arrays.owner == self.fid
        for name, allowed, complaint in (
                ("in_border", owned, "border node {!r} not owned"),
                ("out_border", owned, "border node {!r} not owned"),
                ("out_copies", ~owned, "copy {!r} not a mirror"),
                ("in_copies", ~owned, "copy {!r} not a mirror")):
            bad = arrays.borders[name] & ~allowed
            if bad.any():
                raise PartitionError(f"fragment {self.fid}: " + complaint
                                     .format(arrays.nodes[bad.argmax()]))

    # ------------------------------------------------------------------
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
        if self._peers is None:  # the builder hands its fragments theirs
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
        """The containers are the truth after the fragment grew in place:
        drop the builder's node arrays and every memoized view.

        :func:`repro.partition.grow.grow_edge_cut` mutates the local graph
        and the border/routing sets, which the node arrays, the CSR view,
        ship sets, dense routes and kernel arrays are functions of (the
        peer set it patches itself).  A container growth did not read it
        did not change, so the arrays still build it, here.  An engine
        kept over the partition patches its ship set from the growth
        report and puts it back
        (:meth:`~repro.core.engine.Engine.refresh_routes`).
        """
        if self._node_arrays is not None:
            for name in _CONTAINERS:
                getattr(self, name)
            self._node_arrays = None
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
        arrays = self._node_arrays
        if arrays is None:
            return sum(map(self.owned.__contains__, local.nodes[local.src]))
        return int(np.count_nonzero(arrays.owner[local.src] == self.fid))

    def _node_counts(self) -> Tuple[int, int]:
        """``(owned, mirrors)`` sizes, without building the sets."""
        arrays = self._node_arrays
        if arrays is None:
            return len(self.owned), len(self.mirrors)
        owned = int(np.count_nonzero(arrays.owner == self.fid))
        return owned, len(arrays.owner) - owned

    @property
    def size(self) -> int:
        """Fragment size ``|F_i|`` (nodes + edges), used for skew ratio r."""
        return sum(self._node_counts()) + self.num_local_edges

    def __repr__(self) -> str:
        owned, mirrors = self._node_counts()
        return (f"Fragment(fid={self.fid}, owned={owned}, "
                f"mirrors={mirrors}, edges={self.num_local_edges})")


def _placement(pg: "PartitionedGraph") -> Dict[Node, Tuple[int, ...]]:
    nodes, order, fids, counts = pg._presence
    placement = dict.fromkeys(nodes[order].tolist())
    placement.update(grouped_tuples(nodes, np.cumsum(counts) - counts,
                                    counts, fids))
    pg._presence = None  # this was its one reader
    return placement


class PartitionedGraph:
    """A graph partitioned into fragments ``(F_1, ..., F_m)``.

    Provides the global placement map (node -> fragments where it resides)
    and owner lookup used by the engine and by ``Assemble``.
    """

    #: node -> fragments where it resides, ascending; grown in place
    placement = built_on_read(_placement)
    built = _any_built("placement")

    def __init__(self, fragments: Sequence[Fragment],
                 owner: Mapping[Node, int],
                 placement: Mapping[Node, Sequence[int]],
                 strategy_name: str = "custom", cut: str = "edge"):
        self._setup(fragments, dict(owner), None, strategy_name, cut)
        self.placement: Dict[Node, Tuple[int, ...]] = {
            v: tuple(fids) for v, fids in placement.items()}

    @classmethod
    def from_arrays(cls, fragments: Sequence[Fragment],
                    owner: Dict[Node, int], presence: tuple,
                    strategy_name: str, cut: str) -> "PartitionedGraph":
        """What the array-native builder makes.  ``owner`` becomes the
        partition's own; ``presence`` is where every node resides —
        ``(nodes, placement order as positions, fragment ids grouped by
        node position and ascending, copies per node)`` — and stays that
        until :attr:`placement` is read."""
        self = cls.__new__(cls)
        self._setup(fragments, owner, presence, strategy_name, cut)
        return self

    def _setup(self, fragments: Sequence[Fragment], owner: Dict[Node, int],
               presence: Optional[tuple], strategy_name: str,
               cut: str) -> None:
        self.cut = cut
        self.fragments: List[Fragment] = list(fragments)
        self.owner = owner
        self._presence = presence
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
