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

A fragment is **arrays for life, grown in place; its containers are
caches, patched if present**:

- the array form is one :class:`FragmentCSR` per fragment: a node table
  over *local ids* (the id, the owner and a mask per border set for each
  local node), the routing index as ``(lid, peer)`` pairs and the local
  edges as ``(src lid, dst lid, weight)`` rows, with a CSR over the rows
  once :meth:`Fragment.compact` asked for one.  Local ids never change:
  the nodes a fragment is made with are numbered in ascending id order
  (integer ids; in the order its dict graph lists them otherwise), nodes
  that arrive later take ``n, n + 1, ...``;
- the six node sets, the routing ``dict`` and the dict
  :class:`~repro.graph.graph.Graph` are *cached attributes* built from
  the arrays, each on its own first read (:class:`built_on_read`).
  :attr:`PartitionedGraph.placement` / ``owner``, the view's ``lid_of``
  / ``nodes`` and its dict-graph node order are cached the same way;
- :func:`~repro.partition.grow.grow_edge_cut` appends to the arrays —
  rows at the end of every per-lid column, edge rows after the CSR's
  (:meth:`FragmentCSR.out_edges` reads both; a merge folds them into the
  CSR when they pass :data:`MERGE_FRACTION` of it) — and patches the
  containers that have been built; the ones that have not are built
  later from the grown arrays.

There is one way to make a fragment, the builder's
(:mod:`repro.partition.builder`): ``Fragment(fid, graph_arrays,
node_arrays, cut)``.

A vectorized build, run and epoch reads none of the containers: peers
come from the builder, routes from the programs' routing rules over the
node table (:meth:`~repro.core.pie.PIEProgram.routes`, on either
engine), sizes, ``directed`` and the quality metrics from the arrays.
Generic-path programs (so a ``GraphService`` over non-integer ids),
``replication_factor`` and ``runtime.recovery`` are who reads them.
"""

from __future__ import annotations

import numbers
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Mapping, NamedTuple, Optional, Sequence, Set, Tuple)

import numpy as np

from repro.errors import GraphError, PartitionError
from repro.graph import csr as csr_module
from repro.graph.csr import (CompactGraph, GraphArrays, Spill, first_bad_id,
                             id_table, integer_ids, stable_order)
from repro.graph.graph import Graph, Node, built_on_read

BORDER_SETS = ("in_border", "out_border", "out_copies", "in_copies")
#: the border sets an outgoing cut edge puts its (owned end, mirror end)
#: in, then an incoming one; an undirected cut edge is both
_WAYS = (("out_border", "out_copies"), ("in_border", "in_copies"))
#: what a fragment makes from its array form on first read
_CONTAINERS = ("owned", "mirrors", *BORDER_SETS, "_routing")

#: Edges appended to a fragment are folded into its CSR once they exceed
#: this share of the edges already in it (and :data:`MERGE_FLOOR`).  A
#: merge is one key sort per stored adjacency over the whole fragment and
#: an array wave of a dense kernel scans the appended rows, so the share
#: trades the amortised merge against the per-wave scan; measured on the
#: ``serve-sssp-mixed`` workload (docs/performance.md, ledger entry 10:
#: 1/8 keeps the merges at 1-2 % of an epoch, 1/32 at 7 %, 1/128 at 20 %).
MERGE_FRACTION = 1 / 8
MERGE_FLOOR = 64
#: up to this many ids are looked up one by one (:meth:`FragmentCSR.lid`):
#: below that an array lookup is all call overhead
FEW_LOOKUPS = 16


class NodeArrays(NamedTuple):
    """A fragment's node bookkeeping the way the builder computes it.

    Positions index ``nodes``: graph position order for integer ids of
    keyed edges, else the order the fragment's dict graph lists them in.
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


def insertion_order(head: np.ndarray, src: np.ndarray, dst: np.ndarray,
                    by_position: Optional[np.ndarray]) -> np.ndarray:
    """Nodes ``0..n-1`` as a dict graph lists them after ``add_node`` of
    the ``head`` (a mask), ``add_edge`` of ``zip(src, dst)`` and
    ``add_node`` of the rest: head and rest in ``by_position`` order
    (``None``: ascending), endpoints by first appearance in between."""
    by_position = np.arange(len(head)) if by_position is None else by_position
    known = head.copy()
    ends = np.stack((src, dst), axis=1).ravel()
    fresh = ends[~known[ends]]
    # the first of each run of equal endpoints, in (endpoint, position)
    # order, is that endpoint's first appearance
    order = stable_order(fresh, len(known))
    by_node = fresh[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = by_node[1:] != by_node[:-1]
    fresh = fresh[np.sort(order[first])]
    known[fresh] = True
    return np.concatenate((by_position[head[by_position]], fresh,
                           by_position[~known[by_position]]))


def _any_built(*names: str) -> property:
    """Read-only probe: whether any of the attributes ``names`` exists
    yet (asking builds none)."""
    return property(lambda self: not vars(self).keys().isdisjoint(names))


def resized(live: np.ndarray, size: int, capacity: int) -> np.ndarray:
    """``live`` — the used prefix of a longer buffer — at length ``size``.

    Every per-lid array of a fragment, its contexts and its engines is
    kept this way: while the buffer behind ``live`` has room the longer
    prefix is a re-slice, and when not, the rows move into a zeroed
    buffer of ``capacity`` (the fragment's, which doubles), so ``n``
    appends cost O(n) copies in total.  New rows read as zero / False.
    """
    if len(live) == size:
        return live
    buf = live if live.base is None else live.base
    if len(buf) < size:
        buf = np.zeros(capacity, dtype=live.dtype)
        buf[:len(live)] = live
    return buf[:size]


class _Columns:
    """Equal-length arrays that grow together, by appending rows."""

    __slots__ = ("_bufs", "_live", "size", "capacity")

    def __init__(self, **arrays: np.ndarray):
        self._bufs = arrays
        self._live: Dict[str, np.ndarray] = {}
        self.size = self.capacity = len(next(iter(arrays.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        """The live rows of column ``name`` (a view: writes go through)."""
        try:
            return self._live[name]
        except KeyError:
            live = self._live[name] = self._bufs[name][:self.size]
            return live

    def extend(self, **rows: Sequence[Any]) -> int:
        """Append one value per new row to the columns named (the others
        get zero / False); returns the index of the first new row."""
        first = self.size
        self.size += len(next(iter(rows.values())))
        self._live.clear()
        if self.size > self.capacity:
            self.reserve(max(2 * self.capacity, self.size))
        # element by element: growth appends a handful of rows, and a
        # tuple in an object column is one id, not a row
        for name, values in rows.items():
            column = self._bufs[name]
            for at, value in enumerate(values, first):
                column[at] = value
        return first

    def reserve(self, capacity: int) -> None:
        """Move the columns to buffers with room for ``capacity`` rows."""
        self.capacity = capacity
        for name, buf in self._bufs.items():
            self._bufs[name] = np.zeros(capacity, dtype=buf.dtype)
            self._bufs[name][:len(buf)] = buf[:capacity]
        self._live.clear()

    def replace(self, name: str, values: np.ndarray) -> None:
        """Swap the live rows of column ``name`` for ``values``."""
        buf = np.zeros(self.capacity, dtype=values.dtype)
        buf[:self.size] = values
        self._bufs[name] = buf
        self._live.pop(name, None)


class FragmentCSR:
    """The array form of one fragment: node table, routing pairs, edge
    rows and — on request — a CSR, all over contiguous *local ids*.

    A lid is a node's position in every per-lid column
    (:attr:`gids`, :attr:`owner`, :attr:`owned_mask` /
    :attr:`mirror_mask`, :attr:`borders`).  The nodes the fragment was
    made with are numbered in ascending id order when the ids are
    non-negative integers (in dict-graph order otherwise, and then there
    is no CSR); nodes appended by in-place growth take the next lids, in
    arrival order, and no lid ever changes.  Integer ids are
    looked up in a sorted index of the ids plus a ``dict`` of the nodes
    appended since the index was last folded: an array of ids
    (:meth:`lids_for`) through a lid table indexed by id when the index
    spans at most :data:`~repro.graph.csr.LID_TABLE_SPAN` ids per node, by
    ``searchsorted`` when the ids are sparser (so nothing is ever sized
    by an id), and one id (:meth:`lid`) by ``searchsorted``; the
    ``nodes`` list and the ``lid_of`` dict exist for node-keyed loads
    (:meth:`~repro.core.dense.DenseContext.load_values`), a resident
    service's one-by-one lookups and non-integer ids, built when first
    read (:class:`built_on_read`) and patched by growth from then on.

    :attr:`csr` is a :class:`~repro.graph.csr.CompactGraph` over the first
    edge rows; the rows appended since are the *spill* that
    :meth:`out_edges` / :meth:`in_edges` — the one way kernels read
    adjacency — scan after the base ranges.  :meth:`merge` folds the
    spill into the CSR (and the appended ids into the sorted index and
    the lid table, the appended routing pairs into the sorted pairs);
    lids stay.  Every per-lid column shares one amortised-doubling
    :attr:`capacity`, which contexts and engines follow (:func:`resized`).

    One instance per fragment, for life, made with it
    (:class:`Fragment`); :meth:`Fragment.compact` returns it with the CSR
    built.
    """

    nodes = built_on_read(lambda view: view.gids.tolist())
    lid_of = built_on_read(
        lambda view: dict(zip(view.nodes, range(len(view)))))
    #: lids in the order the dict graph lists the initial nodes (``None``:
    #: lid order), from the initial edge rows on first read
    _dict_order = built_on_read(lambda view: insertion_order(
        view.owned_mask[:view._initial[0]] & (view.fragment.cut == "edge"),
        *(view._edges[end][:view._initial[1]] for end in ("src", "dst")),
        view._initial[2]))
    built = _any_built("nodes", "lid_of")

    def __init__(self, frag: "Fragment", graph: GraphArrays,
                 arrays: NodeArrays):
        self.fragment = frag
        # the builder took the id census once, for the whole graph
        ids = graph.ids if graph.ids is not None \
            else integer_ids(arrays.nodes)
        listed = ids is None or not graph.is_keyed  # see NodeArrays
        graph = graph.keyed()
        self.directed = graph.directed
        self.labels = graph.labels
        routed, peers = arrays.routed, arrays.peers
        src, dst = graph.src, graph.dst
        owner, borders = arrays.owner, arrays.borders
        gids, rank = arrays.nodes if ids is None else ids, None
        if ids is not None and (ids[1:] < ids[:-1]).any():
            order = np.argsort(ids)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            gids, owner = gids[order], owner[order]
            borders = {name: mask[order] for name, mask in borders.items()}
            routed, src, dst = rank[routed], rank[src], rank[dst]
        by_lid = stable_order(routed, max(len(gids), 1))
        routed, peers = routed[by_lid], peers[by_lid]
        #: integer ids only: the ids in ascending order and, once a merge
        #: folded appended nodes in, the lid at each position
        self._sorted_gids = None if ids is None else gids
        self._sorted_lids: Optional[np.ndarray] = None
        #: the sorted index as a table indexed by id, where it is dense
        self._lid_table = id_table(self._sorted_gids)
        #: id -> lid of the integer-id nodes appended since
        self._recent: Dict[Node, int] = {}
        #: nodes and edge rows the fragment was made with, and its lids in
        #: graph-position order (``None``: lid order)
        self._initial = len(gids), len(src), rank
        self._nodes = _Columns(gids=gids, owner=owner,
                               owned_mask=owner == frag.fid)
        #: the four border masks; ``None`` once in-place growth added
        #: nodes or edges, until somebody reads :attr:`borders`
        self._borders: Optional[Dict[str, np.ndarray]] = dict(borders)
        #: the routing index, sorted by lid, and lid -> peers of the
        #: pairs appended since it was last sorted
        self._pairs = _Columns(routed=routed, peers=peers)
        self._new_pairs: Dict[int, List[int]] = {}
        #: lids from here on have no sorted pairs yet
        self._paired = len(gids)
        self._edges = _Columns(src=src, dst=dst, weights=graph.weights)
        #: edge rows the last merge (or the build) had seen
        self._merged_edges = len(src)
        #: the spill as the two accessors read it: arrays, made when an
        #: array wave asks, and per tail lid the (heads, weights) lists,
        #: for a wave over a handful of lids (outgoing, incoming; one
        #: dict when undirected)
        self._spill: Optional[Spill] = None
        self._spilled_out: Dict[int, Tuple[List[int], List[float]]] = {}
        self._spilled_in = self._spilled_out if not self.directed else {}
        self.csr: Optional[CompactGraph] = None
        #: merges so far
        self.merges = 0
        if listed:
            self._dict_order = rank

    # -- the per-lid columns, live rows --------------------------------
    gids = property(lambda self: self._nodes["gids"])
    owner = property(lambda self: self._nodes["owner"])
    owned_mask = property(lambda self: self._nodes["owned_mask"])
    mirror_mask = property(lambda self: ~self._nodes["owned_mask"])
    routed = property(lambda self: self._sorted_pairs()["routed"])
    peers = property(lambda self: self._sorted_pairs()["peers"])

    @property
    def borders(self) -> Dict[str, np.ndarray]:
        """Per name in :data:`BORDER_SETS`, the mask of its members: what
        the builder handed over, and after in-place growth (edge-cut
        only) what the edge rows and the owners say — a cut edge puts its
        owned end in a border set and its mirror end in a copies set,
        outgoing or incoming; an undirected one both."""
        if self._borders is None:
            src, dst = self._edges["src"], self._edges["dst"]
            owned = self.owned_mask
            cut = self.owner[src] != self.owner[dst]
            leaving, entering = cut & owned[src], cut & owned[dst]
            members = dict(out_border=src[leaving], out_copies=dst[leaving],
                           in_border=dst[entering], in_copies=src[entering])
            if not self.directed:
                for out, inc in zip(*_WAYS):
                    members[out] = members[inc] = np.concatenate(
                        (members[out], members[inc]))
            self._borders = {}
            for name in BORDER_SETS:
                self._borders[name] = np.zeros(len(self), dtype=bool)
                self._borders[name][members[name]] = True
        return self._borders

    @property
    def capacity(self) -> int:
        """Rows every per-lid column has room for before it is moved."""
        return self._nodes.capacity

    @property
    def num_edges(self) -> int:
        return self._edges.size

    @property
    def spilled(self) -> int:
        """Edge rows appended since the last merge."""
        return self._edges.size - self._merged_edges

    @property
    def merge_threshold(self) -> int:
        """A merge is due once :attr:`spilled` exceeds this."""
        return max(MERGE_FLOOR, int(self._merged_edges * MERGE_FRACTION))

    def __len__(self) -> int:
        return self._nodes.size

    # -- id -> lid -----------------------------------------------------
    def lid(self, v: Node) -> Optional[int]:
        """The local id of node ``v``, ``None`` when it is not local:
        one ``dict`` probe where somebody built ``lid_of`` (a resident
        service does, for the handful of lookups every epoch makes), a
        binary search otherwise."""
        index = self._sorted_gids
        if index is None or "lid_of" in vars(self):
            return self.lid_of.get(v)
        lid = self._recent.get(v)
        if lid is not None or not len(index) or not (
                type(v) is int or isinstance(v, numbers.Real)):
            return lid
        at = min(int(index.searchsorted(v)), len(index) - 1)
        if index.item(at) != v:
            return None
        return at if self._sorted_lids is None else self._sorted_lids.item(at)

    def lids_for(self, gids: np.ndarray) -> np.ndarray:
        """Vectorized global-id -> lid lookup; ``-1`` for non-local ids
        (integer ids only)."""
        gids = np.asarray(gids, dtype=np.int64)
        if gids.size <= FEW_LOOKUPS:
            return np.array([-1 if lid is None else lid
                             for lid in map(self.lid, gids.tolist())],
                            dtype=np.int64)
        index = self._sorted_gids
        if self._lid_table is not None:
            low, table = self._lid_table
            at = gids - low
            lids = table.take(at, mode="clip")
            # below the table an offset is negative: as unsigned, too big
            lids[at.view(np.uint64) >= table.size] = -1
        elif not len(index):
            lids = np.full(gids.shape, -1, dtype=np.int64)
        else:
            lids = index.searchsorted(gids)
            absent = index.take(lids, mode="clip") != gids
            if self._sorted_lids is not None:
                lids = self._sorted_lids.take(lids, mode="clip")
            lids[absent] = -1
        if self._recent:
            for k in np.flatnonzero(lids < 0).tolist():
                lids[k] = self._recent.get(int(gids[k]), -1)
        return lids

    def peers_of(self, lid: int) -> List[int]:
        """The routing index at one lid: the other fragments the node
        resides on, unordered."""
        more = self._new_pairs.get(lid, [])
        if lid >= self._paired:  # appended since the pairs were sorted
            return list(more)
        routed = self._pairs["routed"]
        lo, hi = routed.searchsorted(lid), routed.searchsorted(lid, "right")
        return self._pairs["peers"][lo:hi].tolist() + more

    # -- edges ---------------------------------------------------------
    def out_edges(self, frontier: Optional[np.ndarray] = None,
                  weighted: bool = True,
                  at_source: Optional[np.ndarray] = None) -> tuple:
        """``(source lid, target lid, weight)`` per edge leaving the lids
        ``frontier`` (``None``: every edge), base ranges first, then the
        spill; ``at_source[source lid]`` in place of the source lid when
        a per-lid array is passed (:func:`~repro.graph.csr.
        frontier_edges`)."""
        return csr_module.frontier_edges(self.csr, self._spill_rows(),
                                         frontier, False, weighted,
                                         at_source)

    def in_edges(self, frontier: Optional[np.ndarray] = None,
                 weighted: bool = True,
                 at_source: Optional[np.ndarray] = None) -> tuple:
        """:meth:`out_edges` over the reverse adjacency."""
        return csr_module.frontier_edges(self.csr, self._spill_rows(),
                                         frontier, True, weighted, at_source)

    def edges_of(self, lid: int, reverse: bool = False) -> tuple:
        """:meth:`out_edges` (:meth:`in_edges` with ``reverse``) of one
        lid: ``(targets, weights)`` of the base edges as array slices,
        then of the spill rows as lists
        (:func:`~repro.graph.csr.node_edges`)."""
        return csr_module.node_edges(
            self.csr, self._spilled_in if reverse else self._spilled_out,
            lid, reverse)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether an edge row runs from node ``u`` to node ``v`` (either
        way when undirected); ``False`` when one is not local.  Needs the
        CSR.  An edge row is in the spill rows of both its ends or in the
        CSR rows of both, so one spill row and one CSR row
        (:meth:`~repro.graph.csr.CompactGraph.has_edge`) answer it."""
        lid_of = vars(self).get("lid_of")  # a resident service built it
        lid = self.lid if lid_of is None else lid_of.get
        tail, head = lid(u), lid(v)
        if tail is None or head is None:
            return False
        more = self._spilled_out.get(tail)
        return bool(more) and head in more[0] or \
            self.csr.has_edge(tail, head)

    def _spill_rows(self) -> Optional[Spill]:
        """The edge rows appended since the CSR was built, each stored
        direction a row, as arrays."""
        if self._spill is None and self.spilled:
            done, edges = self._merged_edges, self._edges
            src, dst, wgt = (edges[name][done:]
                             for name in ("src", "dst", "weights"))
            if not self.directed:  # both ways, as the CSR stores them
                src, dst, wgt = (np.concatenate(pair) for pair in (
                    (src, dst), (dst, src), (wgt, wgt)))
            self._spill = Spill(src, dst, wgt,
                                np.zeros(self.capacity, dtype=bool))
        return self._spill

    def out_degrees(self) -> np.ndarray:
        """Per lid, how many edges :meth:`out_edges` yields for it."""
        degrees = np.zeros(len(self), dtype=np.int64)
        degrees[:self.csr.num_nodes] = np.diff(self.csr.out_indptr)
        if self.spilled:
            degrees += np.bincount(self._spill_rows().tail,
                                   minlength=len(self))
        return degrees

    # -- growth --------------------------------------------------------
    def reserve(self) -> None:
        """Make room for growth now rather than while the first batch
        waits: every column moves to twice its size (what the first
        append would do)."""
        for columns in (self._nodes, self._edges, self._pairs):
            columns.reserve(2 * max(columns.size, 1))

    def add_nodes(self, ids: List[Node], owners: List[int]) -> None:
        """Append local nodes; they take the next lids, in order."""
        if self._sorted_gids is not None and not all(
                type(v) is int and 0 <= v < 2 ** 63 for v in ids) \
                and integer_ids(np.fromiter(ids, object, len(ids))) is None:
            self._stop_sorting(ids)
        fid = self.fragment.fid
        self._borders = None
        first = self._nodes.extend(
            gids=ids, owner=owners, owned_mask=[f == fid for f in owners])
        lids = range(first, first + len(ids))
        if self._sorted_gids is not None:
            self._recent.update(zip(ids, lids))
        have = vars(self)
        if "lid_of" in have:
            have["lid_of"].update(zip(ids, lids))
        if "nodes" in have:
            have["nodes"].extend(ids)

    def _stop_sorting(self, ids: Sequence[Node]) -> None:
        """An id that is no non-negative integer arrives: from here on
        the fragment looks ids up in ``lid_of``, like one made with such
        ids — unless it has a CSR, which somebody computes on."""
        if self.csr is not None:
            raise PartitionError(
                f"fragment {self.fragment.fid}: dense view requires "
                f"non-negative integer node ids, got {first_bad_id(ids)!r}")
        self._nodes.replace("gids", np.fromiter(
            self.gids.tolist(), object, len(self)))
        self._sorted_gids = self._sorted_lids = self._lid_table = None
        self._recent = {}

    def add_edges(self, src: Sequence[int], dst: Sequence[int],
                  weights: Sequence[float]) -> None:
        """Append edge rows over lids; with a CSR they are its spill."""
        self._edges.extend(src=src, dst=dst, weights=weights)
        self._borders = None
        if self.csr is not None:
            self._spill = None
            for spilled, tails, heads in (
                    (self._spilled_out, src, dst),
                    (self._spilled_in, dst, src)):
                for tail, head, weight in zip(tails, heads, weights):
                    row = spilled.get(tail)
                    if row is None:
                        row = spilled[tail] = ([], [])
                    row[0].append(head)
                    row[1].append(weight)

    def add_routes(self, lid: int, peers: Iterable[int]) -> None:
        """Append ``(lid, peer)`` pairs to the routing index."""
        self._new_pairs.setdefault(lid, []).extend(peers)

    def _sorted_pairs(self) -> _Columns:
        """The routing pairs with the appended ones sorted in."""
        pairs = self._pairs
        if self._new_pairs:
            for lid, peers in self._new_pairs.items():
                pairs.extend(routed=[lid] * len(peers), peers=peers)
            self._new_pairs = {}
            self._paired = len(self)
            by_lid = stable_order(pairs["routed"], max(len(self), 1))
            for name in ("routed", "peers"):
                pairs[name][:] = pairs[name][by_lid]
        return pairs

    def merge(self) -> None:
        """Fold what growth appended into the sorted structures: the
        spill into the CSR (one key sort per stored adjacency), the
        appended ids into the lookup index and its lid table, the
        appended pairs into the sorted pairs.  O(fragment); lids do not
        change, what was memoized on the fragment goes (the graph it
        holds does not change: not a growth)."""
        self.fragment.invalidate_caches(grown=False)
        self._sorted_pairs()
        if self._recent:
            gids = self.gids
            self._sorted_lids = np.argsort(gids, kind="stable")
            self._sorted_gids = gids[self._sorted_lids]
            self._lid_table = id_table(self._sorted_gids, self._sorted_lids)
            self._recent = {}
        if self.csr is None:
            self._merged_edges = self._edges.size
        else:
            self._build_csr()
        self.merges += 1

    def _build_csr(self) -> None:
        edges = self._edges
        if edges["weights"].dtype != np.float64:
            edges.replace("weights", np.asarray(edges["weights"],
                                                dtype=np.float64))
        try:
            self.csr = CompactGraph.from_arrays(
                len(self), edges["src"], edges["dst"], edges["weights"],
                self.directed)
        except GraphError as exc:
            raise PartitionError(
                f"fragment {self.fragment.fid}: dense view {exc}") from None
        self._merged_edges, self._spill = edges.size, None
        self._spilled_out.clear()
        self._spilled_in.clear()


def _node_set(mask_of: Callable[[FragmentCSR], np.ndarray]
              ) -> Callable[["Fragment"], Set[Node]]:
    """Builder of the set of local nodes a mask of the array form picks."""
    def build(frag: "Fragment") -> Set[Node]:
        view = frag._arrays
        return set(view.gids[mask_of(view)].tolist())
    return build


def _border_set(name: str) -> Callable[["Fragment"], Set[Node]]:
    return _node_set(lambda view: view.borders[name])


def _runs(view: FragmentCSR, lids: np.ndarray, fids: np.ndarray
          ) -> Iterator[Tuple[Node, Tuple[int, ...]]]:
    """Per distinct lid of the pairs ``(lids[k], fids[k])``: the node and
    its fragment ids, ascending."""
    by_lid = np.lexsort((fids, lids))
    lids, fids = lids[by_lid], fids[by_lid]
    first = np.ones(lids.size, dtype=bool)  # of each node's run of pairs
    first[1:] = lids[1:] != lids[:-1]
    starts = np.flatnonzero(first)
    return grouped_tuples(view.gids[lids[starts]], starts,
                          np.diff(starts, append=lids.size), fids)


def _routing_index(frag: "Fragment") -> Dict[Node, Tuple[int, ...]]:
    view = frag._arrays
    return dict(_runs(view, view.routed, view.peers))


def _dict_graph(frag: "Fragment") -> Graph:
    """The dict graph over the arrays: its node, adjacency and ``edges()``
    order is that of adding the initial nodes, then the edges, one by one."""
    view = frag._arrays
    n, edges, first = len(view), view._edges, view._dict_order
    lids = np.arange(n) if first is None \
        else np.concatenate((first, np.arange(len(first), n)))
    at = np.argsort(lids)  # lid -> position in the dict graph's order
    return GraphArrays(view.gids[lids].astype(object), at[edges["src"]],
                       at[edges["dst"]], edges["weights"], view.directed,
                       view.labels, True).to_graph()


class Fragment:
    """One fragment of a partitioned graph, resident at one virtual worker."""

    # plain sets: in-place growth only ever adds members
    # (repro.partition.grow); nobody else may mutate them
    owned = built_on_read(_node_set(lambda view: view.owned_mask))
    mirrors = built_on_read(_node_set(lambda view: view.mirror_mask))
    in_border = built_on_read(_border_set("in_border"))
    out_border = built_on_read(_border_set("out_border"))
    out_copies = built_on_read(_border_set("out_copies"))
    in_copies = built_on_read(_border_set("in_copies"))
    _routing = built_on_read(_routing_index)
    #: the local dict graph, materialised from the array form on first
    #: read
    graph = built_on_read(_dict_graph)
    built = _any_built(*_CONTAINERS)
    #: whether the dict graph has been built
    materialised = _any_built("graph")

    def __init__(self, fid: int, graph: GraphArrays, arrays: NodeArrays,
                 cut: str = "edge"):
        """The fragment the array-native builder makes: its sets, its
        routing index and its dict graph are built from the arrays when
        someone reads them."""
        self.fid = fid
        self.cut = cut
        #: the builder hands each fragment its peers; growth adds to them
        self._peers: Set[int] = set(distinct_fids(arrays.peers))
        self._memo: Optional[Dict] = None
        #: bumped by every in-place growth (:meth:`invalidate_caches`): a
        #: process that forked a copy of this fragment holds the same
        #: graph only while the number it forked with is current
        self.version = 0
        #: the array form, for life
        self._arrays = FragmentCSR(self, graph, arrays)
        self._validate_arrays()

    def _validate_arrays(self) -> None:
        """Every border node is owned and every copy is a mirror (one
        owner per node, so owned and mirrors cannot overlap)."""
        view = self._arrays
        for name, allowed, complaint in (
                ("in_border", view.owned_mask, "border node {!r} not owned"),
                ("out_border", view.owned_mask, "border node {!r} not owned"),
                ("out_copies", view.mirror_mask, "copy {!r} not a mirror"),
                ("in_copies", view.mirror_mask, "copy {!r} not a mirror")):
            bad = view.borders[name] & ~allowed
            if bad.any():
                raise PartitionError(f"fragment {self.fid}: " + complaint
                                     .format(view.gids[bad].tolist()[0]))

    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        return self._arrays.directed

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

        Handed over by the builder (runtimes rebuild their queues from
        this on every run); in-place growth adds the peers it creates.
        """
        return self._peers

    def compact(self) -> FragmentCSR:
        """The array form with its CSR built (on first use; the
        vectorized path asks per context, so later calls are free).
        Raises :class:`~repro.errors.PartitionError` unless node ids are
        non-negative integers."""
        view = self._arrays
        if view.csr is None:
            with built_on_read._FIRST_READ:
                if view.csr is None:
                    if view._sorted_gids is None:
                        raise PartitionError(
                            f"fragment {self.fid}: dense view requires "
                            "non-negative integer node ids, got "
                            f"{first_bad_id(view.gids)!r}")
                    view._build_csr()
        return view

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Memoize partition-derived data on this fragment.

        Engines cache routing masks here (keyed by program class),
        kernels their per-fragment arrays (out-degrees, the rows a full
        sweep reads): pure functions of the partition that would
        otherwise be rebuilt per engine or per round.  Callers must treat
        cached objects as immutable; growth drops them first
        (:meth:`invalidate_caches`), and only then does an engine kept
        over the partition patch the masks it holds
        (:meth:`~repro.core.engine.Engine.refresh_routes`).
        """
        if self._memo is None:
            self._memo = {}
        try:
            return self._memo[key]
        except KeyError:
            value = build()
            self._memo[key] = value
            return value

    def invalidate_caches(self, grown: bool = True) -> None:
        """Drop every memoized function of the partition: the fragment
        grew in place (or, ``grown=False``, merged what it grew).

        :func:`repro.partition.grow.grow_edge_cut` grows the array form
        and patches the containers itself; routing masks and kernel
        arrays are what is left.  An engine kept over the partition
        patches its own routing from the growth report
        (:meth:`~repro.core.engine.Engine.refresh_routes`); the next
        engine states the rule on the grown arrays.  A growth also bumps
        :attr:`version`, so a resident worker pool forked before it is
        not used again (:mod:`repro.runtime.multiprocess`).
        """
        self._memo = None
        if grown:
            self.version += 1

    @property
    def num_local_edges(self) -> int:
        return self._arrays.num_edges

    def num_edges_from_owned(self) -> int:
        """Local edges whose stored source endpoint is owned here.  Under
        edge-cut both copies of a cut edge keep one orientation, so this
        counts every edge of the graph in exactly one fragment."""
        view = self._arrays
        return int(np.count_nonzero(view.owned_mask[view._edges["src"]]))

    def _node_counts(self) -> Tuple[int, int]:
        """``(owned, mirrors)`` sizes, without building the sets."""
        view = self._arrays
        owned = int(np.count_nonzero(view.owned_mask))
        return owned, len(view) - owned

    @property
    def size(self) -> int:
        """Fragment size ``|F_i|`` (nodes + edges), used for skew ratio r."""
        return len(self._arrays) + self.num_local_edges

    def __repr__(self) -> str:
        owned, mirrors = self._node_counts()
        return (f"Fragment(fid={self.fid}, owned={owned}, "
                f"mirrors={mirrors}, edges={self.num_local_edges})")


def _placement(pg: "PartitionedGraph") -> Dict[Node, Tuple[int, ...]]:
    """A node resides on its owner and wherever the routing index of the
    owner's copy says — read off the fragments' arrays, so in-place growth
    before the first read is in it."""
    placement = {v: (fid,) for v, fid in pg.owner.items()}
    for frag in pg.fragments:
        view = frag._arrays
        mine = view.owned_mask[view.routed]
        routed, peers = view.routed[mine], view.peers[mine]
        shared = np.flatnonzero(np.bincount(routed, minlength=len(view)))
        placement.update(_runs(
            view, np.concatenate((routed, shared)),
            np.concatenate((peers, np.full(shared.size, frag.fid)))))
    return placement


class PartitionedGraph:
    """A graph partitioned into fragments ``(F_1, ..., F_m)``.

    Provides the global placement map (node -> fragments where it resides)
    and owner lookup used by the engine and by ``Assemble``.
    """

    #: node -> the fragment that owns it; grown in place
    owner = built_on_read(lambda pg: dict(zip(
        *(column.tolist() for column in vars(pg).pop("_assignment")))))
    #: node -> fragments where it resides, ascending; grown in place
    placement = built_on_read(_placement)
    built = _any_built("placement")

    def __init__(self, fragments: Sequence[Fragment],
                 owner: Dict[Node, int] | Tuple[np.ndarray, np.ndarray],
                 strategy_name: str, cut: str):
        """What the array-native builder makes.  ``owner`` (a map, or the
        nodes and their owners as two arrays, made into one when read)
        becomes the partition's own and gives :attr:`placement` its order;
        where every node resides is read off the fragments when asked."""
        self.cut = cut
        self.fragments: List[Fragment] = list(fragments)
        setattr(self, "owner" if isinstance(owner, dict) else "_assignment",
                owner)
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

    @property
    def directed(self) -> bool:
        return self.fragments[0].directed

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the partitioned graph has edge ``(u, v)``, asked of the
        one fragment that must hold a copy of it, ``u``'s owner's: from
        its edge rows where it has a CSR (a lid probe per end and a scan
        of one row, spill included), else from its dict graph (what the
        generic engine reads, so already built there).  Edge-cut only:
        a vertex-cut edge need not be at its tail's master."""
        if self.cut != "edge":
            raise PartitionError(
                f"has_edge reads an edge-cut partition, got {self.cut!r}")
        owner = self.owner
        fid = owner.get(u)
        if fid is None or v not in owner:  # a brand-new end
            return False
        frag = self.fragments[fid]
        view = frag._arrays
        return frag.graph.has_edge(u, v) if view.csr is None \
            else view.has_edge(u, v)

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
