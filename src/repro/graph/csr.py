"""Compact CSR graph backend (numpy) for large inputs.

:class:`CompactGraph` stores a graph with integer node ids ``0..n-1`` in
compressed-sparse-row form (``indptr``/``indices``/``weights`` arrays plus
the reverse adjacency).  It implements the read-side API of
:class:`repro.graph.graph.Graph` (``nodes``, ``out_edges``, ``in_edges``,
``edges``, degrees, ``has_node``/``has_edge``, ``weight``), so the
sequential reference algorithms in :mod:`repro.graph.analysis` and the
partitioners run on it unchanged — at a fraction of the dict-of-lists
memory for multi-million-edge graphs.

CompactGraph is immutable; build one with :meth:`from_edges` or
:meth:`from_graph`, or convert back with :meth:`to_graph`.
"""

from __future__ import annotations

from itertools import chain
from typing import (Any, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph

Edge = Tuple[int, int, float]
#: a CSR row up to this long is scanned as a Python list
#: (:meth:`CompactGraph.has_edge`); a numpy ``in`` costs more below it
_SHORT_ROW = 16
_EDGE_RECORD = np.dtype([("u", object), ("v", object), ("w", object)])


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenated ranges ``[s, s+c)`` — vectorized.

    The ragged-range expansion used by every CSR kernel: given per-node
    slice starts and lengths, produce the flat edge-index array without a
    Python loop.  Output position ``p`` of range ``i`` holds ``p`` plus
    that range's offset, ``starts[i]`` minus where the range begins in
    the output: one ``repeat`` of the offsets plus one ``arange``.
    That is half the calls of a scatter + cumsum over the output (which
    must drop empty ranges first), so it is the faster form at the
    frontier sizes a wave has (docs/performance.md, ledger entry 29).
    The array methods, not their ``np.`` wrappers: a wave is a few
    dozen edges, where a wrapper's call costs as much as its work.
    """
    if starts.size == 1:  # one range: a frontier of one node
        return np.arange(starts[0], starts[0] + counts[0], dtype=np.int64)
    ends = counts.cumsum()
    return ((starts - (ends - counts)).repeat(counts)
            + np.arange(ends[-1] if ends.size else 0, dtype=np.int64))


class Spill(NamedTuple):
    """Edges appended to a graph since its CSR was built: the overflow
    adjacency :func:`frontier_edges` reads after the sorted base."""

    #: one row per stored direction — an undirected edge has two, as in
    #: the CSR — in arrival order; may name nodes the CSR does not have
    tail: np.ndarray
    head: np.ndarray
    weights: np.ndarray
    #: boolean scratch over all nodes, all ``False`` between calls
    member: np.ndarray


def frontier_edges(csr: "CompactGraph", spill: Optional[Spill],
                   frontier: Optional[np.ndarray] = None,
                   reverse: bool = False, weighted: bool = True,
                   at_source: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``(source, target, weight)`` per edge leaving the nodes ``frontier``
    (entering them, with ``reverse``; ``None``: every node) — the one way
    a dense kernel reads adjacency.  ``frontier`` is ascending.  A kernel
    asks only for the columns it reads: with ``weighted=False`` the
    weights are ``None``, and a kernel that reads a per-node array at
    each edge's source passes it as ``at_source`` and gets
    ``at_source[source]`` in place of the source column.  A frontier's
    base rows are grouped by source, so either column is one
    ``np.repeat`` over the range lengths — of the frontier, or of
    ``at_source`` at the frontier — and no per-edge source column is
    gathered (or built: :attr:`CompactGraph.out_sources` is the
    sweep's).

    Base edges come first, in CSR order: the frontier's ranges through
    :func:`expand_ranges`.  Then the ``spill`` rows with their tail in
    the frontier (``None`` when nothing was appended, which costs
    nothing).  The scan is one gather over the spill, whatever the
    frontier's size; spill rows are read through the tails they carry.
    """
    if reverse:
        indptr, targets, weights = (csr.in_indptr, csr.in_indices,
                                    csr.in_weights)
    else:
        indptr, targets, weights = (csr.out_indptr, csr.out_indices,
                                    csr.out_weights)
    if frontier is None:
        sources = csr.in_sources if reverse else csr.out_sources
        if at_source is not None:
            sources = at_source[sources]
        weights = weights if weighted else None
    else:
        inside = frontier
        if spill is not None and frontier.size \
                and frontier[-1] >= csr.num_nodes:
            # appended nodes have no base range
            inside = frontier[:np.searchsorted(frontier, csr.num_nodes)]
        starts = indptr[inside]
        counts = indptr[inside + 1] - starts
        at = expand_ranges(starts, counts)
        sources = (inside if at_source is None
                   else at_source[inside]).repeat(counts)
        targets = targets[at]
        weights = weights[at] if weighted else None
    if spill is None:
        return sources, targets, weights
    tail, head, wgt, member = spill
    if reverse and csr.directed:
        tail, head = head, tail
    if frontier is not None:
        member[frontier] = True
        hit = member[tail].nonzero()[0]
        member[frontier] = False
        if not hit.size:
            return sources, targets, weights
        tail, head, wgt = tail[hit], head[hit], wgt[hit]
    if at_source is not None:
        tail = at_source[tail]
    return (np.concatenate((sources, tail)), np.concatenate((targets, head)),
            np.concatenate((weights, wgt)) if weighted else None)


_NO_ROWS = np.empty(0, dtype=np.int64), np.empty(0)


def node_edges(csr: "CompactGraph",
               spilled: Mapping[int, Tuple[List[int], List[float]]],
               node: int, reverse: bool = False
               ) -> Tuple[np.ndarray, np.ndarray, Sequence[int],
                          Sequence[float]]:
    """:func:`frontier_edges` of one node — what a wave over a handful
    of nodes loops over: ``(targets, weights)`` of its base edges as
    array slices, then of its spill rows as lists.  ``spilled`` maps a
    node to the lists of its spill rows (in the direction asked for)."""
    more = spilled.get(node) or ((), ())
    if node >= csr.num_nodes:  # appended: it has spill rows only
        return (*_NO_ROWS, *more)
    if reverse:
        indptr, indices, weights = (csr.in_indptr, csr.in_indices,
                                    csr.in_weights)
    else:
        indptr, indices, weights = (csr.out_indptr, csr.out_indices,
                                    csr.out_weights)
    lo, hi = indptr.item(node), indptr.item(node + 1)
    return (indices[lo:hi], weights[lo:hi], *more)


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in
    ``[0, bound)``, as one in-place sort.

    ``key * E + position`` is distinct per entry and orders by key, then
    by position, so an unstable sort of it is the stable order and
    ``% E`` reads the permutation back: one pass over ``int64`` values
    instead of a merge sort that carries an index array along.  Where
    ``bound * E`` does not fit ``int64`` the stable ``argsort`` stays.
    """
    count = len(keys)
    if bound * count > np.iinfo(np.int64).max:
        return np.argsort(keys, kind="stable")
    packed = np.multiply(keys, count, dtype=np.int64)
    packed += np.arange(count, dtype=np.int64)
    packed.sort()
    packed %= max(count, 1)
    return packed


def integer_ids(nodes: np.ndarray) -> Optional[np.ndarray]:
    """The node ids ``nodes`` (an object array) as ``int64`` when every
    one is a non-negative integer — what a CSR over sorted ids needs —
    else ``None``."""
    # one type check per distinct type, one sign check on the array
    kinds = set(map(type, nodes.tolist()))
    if bool in kinds or not all(
            issubclass(kind, (int, np.integer)) for kind in kinds):
        return None
    try:
        ids = nodes.astype(np.int64)
    except OverflowError:  # an id beyond int64
        return None
    return None if (ids < 0).any() else ids


def first_bad_id(nodes: Iterable[Any]) -> Any:
    """The first node id :func:`integer_ids` rejects."""
    return next(v for v in nodes if isinstance(v, bool)
                or not isinstance(v, (int, np.integer))
                or not 0 <= v < 2 ** 63)


#: An id -> position map is a table indexed by id while the ids span at
#: most this many ids per node (8 bytes an id, so at most 32 bytes per
#: node; a hash partition into m fragments spans ~m / (1 + mirror share)
#: ids per node), and a ``searchsorted`` where they are sparser, so
#: nothing is ever sized by an id.  The table is ~2.5 ns an id where
#: ``searchsorted`` is ~27 (docs/performance.md, ledger entry 11).
LID_TABLE_SPAN = 4


def id_table(ids: Optional[np.ndarray], at: Optional[np.ndarray] = None
             ) -> Optional[Tuple[int, np.ndarray]]:
    """``(lowest id, table)`` with ``table[v - lowest id]`` the position
    of id ``v`` in the distinct integer ``ids`` (``at`` at that position,
    when given; -1 where there is none) — or ``None`` when they span more
    than :data:`LID_TABLE_SPAN` ids per id (or there are none)."""
    if ids is None or not len(ids):
        return None
    low = int(ids.min())
    span = int(ids.max()) - low + 1
    if span > LID_TABLE_SPAN * len(ids):
        return None
    table = np.full(span, -1, dtype=np.int64)
    table[ids - low] = np.arange(len(ids)) if at is None else at
    return low, table


class CompactGraph:
    """Immutable CSR graph over integer node ids ``0..num_nodes-1``.

    Undirected, one CSR holds each edge both ways and is the reverse
    adjacency too (the ``in_`` arrays are the ``out_`` ones): node
    ``x``'s in-row is its out-row, edges given as ``(x, y)`` first.
    Directed, :meth:`from_arrays` leaves the in-rows to their first read
    (push kernels never read them).
    """

    __slots__ = ("directed", "_n", "_indptr", "_indices", "_weights",
                 "_reverse", "_edge_rows", "_num_edges", "_src_out",
                 "_src_in")

    def __init__(self, num_nodes: int, indptr: np.ndarray,
                 indices: np.ndarray, weights: np.ndarray,
                 rindptr: Optional[np.ndarray], rindices: np.ndarray,
                 rweights: np.ndarray, directed: bool, num_edges: int):
        self.directed = directed
        self._n = num_nodes
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        #: the in-rows; ``None``: sorted from ``_edge_rows`` when first read
        self._reverse = None if rindptr is None \
            else (rindptr, rindices, rweights)
        self._edge_rows: Optional[Tuple[np.ndarray, ...]] = None
        self._num_edges = num_edges
        self._src_out: Optional[np.ndarray] = None
        self._src_in: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Edge],
                   directed: bool = True) -> "CompactGraph":
        """Build from ``(u, v, weight)`` triples over ids ``0..n-1``.

        Duplicate edges are kept as parallel entries (unlike ``Graph``,
        which collapses them) — deduplicate upstream if needed.
        """
        edge_list = list(edges)
        count = len(edge_list)
        return cls.from_arrays(
            num_nodes,
            np.fromiter((e[0] for e in edge_list), np.int64, count),
            np.fromiter((e[1] for e in edge_list), np.int64, count),
            np.fromiter((e[2] for e in edge_list), np.float64, count),
            directed)

    @classmethod
    def from_arrays(cls, num_nodes: int, src: np.ndarray, dst: np.ndarray,
                    wgt: np.ndarray, directed: bool = True
                    ) -> "CompactGraph":
        """:meth:`from_edges` over edge arrays (``int64`` endpoints,
        ``float64`` weights): same checks, same CSR, no Python pass."""
        bad = ((src < 0) | (src >= num_nodes) | (dst < 0)
               | (dst >= num_nodes) | (src == dst))
        if bad.any():
            at = bad.argmax()
            u, v = int(src[at]), int(dst[at])
            if u == v and 0 <= u < num_nodes:
                raise GraphError(f"self-loops are not supported: {u}")
            raise GraphError(
                f"edge ({u}, {v}) out of range 0..{num_nodes - 1}")
        num_edges = len(src)
        if not directed:
            src, dst = (np.concatenate((src, dst)),
                        np.concatenate((dst, src)))
            wgt = np.concatenate((wgt, wgt))
        out = cls._build_csr(num_nodes, src, dst, wgt)
        graph = cls(num_nodes, *out, *((None,) * 3 if directed else out),
                    directed, num_edges=num_edges)
        if directed:
            graph._edge_rows = src, dst, wgt
        return graph

    @staticmethod
    def _build_csr(n: int, src: np.ndarray, dst: np.ndarray,
                   wgt: np.ndarray):
        order = stable_order(src, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst[order], wgt[order]

    @classmethod
    def from_graph(cls, g: Graph) -> "CompactGraph":
        """Convert a :class:`Graph` whose node ids are ``0..n-1`` ints."""
        ids, _, csr = GraphArrays.of(g).to_csr()
        if ids.tolist() != list(range(len(ids))):
            raise GraphError(
                "CompactGraph requires contiguous integer node ids "
                "0..n-1; relabel first")
        return csr

    def to_graph(self) -> Graph:
        """Materialise back into a mutable dict-based :class:`Graph`."""
        return GraphArrays.of(self).to_graph()

    # ------------------------------------------------------------------
    # Graph read API
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> range:
        return range(self._n)

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_node(self, v) -> bool:
        return isinstance(v, (int, np.integer)) and 0 <= v < self._n

    def _check(self, v) -> None:
        if not self.has_node(v):
            raise GraphError(f"unknown node: {v!r}")

    # -- zero-copy array accessors (vectorized fast paths) -------------
    out_indptr = property(lambda self: self._indptr)
    out_indices = property(lambda self: self._indices)
    out_weights = property(lambda self: self._weights)
    in_indptr = property(lambda self: self._in_rows()[0])
    in_indices = property(lambda self: self._in_rows()[1])
    in_weights = property(lambda self: self._in_rows()[2])

    def _in_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._reverse is None:  # two first readers sort the same rows
            src, dst, wgt = self._edge_rows
            self._reverse = self._build_csr(self._n, dst, src, wgt)
        return self._reverse

    @property
    def out_sources(self) -> np.ndarray:
        """Per-edge tail node: ``out_sources[e]`` is the source of the
        edge stored at flat index ``e`` of ``out_indices``.

        Built lazily once per graph and cached, for what reads every edge
        (a sweep of :func:`frontier_edges`, :meth:`edge_arrays`); a
        frontier's rows get theirs by one ``np.repeat`` instead.
        """
        if self._src_out is None:
            self._src_out = np.repeat(
                np.arange(self._n, dtype=np.int64),
                np.diff(self._indptr))
        return self._src_out

    @property
    def in_sources(self) -> np.ndarray:
        """Per-edge head node of the reverse adjacency (see
        :attr:`out_sources`); :attr:`out_sources` itself when
        undirected."""
        if not self.directed:
            return self.out_sources
        if self._src_in is None:
            self._src_in = np.repeat(
                np.arange(self._n, dtype=np.int64),
                np.diff(self.in_indptr))
        return self._src_in

    def out_arrays(self, v) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(indices, weights)`` views of ``v``'s out-edges.

        Unlike :meth:`out_edges` this materialises no Python objects —
        callers that consume numpy directly skip the ``tolist()+zip``
        cost entirely.  The views are read-only slices of the CSR arrays;
        do not mutate them.
        """
        self._check(v)
        lo, hi = self._indptr[v], self._indptr[v + 1]
        return self._indices[lo:hi], self._weights[lo:hi]

    def in_arrays(self, v) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(indices, weights)`` views of ``v``'s in-edges."""
        self._check(v)
        indptr, indices, weights = self._in_rows()
        lo, hi = indptr[v], indptr[v + 1]
        return indices[lo:hi], weights[lo:hi]

    def out_edges(self, v) -> List[Tuple[int, float]]:
        self._check(v)
        lo, hi = self._indptr[v], self._indptr[v + 1]
        return list(zip(self._indices[lo:hi].tolist(),
                        self._weights[lo:hi].tolist()))

    def in_edges(self, v) -> List[Tuple[int, float]]:
        indices, weights = self.in_arrays(v)
        return list(zip(indices.tolist(), weights.tolist()))

    def neighbors(self, v) -> Iterator[int]:
        for u, _ in self.out_edges(v):
            yield u

    def out_degree(self, v) -> int:
        self._check(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def in_degree(self, v) -> int:
        return len(self.in_arrays(v)[0])

    def has_edge(self, u, v) -> bool:
        """A scan of ``u``'s row — undirected, of the shorter of the two
        rows, which both hold the edge."""
        if not (self.has_node(u) and self.has_node(v)):
            return False
        at = self._indptr.item
        lo, hi = at(u), at(u + 1)
        if not self.directed and hi - lo > _SHORT_ROW \
                and at(v + 1) - at(v) < hi - lo:
            lo, hi, v = at(v), at(v + 1), u
        row = self._indices[lo:hi]
        # a short row is scanned as a list: a numpy ``in`` is all overhead
        return v in (row.tolist() if hi - lo <= _SHORT_ROW else row)

    def weight(self, u, v) -> float:
        self._check(u)
        self._check(v)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        hits = np.nonzero(self._indices[lo:hi] == v)[0]
        if hits.size == 0:
            raise GraphError(f"unknown edge: ({u!r}, {v!r})")
        return float(self._weights[lo + hits[0]])

    def node_label(self, v, default=None):
        return default

    def node_labels(self) -> dict:
        return {}

    def edges(self) -> Iterator[Edge]:
        """Each stored edge once (canonical ``u <= v`` for undirected)."""
        return zip(*(a.tolist() for a in self.edge_arrays()))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`edges` as ``(src, dst, weights)`` arrays, in its order."""
        src, dst, wgt = self.out_sources, self._indices, self._weights
        if self.directed:
            return src, dst, wgt
        once = src <= dst
        return src[once], dst[once], wgt[once]

    # ------------------------------------------------------------------
    def __contains__(self, v) -> bool:
        return self.has_node(v)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"CompactGraph({kind}, nodes={self._n}, "
                f"edges={self._num_edges})")


class GraphArrays(NamedTuple):
    """A graph as plain arrays: the hand-over format between backends.

    The generators collect their graphs into one of these, the partition
    build cuts fragments out of one and hands each fragment another, and
    :meth:`to_graph` is the :class:`Graph` over one: a generated graph, a
    fragment's dict graph.
    """

    #: node objects, in ``g.nodes`` order (object array)
    nodes: np.ndarray
    #: per edge, in ``g.edges()`` order: positions in ``nodes``
    src: np.ndarray
    dst: np.ndarray
    #: the weight objects (``float64`` from a generator or a CompactGraph)
    weights: np.ndarray
    directed: bool
    labels: Mapping[Any, Any]
    #: whether undirected edges are oriented the way a dict :class:`Graph`
    #: keys them (``repr(u) <= repr(v)``), which its ``edges()`` yield
    is_keyed: bool
    #: the node ids as ``int64`` where :func:`integer_ids` accepts them
    #: all, ``None`` where not or not known: the one id census of a build
    ids: Optional[np.ndarray] = None

    @classmethod
    def of(cls, g) -> "GraphArrays":
        """``g`` (any backend) as arrays, node labels not included.

        A graph made over arrays, and a :class:`CompactGraph`, hand theirs
        over as they are (no edge pass, no id census).  A dict graph over
        ids :func:`integer_ids` accepts has no Python step per edge: its
        edge keys stream into ``int64`` endpoints, which become positions
        by :func:`id_table` (``searchsorted`` where it declines).  Any
        other dict graph costs one streamed pass over ``edges()`` (into a
        record array, so the collector never sees ``|E|`` tuples).
        """
        arrays = getattr(g, "_arrays", g)  # GraphArrays: g itself
        if isinstance(arrays, GraphArrays):
            return arrays
        node_list = list(g.nodes)
        nodes = np.fromiter(node_list, dtype=object, count=len(node_list))
        if isinstance(g, CompactGraph):  # unchecked if made from raw arrays
            src, dst, wgt = g.edge_arrays()
            loops = src == dst
            if loops.any():
                raise GraphError("self-loops are not supported: "
                                 f"{int(src[loops.argmax()])}")
            return cls(nodes, src, dst, wgt, g.directed, {}, g.directed,
                       np.arange(len(nodes), dtype=np.int64))
        ids = integer_ids(nodes)
        if ids is None:
            edges = np.fromiter(g.edges(), dtype=_EDGE_RECORD,
                                count=g.num_edges)
            index = {v: i for i, v in enumerate(node_list)}
            src, dst = (np.fromiter(map(index.__getitem__, edges[end]),
                                    np.int64, len(edges)) for end in "uv")
            return cls(nodes, src, dst, np.ascontiguousarray(edges["w"]),
                       g.directed, {}, True)
        keys, weights = g.edge_views()
        ends = np.fromiter(chain.from_iterable(keys), np.int64, 2 * len(keys))
        where = id_table(ids)
        if where is None:
            order = np.argsort(ids)
            ends = order[ids[order].searchsorted(ends)]
        else:
            low, table = where
            ends = table[ends - low]
        src, dst = ends.reshape(-1, 2).T.copy()
        return cls(nodes, src, dst, np.fromiter(weights, object, len(keys)),
                   g.directed, {}, True, ids)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def keyed(self) -> "GraphArrays":
        """Edges in the orientation a dict :class:`Graph` stores them in:
        what :meth:`to_graph`, and a CSR that is to equal the dict
        graph's, must be made from."""
        if self.is_keyed:
            return self
        # one repr per node; numpy compares them as Python does
        text = np.array(list(map(repr, self.nodes.tolist())), dtype=str)
        flip = text[self.src] > text[self.dst]
        return self._replace(src=np.where(flip, self.dst, self.src),
                             dst=np.where(flip, self.src, self.dst),
                             is_keyed=True)

    def extended(self, edges: Sequence[Tuple[Any, Any, float]]
                 ) -> "GraphArrays":
        """These arrays plus ``edges`` ``(u, v, weight)``: their
        :meth:`to_graph` is what :meth:`Graph.add_novel_edges` of the
        endpoints in edge order, then the edges, makes of this one's —
        an endpoint that is no node yet is appended where it first
        appears — and no dict of either is made.  The edges must be
        novel and loop-free (not checked)."""
        if not edges:
            return self
        n = len(self.nodes)
        at = dict(zip(self.nodes.tolist(), range(n)))
        ends = np.fromiter((at.setdefault(v, len(at)) for edge in edges
                            for v in edge[:2]), np.int64, 2 * len(edges))
        fresh = list(at)[n:]
        src, dst = ends[0::2], ends[1::2]
        if not self.directed and self.is_keyed:
            # orient the new ones as the dict graph keys them
            flip = np.fromiter((repr(u) > repr(v) for u, v, _ in edges),
                               bool, len(edges))
            src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
        nodes = np.fromiter(fresh, object, len(fresh))
        ids = self.ids
        if ids is not None:
            more = integer_ids(nodes)
            ids = None if more is None else np.concatenate((ids, more))
        weights = np.fromiter((edge[2] for edge in edges),
                              self.weights.dtype, len(edges))
        return self._replace(
            nodes=np.concatenate((self.nodes, nodes)),
            src=np.concatenate((self.src, src)),
            dst=np.concatenate((self.dst, dst)),
            weights=np.concatenate((self.weights, weights)), ids=ids)

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray, CompactGraph]:
        """The node ids in ascending order, each node's rank in that
        order and the CSR graph over the ranks; the ids must be
        non-negative integers."""
        ids = self.ids if self.ids is not None else integer_ids(self.nodes)
        if ids is None:
            raise GraphError("requires non-negative integer node ids, "
                             f"got {first_bad_id(self.nodes)!r}")
        order = np.argsort(ids)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return ids[order], rank, CompactGraph.from_arrays(
            order.size, rank[self.src], rank[self.dst],
            np.asarray(self.weights, dtype=np.float64), self.directed)

    def to_graph(self) -> Graph:
        """The :class:`Graph` over these arrays (the one way a graph is
        made from arrays): its dicts, built on the first read that needs
        them, are what adding the nodes, then the edges, one by one
        gives."""
        g = Graph.__new__(Graph)
        g.directed, g._num_edges, g._arrays = (self.directed, self.num_edges,
                                               self.keyed())
        return g
