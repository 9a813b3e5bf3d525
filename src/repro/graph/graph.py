"""Property graph data structure.

The paper operates on graphs ``G = (V, E, L)``, directed or undirected, where
nodes and edges may carry labels (properties).  :class:`Graph` is a small,
explicit adjacency-list structure sized for simulation workloads (up to a few
hundred thousand edges).  It is deliberately mutable only during construction;
the engine treats graphs as read-only once partitioned.

A graph made over arrays (``GraphArrays.to_graph``: every generator's) answers
node, size, degree, ``edges()`` and label reads from them, builds its dicts on
the first read that needs them (:class:`built_on_read`), and drops the arrays
at its first mutation.

Node identifiers are arbitrary hashables, though the generators in
:mod:`repro.graph.generators` use integers.  Edge weights default to ``1.0``.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator,
                    KeysView, List, Optional, Sequence, Tuple, ValuesView)

import numpy as np

from repro.errors import GraphError

Node = Hashable
Edge = Tuple[Node, Node]


class built_on_read:
    """An attribute that ``build(obj)`` makes on its first read.

    A non-data descriptor: the value is stored in the instance
    ``__dict__``, which shadows it, so it is reached on a miss only and
    plain assignment (in-place growth) works as on any object.  First
    reads race (threaded workers share a partition): a miss looks again
    under ``_FIRST_READ``.
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


#: the dict containers an array-born graph builds on first read
_DICTS = ("_adj", "_radj", "_node_labels", "_edge_weights", "_edge_labels")


def _dict_containers(g: "Graph") -> Dict[str, Any]:
    """All five dict containers of an array-born graph, made at once
    through :meth:`Graph.add_novel_edges` and published together, so a
    reader of one finds the others complete."""
    arrays, made = g._arrays, Graph(g.directed)
    nodes = arrays.nodes
    made.add_novel_edges(nodes.tolist(), nodes[arrays.src].tolist(),
                         nodes[arrays.dst].tolist(), arrays.weights.tolist())
    for v, label in arrays.labels.items():
        made.set_node_label(v, label)
    vars(g).update((name, vars(made)[name]) for name in _DICTS)
    return vars(made)


def _degree_counts(arrays) -> Tuple[np.ndarray, np.ndarray]:
    """Out- and in-degree per node position of a graph's arrays."""
    out, inc = (np.bincount(end, minlength=len(arrays.nodes))
                for end in (arrays.src, arrays.dst))
    return (out, inc) if arrays.directed else (out + inc,) * 2


class Graph:
    """A directed or undirected property graph: made empty here and filled
    by the mutators, or over arrays by ``GraphArrays.to_graph`` (see the
    module docstring).

    Parameters
    ----------
    directed:
        If ``True`` edges are one-way; otherwise each added edge is traversable
        in both directions (stored once, mirrored in adjacency), and the
        graph keeps one adjacency: ``in_edges(v) is out_edges(v)``.
    """

    # node -> [(neighbour, weight)] out / in (one dict when undirected),
    # labels, edge key -> weight: made on first read when array-born
    _adj, _radj, _node_labels, _edge_weights, _edge_labels = (
        built_on_read(lambda g, name=name: _dict_containers(g)[name])
        for name in _DICTS)
    #: a dict keyed by the nodes, in order: ``_adj``, or node -> position
    #: while the graph is array-born
    _nodes = built_on_read(lambda g: dict(zip(
        g._arrays.nodes.tolist(), range(len(g._arrays.nodes)))))
    #: out- and in-degree per node position while the graph is array-born
    _degrees = built_on_read(lambda g: _degree_counts(g._arrays))

    def __init__(self, directed: bool = True):
        self.directed = directed
        self._adj: Dict[Node, List[Tuple[Node, float]]] = {}
        self._radj: Dict[Node, List[Tuple[Node, float]]] = \
            {} if directed else self._adj
        self._node_labels: Dict[Node, Any] = {}
        self._edge_weights: Dict[Edge, float] = {}
        self._edge_labels: Dict[Edge, Any] = {}
        self._num_edges = 0
        self._nodes = self._adj
        #: what an array-born graph reads from until its first mutation
        self._arrays = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _mutable(self) -> None:
        """Before a mutation: the dicts (built if need be) are the graph."""
        if self._arrays is not None:
            self._nodes = self._adj  # the read builds the five dicts
            self._arrays = None
            vars(self).pop("_degrees", None)

    def add_node(self, v: Node, label: Any = None) -> None:
        """Add node ``v`` (idempotent); optionally set its label."""
        self._mutable()
        if v not in self._adj:
            self._adj[v] = []
            self._radj.setdefault(v, [])  # undirected: already there
        if label is not None:
            self._node_labels[v] = label

    def add_edge(self, u: Node, v: Node, weight: float = 1.0,
                 label: Any = None) -> None:
        """Add edge ``(u, v)`` with ``weight``.

        Endpoints are added implicitly.  Parallel edges are collapsed: adding
        an existing edge overwrites its weight and label.
        """
        if u == v:
            raise GraphError(f"self-loops are not supported: {u!r}")
        self.add_node(u)
        self.add_node(v)
        key = self._edge_key(u, v)
        if key not in self._edge_weights:
            self._adj[u].append((v, weight))
            self._radj[v].append((u, weight))
            self._num_edges += 1
        elif weight != self._edge_weights[key]:
            self._rewrite_weight(u, v, weight)
        self._edge_weights[key] = weight
        if label is not None:
            self._edge_labels[key] = label

    def add_novel_edges(self, nodes: Iterable[Node], us: Sequence[Node],
                        vs: Sequence[Node], ws: Sequence[float]) -> None:
        """Bulk insert: ``nodes`` (idempotent, in order), then the edges
        ``zip(us, vs, ws)`` in order — what the same calls to
        :meth:`add_node` and :meth:`add_edge` would leave, without the
        per-edge checks.

        The caller guarantees what :meth:`add_edge` checks edge by edge:
        every endpoint is in ``nodes`` or already present, no self-loops,
        no edge already present or repeated, and undirected edges
        oriented the way :meth:`edges` of a :class:`Graph` yields them
        (``repr(u) <= repr(v)``).  A repeated edge is detected afterwards
        and raises :class:`~repro.errors.GraphError`; the graph must be
        discarded then.
        """
        self._mutable()
        adj, radj = self._adj, self._radj
        for v in nodes:
            if v not in adj:
                adj[v] = []
                radj.setdefault(v, [])
        for u, v, w in zip(us, vs, ws):
            adj[u].append((v, w))
            radj[v].append((u, w))
        self._edge_weights.update(zip(zip(us, vs), ws))
        self._num_edges += len(us)
        if len(self._edge_weights) != self._num_edges:
            raise GraphError("bulk insert requires novel edges")

    def _rewrite_weight(self, u: Node, v: Node, weight: float) -> None:
        """Update the stored adjacency weight of an existing edge."""
        self._adj[u] = [(w, weight if w == v else wt)
                        for w, wt in self._adj[u]]
        self._radj[v] = [(w, weight if w == u else wt)
                         for w, wt in self._radj[v]]

    def _edge_key(self, u: Node, v: Node) -> Edge:
        if self.directed:
            return (u, v)
        # canonical order for undirected edges so (u,v) == (v,u)
        return (u, v) if repr(u) <= repr(v) else (v, u)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Iterable[Node]:
        return self._nodes.keys()

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_node(self, v: Node) -> bool:
        return v in self._nodes

    def has_edge(self, u: Node, v: Node) -> bool:
        return self._edge_key(u, v) in self._edge_weights

    def out_edges(self, v: Node) -> List[Tuple[Node, float]]:
        """Outgoing ``(neighbour, weight)`` pairs of ``v``."""
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown node: {v!r}") from None

    def in_edges(self, v: Node) -> List[Tuple[Node, float]]:
        """Incoming ``(neighbour, weight)`` pairs of ``v``."""
        try:
            return self._radj[v]
        except KeyError:
            raise GraphError(f"unknown node: {v!r}") from None

    def neighbors(self, v: Node) -> Iterator[Node]:
        for u, _ in self.out_edges(v):
            yield u

    def out_degree(self, v: Node) -> int:
        return self._degree(v, 0)

    def in_degree(self, v: Node) -> int:
        return self._degree(v, 1)

    def _degree(self, v: Node, way: int) -> int:
        if self._arrays is None:
            return len((self.out_edges, self.in_edges)[way](v))
        at = self._nodes.get(v)
        if at is None:
            raise GraphError(f"unknown node: {v!r}")
        return int(self._degrees[way][at])

    def weight(self, u: Node, v: Node) -> float:
        try:
            return self._edge_weights[self._edge_key(u, v)]
        except KeyError:
            raise GraphError(f"unknown edge: ({u!r}, {v!r})") from None

    def node_label(self, v: Node, default: Any = None) -> Any:
        return self._node_labels.get(v, default)

    def node_labels(self) -> Dict[Node, Any]:
        """Every labelled node with its label (a copy)."""
        return dict(self._node_labels if self._arrays is None
                    else self._arrays.labels)

    def set_node_label(self, v: Node, label: Any) -> None:
        self._mutable()
        if v not in self._adj:
            raise GraphError(f"unknown node: {v!r}")
        self._node_labels[v] = label

    def edge_label(self, u: Node, v: Node, default: Any = None) -> Any:
        return self._edge_labels.get(self._edge_key(u, v), default)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate over edges once each as ``(u, v, weight)``.

        For undirected graphs each edge appears once in canonical order.
        """
        arrays = self._arrays
        if arrays is None:
            return ((u, v, w) for (u, v), w in self._edge_weights.items())
        nodes = arrays.nodes
        return zip(nodes[arrays.src].tolist(), nodes[arrays.dst].tolist(),
                   arrays.weights.tolist())

    def edge_views(self) -> Tuple[KeysView[Edge], ValuesView[float]]:
        """:meth:`edges` as live views of the edge dict: the ``(u, v)``
        keys and the weights, in its order (for ``np.fromiter``)."""
        return self._edge_weights.keys(), self._edge_weights.values()

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Induced subgraph over ``nodes``, in this graph's node order
        (labels and weights preserved)."""
        keep = set(nodes)
        for v in keep:
            if not self.has_node(v):
                raise GraphError(f"unknown node: {v!r}")
        sub = Graph(directed=self.directed)
        for v in self.nodes:
            if v in keep:
                sub.add_node(v, self._node_labels.get(v))
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w,
                             self._edge_labels.get(self._edge_key(u, v)))
        return sub

    def reverse(self) -> "Graph":
        """Graph with all edges reversed (identity for undirected graphs)."""
        if not self.directed:
            return self.copy()
        rev = Graph(directed=True)
        for v in self.nodes:
            rev.add_node(v, self._node_labels.get(v))
        for u, v, w in self.edges():
            rev.add_edge(v, u, w, self._edge_labels.get((u, v)))
        return rev

    def as_undirected(self) -> "Graph":
        """Undirected view copy of this graph, labels kept (of ``(u, v)``
        and ``(v, u)`` the first in :meth:`edges` gives weight and label)."""
        und = Graph(directed=False)
        for v in self.nodes:
            und.add_node(v, self._node_labels.get(v))
        for u, v, w in self.edges():
            if not und.has_edge(u, v):
                und.add_edge(u, v, w, self._edge_labels.get((u, v)))
        return und

    def copy(self) -> "Graph":
        """An independent copy; an array-born one shares the arrays."""
        if self._arrays is not None:
            return self._arrays.to_graph()
        dup = Graph(directed=self.directed)
        dup._adj = {v: list(out) for v, out in self._adj.items()}
        dup._radj = {v: list(inc) for v, inc in self._radj.items()} \
            if self.directed else dup._adj
        dup._nodes = dup._adj
        dup._node_labels = dict(self._node_labels)
        dup._edge_weights = dict(self._edge_weights)
        dup._edge_labels = dict(self._edge_labels)
        dup._num_edges = self._num_edges
        return dup

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __contains__(self, v: Node) -> bool:
        return v in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, nodes={self.num_nodes}, edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.directed == other.directed
                and set(self.nodes) == set(other.nodes)
                and self._edge_weights == other._edge_weights)

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)
