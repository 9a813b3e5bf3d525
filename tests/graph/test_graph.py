"""Unit tests for the property graph structure."""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro.errors import GraphError
from repro.graph.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert len(g) == 0

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(1)
        g.add_node(1)
        assert g.num_nodes == 1

    def test_add_edge_adds_endpoints(self):
        g = Graph()
        g.add_edge(1, 2, 3.5)
        assert g.has_node(1) and g.has_node(2)
        assert g.num_edges == 1
        assert g.weight(1, 2) == 3.5

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_parallel_edge_collapsed(self):
        g = Graph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(1, 2, 9.0)
        assert g.num_edges == 1
        assert g.weight(1, 2) == 9.0
        # adjacency weight rewritten too
        assert dict(g.out_edges(1))[2] == 9.0

    def test_node_labels(self):
        g = Graph()
        g.add_node("a", label={"kind": "user"})
        assert g.node_label("a") == {"kind": "user"}
        assert g.node_label("a", default=None) is not None
        g.set_node_label("a", "x")
        assert g.node_label("a") == "x"

    def test_set_label_unknown_node(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.set_node_label("nope", 1)

    def test_edge_labels(self):
        g = Graph(directed=True)
        g.add_edge(1, 2, label="road")
        assert g.edge_label(1, 2) == "road"
        assert g.edge_label(2, 1, default="none") == "none"


class TestDirectedness:
    def test_directed_adjacency(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        assert [u for u, _ in g.out_edges(1)] == [2]
        assert g.out_edges(2) == []
        assert [u for u, _ in g.in_edges(2)] == [1]

    def test_undirected_adjacency_mirrored(self):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        assert [u for u, _ in g.out_edges(2)] == [1]
        assert g.out_degree(1) == g.in_degree(1) == 1

    def test_undirected_edge_key_symmetric(self):
        g = Graph(directed=False)
        g.add_edge(2, 1, 4.0)
        assert g.has_edge(1, 2)
        assert g.weight(1, 2) == 4.0
        assert g.num_edges == 1

    def test_edges_iterates_once(self):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        assert len(list(g.edges())) == 2


class TestAccessErrors:
    def test_unknown_node_out_edges(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.out_edges(42)

    def test_unknown_edge_weight(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        with pytest.raises(GraphError):
            g.weight(1, 2)


class TestDerived:
    def test_subgraph_preserves_properties(self):
        g = Graph(directed=True)
        g.add_node(1, label="a")
        g.add_edge(1, 2, 2.0, label="e")
        g.add_edge(2, 3, 1.0)
        sub = g.subgraph([1, 2])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.node_label(1) == "a"
        assert sub.edge_label(1, 2) == "e"

    def test_subgraph_unknown_node(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.subgraph([99])

    def test_subgraph_keeps_graph_node_order(self):
        g = Graph(directed=False)
        for u, v in [(5, 1), (1, 9), (9, 3)]:
            g.add_edge(u, v)
        assert list(g.subgraph([3, 5, 9]).nodes) == [5, 9, 3]
        with pytest.raises(GraphError, match="unknown node: 99"):
            g.subgraph([5, 99])

    def test_subgraph_order_ignores_the_hash_seed(self):
        """String ids iterate a ``set`` in an order the interpreter's hash
        salt picks; the subgraph's node order (what a partition build
        inserts, and so a CSR's lids) must not follow it."""
        orders = [_subgraph_nodes_with_hashseed(seed) for seed in (1, 2, 3)]
        assert orders[0] == orders[1] == orders[2] == ["a", "b", "c", "d"]

    def test_reverse(self):
        g = Graph(directed=True)
        g.add_edge(1, 2, 5.0)
        rev = g.reverse()
        assert rev.has_edge(2, 1)
        assert not rev.has_edge(1, 2)
        assert rev.weight(2, 1) == 5.0

    def test_reverse_undirected_is_copy(self):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        assert g.reverse() == g

    def test_as_undirected(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        und = g.as_undirected()
        assert und.num_edges == 1
        assert not und.directed

    def test_as_undirected_keeps_edge_labels(self):
        """As ``reverse`` and ``subgraph`` do; where both ``(u, v)`` and
        ``(v, u)`` exist the first in ``edges()`` order gives the label,
        as it gives the weight."""
        g = Graph(directed=True)
        g.add_node(1, label="a")
        g.add_edge(1, 2, 3.0, label="road")
        g.add_edge(2, 1, 4.0, label="back")
        g.add_edge(3, 2, 1.0)
        g.add_edge(2, 4, 2.0, label="rail")
        und = g.as_undirected()
        assert und.edge_label(1, 2) == und.edge_label(2, 1) == "road"
        assert und.weight(2, 1) == 3.0
        assert und.edge_label(3, 2) is None
        assert und.edge_label(4, 2) == "rail"
        assert und.node_label(1) == "a"

    def test_copy_independent(self):
        g = Graph()
        g.add_edge(1, 2)
        dup = g.copy()
        dup.add_edge(2, 3)
        assert g.num_edges == 1
        assert dup.num_edges == 2

    @pytest.mark.parametrize("directed", [True, False])
    def test_copy_equals_replay(self, directed):
        g = Graph(directed=directed)
        g.add_node("lonely", label="x")
        for u, v, w in [(3, 1, 1.0), (1, 2, 2.0), (10, 9, 1.0), (3, 1, 5.0)]:
            g.add_edge(u, v, w, label=f"{u}-{v}")
        dup = g.copy()
        assert list(dup.nodes) == list(g.nodes)
        assert list(dup.edges()) == list(g.edges())
        for v in g.nodes:
            assert dup.out_edges(v) == g.out_edges(v)
            assert dup.out_edges(v) is not g.out_edges(v)
            assert dup.in_edges(v) == g.in_edges(v)
        assert dup.node_label("lonely") == "x"
        assert dup.edge_label(3, 1) == "3-1"
        assert dup.num_edges == g.num_edges == 3

    @pytest.mark.parametrize("directed", [True, False])
    def test_add_novel_edges_equals_one_by_one(self, directed):
        edges = [(3, 1, 1.0), (1, 2, 2.0), (10, 9, 1.0), (2, 3, 2.0)]
        one = Graph(directed=directed)
        one.add_edge(1, 7, 4.0)  # bulk insert extends a graph in use
        bulk = one.copy()
        for v in (5, 1):
            one.add_node(v)
        for u, v, w in edges:
            one.add_edge(u, v, w)
        keyed = [one._edge_key(u, v) for u, v, _ in edges]
        bulk.add_novel_edges([5, 1, 3, 2, 10, 9], [k[0] for k in keyed],
                             [k[1] for k in keyed], [e[2] for e in edges])
        assert list(bulk.nodes) == list(one.nodes)
        assert list(bulk.edges()) == list(one.edges())
        for v in one.nodes:
            assert bulk.out_edges(v) == one.out_edges(v)
            assert bulk.in_edges(v) == one.in_edges(v)
        assert bulk.num_edges == one.num_edges
        assert bulk.has_edge(10, 9) and bulk.weight(2, 3) == 2.0
        assert bulk.has_edge(9, 10) == (not directed)
        with pytest.raises(GraphError, match="novel"):
            bulk.add_novel_edges([], [1], [7], [1.0])

    def test_equality(self):
        a = Graph(directed=False)
        a.add_edge(1, 2, 3.0)
        b = Graph(directed=False)
        b.add_edge(2, 1, 3.0)
        assert a == b
        c = Graph(directed=True)
        c.add_edge(1, 2, 3.0)
        assert a != c


SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])

_SUBGRAPH_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.graph.graph import Graph
g = Graph(directed=False)
for u, v in zip("abcde", "bcdea"):
    g.add_edge(u, v)
print(json.dumps(list(g.subgraph(["a", "b", "c", "d"]).nodes)))
"""


def _subgraph_nodes_with_hashseed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    out = subprocess.run([sys.executable, "-c", _SUBGRAPH_PROBE, SRC_DIR],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _one_of_each_change(directed):
    """A graph after every way of changing it: ``add_node``, ``add_edge``,
    ``add_novel_edges`` and a weight rewrite."""
    g = Graph(directed=directed)
    g.add_node("lonely")
    g.add_edge(1, 2, 1.0)
    g.add_edge(3, 1, 2.0)
    g.add_novel_edges([4, 5], [2, 1], [4, 5], [3.0, 4.0])
    g.add_edge(1, 2, 7.5)  # rewrites the stored weight both ways
    return g


class TestOneAdjacency:
    """An undirected graph's in-lists are its out-lists; a directed
    graph keeps two."""

    @pytest.mark.parametrize("how", ["built", "copy", "pickle"])
    def test_undirected_in_edges_are_out_edges(self, how):
        g = _one_of_each_change(directed=False)
        if how == "copy":
            g = g.copy()
        elif how == "pickle":
            g = pickle.loads(pickle.dumps(g))
        assert g._radj is g._adj
        for v in g.nodes:
            assert g.in_edges(v) is g.out_edges(v)
        assert g.out_edges(1) == [(2, 7.5), (3, 2.0), (5, 4.0)]
        assert g.in_edges(2) == [(1, 7.5), (4, 3.0)]
        g.add_edge(6, 1, 0.5)  # the alias outlives further changes
        assert g.in_edges(6) is g.out_edges(6) == [(1, 0.5)]
        assert g.in_edges(1)[-1] == (6, 0.5)

    def test_undirected_rows_are_what_four_lists_held(self):
        """Same entries, same order as when every edge was stored in both
        an out-list and an in-list of each endpoint."""
        g = _one_of_each_change(directed=False)
        out, inc = {v: [] for v in g.nodes}, {v: [] for v in g.nodes}
        for u, v, w in g.edges():
            out[u].append((v, w))
            inc[v].append((u, w))
            out[v].append((u, w))
            inc[u].append((v, w))
        for v in g.nodes:
            assert g.out_edges(v) == out[v] == inc[v]

    @pytest.mark.parametrize("directed", [True, False])
    def test_copy_shares_no_list(self, directed):
        g = _one_of_each_change(directed)
        dup = g.copy()
        lists = {id(row) for adj in (g._adj, g._radj) for row in adj.values()}
        assert not lists & {id(row) for adj in (dup._adj, dup._radj)
                            for row in adj.values()}
        dup.add_edge(1, 4, 9.0)
        assert not g.has_edge(1, 4)
        assert (4, 9.0) not in g.out_edges(1)
        assert (1, 9.0) not in g.in_edges(4)

    @pytest.mark.parametrize("how", ["built", "copy", "pickle"])
    def test_directed_keeps_two_lists(self, how):
        g = _one_of_each_change(directed=True)
        if how == "copy":
            g = g.copy()
        elif how == "pickle":
            g = pickle.loads(pickle.dumps(g))
        assert g._radj is not g._adj
        for v in g.nodes:
            assert g.in_edges(v) is not g.out_edges(v)
        assert g.out_edges(1) == [(2, 7.5), (5, 4.0)]
        assert g.in_edges(1) == [(3, 2.0)]
        assert g.in_edges(2) == [(1, 7.5)]
        assert g.out_edges(2) == [(4, 3.0)]
        assert g.in_edges("lonely") == g.out_edges("lonely") == []
