"""Unit tests for the property graph structure."""

import pytest

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
