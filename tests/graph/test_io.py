"""Tests for graph serialisation."""

import pytest

from repro.errors import GraphError
from repro.graph import generators, io
from repro.graph.graph import Graph


class TestEdgeList:
    def test_roundtrip_directed(self, tmp_path):
        g = generators.rmat(5, edge_factor=3, seed=1)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path)
        assert back == g

    def test_roundtrip_undirected_weighted(self, tmp_path):
        g = generators.grid2d(4, 4, weighted=True, seed=2)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path)
        assert back == g
        assert not back.directed

    @pytest.mark.parametrize("directed", [True, False])
    def test_roundtrip_keeps_node_order(self, tmp_path, directed):
        """Fragment lids and CSR rows follow ``g.nodes``: a graph loaded
        back partitions as the one written.  This R-MAT graph has isolated
        nodes, and nodes that first appear in a late edge."""
        g = generators.rmat(6, edge_factor=2, directed=directed, seed=3)
        assert any(g.out_degree(v) == g.in_degree(v) == 0 for v in g.nodes)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path)
        assert list(back.nodes) == list(g.nodes)
        assert list(back.edges()) == list(g.edges())
        for v in g.nodes:
            assert back.out_edges(v) == g.out_edges(v)
            assert back.in_edges(v) == g.in_edges(v)

    def test_files_listing_isolated_nodes_last_still_read(self, tmp_path):
        path = tmp_path / "old.txt"
        path.write_text("# directed: true\n3 1 2.0\n1 2 1.0\n7\n")
        g = io.read_edge_list(path)
        assert list(g.nodes) == [3, 1, 2, 7]
        assert list(g.edges()) == [(3, 1, 2.0), (1, 2, 1.0)]

    def test_directed_override(self, tmp_path):
        g = Graph(directed=False)
        g.add_edge(1, 2)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        forced = io.read_edge_list(path, directed=True)
        assert forced.directed

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3 4 5\n")
        with pytest.raises(GraphError):
            io.read_edge_list(path)

    def test_string_nodes(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# directed: true\nalice bob 2.0\n")
        g = io.read_edge_list(path)
        assert g.has_edge("alice", "bob")

    def test_blank_lines_and_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# directed: false\n\n# comment\n1 2\n")
        g = io.read_edge_list(path)
        assert g.num_edges == 1
