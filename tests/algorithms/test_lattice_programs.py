"""Tests for reachability, the fuzzer's ``Max``-lattice PIE program."""

import pytest

from repro import api
from repro.algorithms import ReachabilityProgram, ReachQuery
from repro.core.convergence import verify_conditions
from repro.core.modes import MODES
from repro.graph import analysis, generators
from repro.graph.graph import Graph
from repro.partition.edge_cut import HashPartitioner
from repro.partition.vertex_cut import GreedyVertexCutPartitioner


class TestReachability:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_bfs(self, small_grid, mode):
        r = api.run(ReachabilityProgram(), small_grid, ReachQuery(source=0),
                    num_fragments=4, mode=mode)
        assert r.answer == set(analysis.bfs_levels(small_grid, 0))

    def test_directed_respects_direction(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 0)
        r = api.run(ReachabilityProgram(), g, ReachQuery(source=0),
                    num_fragments=2)
        assert r.answer == {0, 1}

    def test_disconnected(self):
        g = generators.path_graph(6)
        g.add_edge(100, 101)
        r = api.run(ReachabilityProgram(), g, ReachQuery(source=0),
                    num_fragments=3)
        assert 100 not in r.answer
        assert r.answer == set(range(6))

    def test_vertex_cut(self, small_powerlaw):
        pg = GreedyVertexCutPartitioner(seed=1).partition(small_powerlaw, 4)
        r = api.run(ReachabilityProgram(), pg, ReachQuery(source=0))
        assert r.answer == set(analysis.bfs_levels(small_powerlaw, 0))

    def test_conditions_hold(self, small_powerlaw):
        pg = HashPartitioner().partition(small_powerlaw, 4)
        report = verify_conditions(ReachabilityProgram(), pg,
                                   ReachQuery(source=0), runs=3)
        assert report.ok
