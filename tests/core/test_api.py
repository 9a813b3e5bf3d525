"""Tests for the top-level convenience API."""

import pytest

from repro import api, compare_modes, partition_graph, run
from repro.algorithms import CCProgram, CCQuery, CFProgram, CFQuery, \
    SSSPProgram, SSSPQuery
from repro.core.delay import APPolicy
from repro.core.modes import MODES
from repro.errors import RuntimeConfigError
from repro.graph import analysis, generators
from repro.partition.edge_cut import BfsPartitioner
from repro.partition.fragment import PartitionedGraph
from repro.runtime.costmodel import CostModel


class TestPartitionGraph:
    def test_default_hash(self, small_grid):
        pg = partition_graph(small_grid, 4)
        assert isinstance(pg, PartitionedGraph)
        assert pg.num_fragments == 4
        assert pg.strategy_name == "hash"

    def test_custom_partitioner(self, small_grid):
        pg = partition_graph(small_grid, 3, BfsPartitioner(seed=1))
        assert pg.strategy_name == "bfs"


class TestRun:
    def test_accepts_graph(self, small_grid):
        r = run(CCProgram(), small_grid, CCQuery(), num_fragments=3)
        assert r.answer == analysis.connected_components(small_grid)

    def test_accepts_partition(self, partitioned_grid, small_grid):
        r = run(CCProgram(), partitioned_grid, CCQuery())
        assert r.answer == analysis.connected_components(small_grid)

    def test_rejects_other_types(self):
        with pytest.raises(RuntimeConfigError):
            run(CCProgram(), "not a graph", CCQuery())

    def test_policy_overrides_mode(self, small_grid):
        r = run(CCProgram(), small_grid, CCQuery(), mode="BSP",
                policy=APPolicy())
        assert r.mode == "AP"

    def test_mode_recorded(self, small_grid):
        r = run(CCProgram(), small_grid, CCQuery(), mode="SSP")
        assert r.mode == "SSP"

    def test_bounded_staleness_auto_applied(self):
        g, _, _ = generators.bipartite_ratings(30, 10, 5, seed=1)
        # CF declares needs_bounded_staleness; run() must inject the bound
        r = run(CFProgram(), g, CFQuery(epochs=3), num_fragments=3,
                mode="AAP")
        assert r.answer["rmse"] >= 0.0  # ran to completion

    def test_aap_policy_kwargs(self, small_grid):
        r = run(SSSPProgram(), small_grid, SSSPQuery(source=0),
                mode="AAP", l_bottom=2, dt_fraction=0.3)
        assert r.answer[99] == analysis.dijkstra(small_grid, 0)[99]


class TestCompareModes:
    def test_all_modes_by_default(self, partitioned_powerlaw):
        results = compare_modes(CCProgram, partitioned_powerlaw, CCQuery())
        assert set(results) == set(MODES)

    def test_subset_of_modes(self, partitioned_powerlaw):
        results = compare_modes(CCProgram, partitioned_powerlaw, CCQuery(),
                                modes=("BSP", "AAP"))
        assert set(results) == {"BSP", "AAP"}

    def test_accepts_raw_graph(self, small_grid):
        results = compare_modes(CCProgram, small_grid, CCQuery(),
                                num_fragments=3, modes=("AP",))
        assert results["AP"].answer == analysis.connected_components(
            small_grid)

    def test_cost_model_factory_fresh_per_mode(self, partitioned_grid):
        built = []

        def factory():
            cm = CostModel(seed=1)
            built.append(cm)
            return cm

        compare_modes(CCProgram, partitioned_grid, CCQuery(),
                      modes=("BSP", "AP"), cost_model_factory=factory)
        assert len(built) == 2
        assert built[0] is not built[1]

    def test_answers_identical_across_modes(self, partitioned_powerlaw,
                                            small_powerlaw):
        results = compare_modes(CCProgram, partitioned_powerlaw, CCQuery())
        answers = [r.answer for r in results.values()]
        assert all(a == answers[0] for a in answers)
