"""Integration: every parallel model computes the same (correct) answers.

This is the operational content of Theorem 2: BSP, AP, SSP, AAP and Hsync
runs of a monotone PIE program all converge to the reference result,
regardless of cost model, partitioner, or straggler placement.
"""

import pytest

from repro import api
from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.core.modes import MODES
from repro.fuzz.cell import bsp_schedule
from repro.graph import analysis, generators
from repro.partition.edge_cut import (BfsPartitioner, GreedyLdgPartitioner,
                                      HashPartitioner)
from repro.runtime.costmodel import CostModel


class TestModeAgreement:
    def test_sssp_all_modes_all_partitioners(self, weighted_powerlaw):
        ref = analysis.dijkstra(weighted_powerlaw, 0)
        for partitioner in (HashPartitioner(), BfsPartitioner(seed=1),
                            GreedyLdgPartitioner(seed=1)):
            pg = partitioner.partition(weighted_powerlaw, 5)
            results = api.compare_modes(SSSPProgram, pg,
                                        SSSPQuery(source=0))
            for mode, r in results.items():
                for v in ref:
                    assert r.answer[v] == pytest.approx(ref[v]), \
                        f"{mode}/{partitioner.name}: node {v}"

    def test_cc_with_stragglers_and_jitter(self, small_powerlaw):
        ref = analysis.connected_components(small_powerlaw)
        pg = HashPartitioner().partition(small_powerlaw, 6)
        results = api.compare_modes(
            CCProgram, pg, CCQuery(),
            cost_model_factory=lambda: CostModel.with_straggler(
                2, factor=6.0, latency_jitter=0.3, seed=4))
        for mode, r in results.items():
            assert r.answer == ref, mode

    def test_pagerank_modes_agree_within_tolerance(self, small_powerlaw):
        pg = HashPartitioner().partition(small_powerlaw, 4)
        results = api.compare_modes(PageRankProgram, pg,
                                    PageRankQuery(epsilon=1e-5))
        ref = analysis.pagerank(small_powerlaw, epsilon=1e-12)
        for mode, r in results.items():
            for v in ref:
                assert r.answer[v] == pytest.approx(ref[v], abs=1e-3), mode


class TestModeCharacter:
    """Behavioural signatures of each model (not exact timings)."""

    def test_bsp_rounds_synchronized(self, small_grid):
        # a BSP round is a superstep: the straggler moves the time, not
        # the schedule (a worker without mail sits a superstep out, so
        # round counts may differ by more than one)
        pg = api.partition_graph(small_grid, 4)
        r = api.run(SSSPProgram(), pg, SSSPQuery(source=0), mode="BSP",
                    cost_model=CostModel.with_straggler(0, factor=4.0))
        assert (tuple(r.rounds), r.metrics.total_messages,
                r.metrics.total_bytes) == bsp_schedule(
                    SSSPProgram, pg, SSSPQuery(source=0), vectorized=False)

    def test_ap_rounds_diverge(self, small_grid):
        r = api.run(SSSPProgram(), small_grid, SSSPQuery(source=0),
                    num_fragments=4, mode="AP",
                    cost_model=CostModel.with_straggler(0, factor=8.0))
        assert max(r.rounds) - min(r.rounds) > 1

    def test_ssp_bounded_divergence_vs_ap(self, small_grid):
        def spread(mode, c=None):
            r = api.run(SSSPProgram(), small_grid, SSSPQuery(source=0),
                        num_fragments=4, mode=mode, staleness_bound=c,
                        cost_model=CostModel.with_straggler(0, factor=8.0))
            return max(r.rounds) - min(r.rounds)

        assert spread("SSP", c=1) <= spread("AP")

    def test_bsp_idles_more_than_aap_with_straggler(self, small_powerlaw):
        pg = HashPartitioner().partition(small_powerlaw, 6)
        results = api.compare_modes(
            CCProgram, pg, CCQuery(), modes=("BSP", "AAP"),
            cost_model_factory=lambda: CostModel.with_straggler(
                0, factor=8.0, alpha=1.0))
        bsp = results["BSP"].metrics
        aap = results["AAP"].metrics
        bsp_wait = bsp.total_idle + bsp.total_suspended
        aap_wait = aap.total_idle + aap.total_suspended
        assert aap_wait <= bsp_wait
