"""Integration: the paper's Example 1 / Example 4 (Fig. 1) scenario.

Three workers run CC over the chained-component graph of Fig. 1(b); P1 and
P2 take 3 time units per round, P3 takes 6, messages take 1 unit.  The tests
check the qualitative claims of Example 1: BSP is gated by the straggler,
AAP converges and the straggler needs fewer rounds than under BSP.
"""

import pytest

from repro import api
from repro.algorithms import CCProgram, CCQuery
from repro.bench.workloads import fig1_cost_model, fig1_graph, fig1_partition
from repro.core.modes import MODES
from repro.obs import Observer, round_slices


@pytest.fixture(scope="module")
def runs():
    pg = fig1_partition()
    out = {}
    for mode in MODES:
        out[mode] = api.run(CCProgram(), pg, CCQuery(), mode=mode,
                            cost_model=fig1_cost_model(),
                            staleness_bound=1 if mode == "SSP" else None,
                            observer=Observer())
    return out


class TestFig1:
    def test_all_modes_converge_to_cid_zero(self, runs):
        g = fig1_graph()
        for mode, r in runs.items():
            assert set(r.answer.values()) == {0}, mode
            assert set(r.answer) == set(g.nodes)

    def test_bsp_supersteps_cost_six_units(self, runs):
        bsp = runs["BSP"]
        # each BSP superstep is gated by P3's 6 time units (+1 latency)
        rounds = max(bsp.rounds)
        assert bsp.time >= 6 * (rounds - 1)

    def test_straggler_rounds_aap_at_most_bsp(self, runs):
        assert runs["AAP"].rounds[2] <= runs["BSP"].rounds[2]

    def test_aap_not_slower_than_bsp(self, runs):
        assert runs["AAP"].time <= runs["BSP"].time + 1e-9

    def test_fast_workers_not_blocked_under_aap(self, runs):
        aap = runs["AAP"].metrics
        p1_wait = aap.workers[0].idle_time + aap.workers[0].suspended_time
        bsp = runs["BSP"].metrics
        p1_wait_bsp = (bsp.workers[0].idle_time
                       + bsp.workers[0].suspended_time)
        assert p1_wait <= p1_wait_bsp + 1e-9

    def test_trace_shows_straggler_longer_rounds(self, runs):
        per = round_slices(runs["AAP"].extras["obs"].log)
        p3_round = per[2][0].end - per[2][0].start
        p1_round = per[0][0].end - per[0][0].start
        assert p3_round == pytest.approx(6.0)
        assert p1_round == pytest.approx(3.0)
