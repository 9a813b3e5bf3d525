"""Tests for the delay-stretch policies: AAP's Eq. (1) and the
special cases."""

import math

import pytest

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.delay import (AAPPolicy, APPolicy, BSPPolicy, HsyncPolicy,
                              SSPPolicy, WorkerView)
from repro.core.engine import Engine
from repro.core.messages import Message
from repro.core.step import WorkerStep
from repro.errors import RuntimeConfigError
from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner

INF = math.inf


def view(**kwargs) -> WorkerView:
    defaults = dict(wid=0, round=1, eta=1, rmin=1, rmax=1, idle_time=0.0,
                    now=10.0, t_pred=2.0, s_pred=1.0, fleet_avg_rate=1.0,
                    num_workers=4, num_peers=3, fleet_avg_round_time=2.0)
    defaults.update(kwargs)
    return WorkerView(**defaults)


class TestAP:
    def test_never_waits(self):
        assert APPolicy().delay(view(eta=1)) == 0.0
        assert APPolicy().delay(view(eta=100, round=50, rmin=0)) == 0.0


def bsp_step(superstep, *mail):
    """A BSP worker step at ``superstep`` holding ``(src, stamp)`` mail,
    in arrival order."""
    graph = generators.grid2d(3, 3)
    engine = Engine(SSSPProgram(), HashPartitioner().partition(graph, 2),
                    SSSPQuery(source=0))
    step = WorkerStep(engine, 1, BSPPolicy(), clock=lambda: 0.0)
    step.superstep = superstep
    for src, stamp in mail:
        step.arrived(Message(src=src, dst=1, round=stamp,
                             entries=((0, 1.0),)))
    return step


class TestBSP:
    """BSP's barrier is the step's superstep rule, not a delay: delta
    never holds a due round, wherever ``r_min`` is."""

    def test_at_rmin_proceeds(self):
        step = bsp_step(3, (0, 2))
        assert step.due()
        assert BSPPolicy().delay(view(round=3, rmin=3)) == 0.0
        assert [m.round for m in step.drain()] == [2]
        assert not step.state.buffer

    def test_ahead_suspends(self):
        # a faster peer's output of the open superstep waits for the
        # next one, even for a worker at r_min
        step = bsp_step(3, (0, 3))
        assert not step.due()
        assert step.drain() == [] and step.state.buffer
        step.superstep = 4
        assert step.due()

    def test_behind_proceeds(self):
        # a worker behind r_min runs on its due mail, in sender order;
        # the open superstep's mail stays buffered
        step = bsp_step(3, (1, 2), (0, 3), (0, 1))
        assert BSPPolicy().delay(view(round=2, rmin=3)) == 0.0
        assert [(m.src, m.round) for m in step.drain()] == [(0, 1), (1, 2)]
        assert [m.round for m in step.state.buffer.peek()] == [3]


class TestSSP:
    def test_within_bound_proceeds(self):
        p = SSPPolicy(staleness_bound=2)
        assert p.delay(view(round=3, rmin=1)) == 0.0

    def test_beyond_bound_suspends(self):
        p = SSPPolicy(staleness_bound=2)
        assert p.delay(view(round=4, rmin=1)) == INF

    def test_bound_zero_is_bsp(self):
        p = SSPPolicy(staleness_bound=0)
        assert p.delay(view(round=2, rmin=1)) == INF
        assert p.delay(view(round=1, rmin=1)) == 0.0

    def test_negative_bound_rejected(self):
        with pytest.raises(RuntimeConfigError):
            SSPPolicy(staleness_bound=-1)


class TestAAP:
    def test_empty_buffer_suspends(self):
        assert AAPPolicy().delay(view(eta=0)) == INF

    def test_enough_accumulated_runs(self):
        p = AAPPolicy(l_bottom=2, l_bottom_fraction=0.0)
        assert p.delay(view(eta=2, s_pred=0.5, fleet_avg_rate=1.0)) == 0.0

    def test_below_l_bottom_waits(self):
        p = AAPPolicy(l_bottom=4, l_bottom_fraction=0.0)
        ds = p.delay(view(eta=1, s_pred=1.0, fleet_avg_rate=2.0))
        assert 0.0 < ds < INF

    def test_wait_shrinks_with_idle_time(self):
        p = AAPPolicy(l_bottom=4, l_bottom_fraction=0.0)
        d0 = p.delay(view(eta=1, s_pred=1.0, fleet_avg_rate=2.0,
                          idle_time=0.0))
        d1 = p.delay(view(eta=1, s_pred=1.0, fleet_avg_rate=2.0,
                          idle_time=d0 / 2))
        assert d1 < d0

    def test_no_arrival_estimate_runs(self):
        p = AAPPolicy(l_bottom=5, l_bottom_fraction=0.0)
        assert p.delay(view(eta=1, s_pred=0.0)) == 0.0

    def test_infinite_rate_runs(self):
        p = AAPPolicy(l_bottom=5, l_bottom_fraction=0.0)
        assert p.delay(view(eta=1, s_pred=INF, fleet_avg_rate=1.0)) == 0.0

    def test_high_influx_extends_target(self):
        # rate above fleet average: target exceeds eta, so the worker waits
        p = AAPPolicy(l_bottom=0, l_bottom_fraction=0.0, dt_fraction=0.5)
        ds = p.delay(view(eta=3, s_pred=4.0, fleet_avg_rate=1.0,
                          t_pred=2.0, fleet_avg_round_time=2.0))
        assert 0.0 < ds <= 2.0

    def test_wait_capped_by_fleet_round_time(self):
        # straggler: own round time huge, cap must follow the fleet's
        p = AAPPolicy(l_bottom=100, l_bottom_fraction=0.0,
                      wait_cap_fraction=1.0)
        ds = p.delay(view(eta=1, s_pred=0.01, fleet_avg_rate=100.0,
                          t_pred=1000.0, fleet_avg_round_time=2.0))
        assert ds <= 2.0

    def test_l_bottom_fraction_scales_with_peers(self):
        p = AAPPolicy(l_bottom_fraction=1.0)
        assert p.effective_l_bottom(num_peers=7) == 7.0
        assert p.effective_l_bottom(num_peers=0) == 1.0

    def test_staleness_bound_predicate(self):
        p = AAPPolicy(staleness_bound=2)
        # fastest worker too far ahead -> suspended
        assert p.delay(view(round=5, rmin=1, rmax=5, eta=3)) == INF
        # within bound -> proceeds normally
        assert p.delay(view(round=3, rmin=1, rmax=5, eta=10,
                            s_pred=0.1, fleet_avg_rate=1.0)) == 0.0

    def test_custom_predicate(self):
        p = AAPPolicy(predicate=lambda r, rmin, rmax: False)
        assert p.delay(view(eta=5)) == INF

    def test_invalid_config(self):
        with pytest.raises(RuntimeConfigError):
            AAPPolicy(l_bottom=-1)
        with pytest.raises(RuntimeConfigError):
            AAPPolicy(l_bottom_fraction=2.0)
        with pytest.raises(RuntimeConfigError):
            AAPPolicy(dt_fraction=-0.1)


class TestHsync:
    def test_starts_in_ap_mode(self):
        p = HsyncPolicy()
        assert p.mode == "AP"
        assert p.delay(view(round=9, rmin=0)) == 0.0

    def test_switches_to_bsp_on_staleness(self):
        p = HsyncPolicy(staleness_threshold=1.0, window=2)
        for _ in range(2):
            p.on_round_complete(view(eta=5), duration=1.0)
        assert p.mode == "BSP"
        assert p.switches == 1

    def test_switch_cost_paid_once_per_worker(self):
        p = HsyncPolicy(staleness_threshold=1.0, window=2, switch_cost=3.0)
        for _ in range(2):
            p.on_round_complete(view(eta=5), duration=1.0)
        d_first = p.delay(view(wid=1, round=1, rmin=1))
        d_second = p.delay(view(wid=1, round=1, rmin=1))
        assert d_first == 3.0 * view().fleet_avg_round_time
        assert d_second == 0.0

    def test_barrier_blocked_worker_still_pays_switch_cost(self):
        """Regression: _paid was recorded before the INF early-return, so a
        worker blocked at the BSP barrier was marked as having paid the
        switch cost without ever serving it."""
        p = HsyncPolicy(staleness_threshold=1.0, window=2, switch_cost=3.0)
        for _ in range(2):
            p.on_round_complete(view(eta=5), duration=1.0)
        assert p.mode == "BSP" and p.switches == 1
        # worker 2 is ahead of the barrier: suspended, and NOT marked paid
        assert p.delay(view(wid=2, round=4, rmin=3)) == INF
        assert 2 not in p._paid
        # once the barrier releases it, the switch cost is finally charged
        assert p.delay(view(wid=2, round=3, rmin=3)) == \
            3.0 * view().fleet_avg_round_time
        # and only once
        assert p.delay(view(wid=2, round=3, rmin=3)) == 0.0

    def test_switches_back_to_ap_on_straggle(self):
        p = HsyncPolicy(straggler_threshold=1.5, staleness_threshold=1.0,
                        window=2)
        for _ in range(2):
            p.on_round_complete(view(eta=5), duration=1.0)
        assert p.mode == "BSP"
        p.on_round_complete(view(eta=0), duration=1.0)
        p.on_round_complete(view(eta=0), duration=10.0)
        assert p.mode == "AP"
