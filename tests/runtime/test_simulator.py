"""Tests for the discrete-event runtime."""

import pytest

from repro import api
from repro.algorithms import (CCProgram, CCQuery, SSSPProgram, SSSPQuery)
from repro.core.delay import DelayPolicy
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.errors import RuntimeConfigError, TerminationError
from repro.graph import analysis, generators
from repro.obs import Observer, round_slices
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime


def build(graph, program, query, mode="AAP", m=4, **kwargs):
    pg = HashPartitioner().partition(graph, m)
    return SimulatedRuntime(Engine(program, pg, query), make_policy(mode),
                            **kwargs)


class TestDeterminism:
    def test_identical_runs(self, small_grid):
        results = []
        for _ in range(2):
            rt = build(small_grid, SSSPProgram(), SSSPQuery(source=0),
                       mode="AAP",
                       cost_model=CostModel(latency_jitter=0.1, seed=3))
            results.append(rt.run())
        a, b = results
        assert a.answer == b.answer
        assert a.time == b.time
        assert a.rounds == b.rounds
        assert a.metrics.total_messages == b.metrics.total_messages

    def test_jitter_seed_changes_timing_not_answer(self, small_grid):
        def run(seed):
            rt = build(small_grid, SSSPProgram(), SSSPQuery(source=0),
                       cost_model=CostModel(latency_jitter=0.5, seed=seed))
            return rt.run()

        a, b = run(1), run(2)
        assert a.answer == b.answer
        assert a.time != b.time


class TestLifecycle:
    def test_cannot_run_twice(self, small_grid):
        rt = build(small_grid, CCProgram(), CCQuery())
        rt.run()
        with pytest.raises(TerminationError):
            rt.run()

    def test_max_events_guard(self, small_grid):
        rt = build(small_grid, SSSPProgram(), SSSPQuery(source=0),
                   max_events=5)
        with pytest.raises(TerminationError):
            rt.run()

    def test_bad_hosts_length(self, small_grid):
        pg = HashPartitioner().partition(small_grid, 4)
        engine = Engine(CCProgram(), pg, CCQuery())
        with pytest.raises(RuntimeConfigError):
            SimulatedRuntime(engine, make_policy("AP"), hosts=[0, 1])

    def test_livelock_policy_detected(self, small_grid):
        class Stuck(DelayPolicy):
            name = "stuck"

            def delay(self, view):
                return float("inf")

        pg = HashPartitioner().partition(small_grid, 4)
        rt = SimulatedRuntime(Engine(SSSPProgram(), pg,
                                     SSSPQuery(source=0)), Stuck())
        with pytest.raises(TerminationError):
            rt.run()


class TestMetricsAndTrace:
    def test_metrics_consistency(self, small_powerlaw):
        rt = build(small_powerlaw, CCProgram(), CCQuery(), mode="AP")
        result = rt.run()
        m = result.metrics
        assert m.makespan > 0
        assert m.total_messages == sum(w.messages_sent for w in m.workers)
        sent = sum(w.messages_sent for w in m.workers)
        received = sum(w.messages_received for w in m.workers)
        assert sent == received, "all sent messages must be delivered"
        assert m.total_rounds == sum(result.rounds)
        assert m.total_busy <= m.makespan * len(m.workers) + 1e-9

    def test_trace_recorded(self, small_grid):
        obs = Observer()
        rt = build(small_grid, SSSPProgram(), SSSPQuery(source=0),
                   observer=obs)
        result = rt.run()
        slices = round_slices(obs.log)
        assert max(s.end for rounds in slices.values()
                   for s in rounds) <= result.time + 1e-9
        # every worker has exactly one peval round
        for wid in range(4):
            kinds = [s.kind for s in slices[wid]]
            assert kinds.count("peval") == 1

    def test_wait_for_a_host_before_peval_is_accounted(self):
        # workers 1 and 3 wait for their host before PEval: that wait is
        # suspended time, so every worker's time tiles the makespan
        pg = HashPartitioner().partition(generators.grid2d(12, 12, seed=2),
                                         4)
        result = SimulatedRuntime(
            Engine(SSSPProgram(), pg, SSSPQuery(source=0)),
            make_policy("AP"), hosts=[0, 0, 1, 1]).run()
        for w in result.metrics.workers:
            assert w.busy_time + w.idle_time + w.suspended_time == \
                pytest.approx(result.time, abs=1e-9), w.wid
        assert all(w.suspended_time > 0
                   for w in result.metrics.workers[1::2])


class TestSharedHosts:
    def test_virtual_workers_share_host_serialize(self, small_grid):
        # 4 virtual workers on 2 hosts: rounds on the same host serialise,
        # so the makespan grows vs dedicated hosts
        pg = HashPartitioner().partition(small_grid, 4)

        def run(hosts):
            rt = SimulatedRuntime(
                Engine(SSSPProgram(), pg, SSSPQuery(source=0)),
                make_policy("AP"), cost_model=CostModel(seed=1),
                hosts=hosts)
            return rt.run()

        dedicated = run(None)
        shared = run([0, 0, 1, 1])
        assert shared.answer == dedicated.answer
        assert shared.time > dedicated.time

    def test_all_on_one_host(self, small_grid):
        pg = HashPartitioner().partition(small_grid, 3)
        rt = SimulatedRuntime(Engine(CCProgram(), pg, CCQuery()),
                              make_policy("AAP"), hosts=[0, 0, 0])
        result = rt.run()
        assert result.answer == analysis.connected_components(small_grid)


class TestStragglers:
    def test_straggler_dominates_makespan(self, small_powerlaw):
        pg = HashPartitioner().partition(small_powerlaw, 4)

        def run(factor):
            rt = SimulatedRuntime(
                Engine(CCProgram(), pg, CCQuery()), make_policy("BSP"),
                cost_model=CostModel.with_straggler(0, factor=factor))
            return rt.run()

        slow = run(8.0)
        fast = run(1.0)
        assert slow.time > fast.time

    def test_single_fragment_degenerate(self, small_grid):
        pg = HashPartitioner().partition(small_grid, 1)
        rt = SimulatedRuntime(Engine(SSSPProgram(), pg, SSSPQuery(source=0)),
                              make_policy("AAP"))
        result = rt.run()
        ref = analysis.dijkstra(small_grid, 0)
        assert all(result.answer[v] == pytest.approx(ref[v]) for v in ref)
        assert result.rounds == [1]  # PEval alone suffices


class TestTailAccounting:
    """Regression: WorkerStep.metrics must split the trailing non-RUNNING
    segment into suspended vs. idle exactly as WorkerStep.begin does."""

    def _runtime(self, graph):
        pg = HashPartitioner().partition(graph, 2)
        return SimulatedRuntime(Engine(CCProgram(), pg, CCQuery()),
                                make_policy("AAP"))

    def test_waiting_tail_counts_as_suspended(self, small_grid):
        from repro.core.worker import WorkerStatus

        rt = self._runtime(small_grid)
        w = rt.workers[0]
        w.status = WorkerStatus.WAITING
        w.idle_since = 2.0   # finished its last round at t=2
        w.wait_started = 6.0  # under a delay stretch since t=6
        wm = rt.steps[0].metrics(now=10.0)
        assert wm.suspended_time == pytest.approx(4.0)
        assert wm.idle_time == pytest.approx(4.0)

    def test_inactive_tail_is_pure_idle(self, small_grid):
        from repro.core.worker import WorkerStatus

        rt = self._runtime(small_grid)
        w = rt.workers[0]
        w.status = WorkerStatus.INACTIVE
        w.idle_since = 3.0
        w.wait_started = None
        wm = rt.steps[0].metrics(now=10.0)
        assert wm.suspended_time == pytest.approx(0.0)
        assert wm.idle_time == pytest.approx(7.0)

    def test_running_worker_gets_no_tail(self, small_grid):
        from repro.core.worker import WorkerStatus

        rt = self._runtime(small_grid)
        w = rt.workers[0]
        w.status = WorkerStatus.RUNNING
        w.idle_since = 0.0
        wm = rt.steps[0].metrics(now=10.0)
        assert wm.suspended_time == 0.0
        assert wm.idle_time == 0.0

    def test_wait_never_exceeds_gap(self, small_grid):
        # wait_started before idle_since (stale marker) must not produce
        # suspended time larger than the whole gap
        from repro.core.worker import WorkerStatus

        rt = self._runtime(small_grid)
        w = rt.workers[0]
        w.status = WorkerStatus.WAITING
        w.idle_since = 8.0
        w.wait_started = 1.0
        wm = rt.steps[0].metrics(now=10.0)
        assert wm.suspended_time == pytest.approx(2.0)
        assert wm.idle_time == pytest.approx(0.0)

    def test_full_run_time_budget_balances(self, small_grid):
        # after the fix, busy + idle + suspended ~= makespan per worker
        pg = HashPartitioner().partition(small_grid, 4)
        rt = SimulatedRuntime(Engine(SSSPProgram(), pg, SSSPQuery(source=0)),
                              make_policy("AAP"),
                              cost_model=CostModel.with_straggler(0,
                                                                  factor=4.0))
        result = rt.run()
        for w in result.metrics.workers:
            total = w.busy_time + w.idle_time + w.suspended_time
            assert total == pytest.approx(result.metrics.makespan, rel=1e-6)
