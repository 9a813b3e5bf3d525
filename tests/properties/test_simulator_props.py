"""Property-based simulator invariants: determinism, conservation, sanity."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms import CCProgram, CCQuery
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.graph import generators
from repro.obs import Observer, round_slices
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime

SETTINGS = dict(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scenario(draw):
    g = generators.powerlaw(draw(st.integers(10, 60)), m=2,
                            seed=draw(st.integers(0, 300)))
    m = draw(st.integers(1, 5))
    mode = draw(st.sampled_from(["BSP", "AP", "SSP", "AAP", "Hsync"]))
    cm = CostModel(
        alpha=draw(st.floats(0.01, 2.0)),
        beta=draw(st.floats(0.0, 0.05)),
        latency=draw(st.floats(0.0, 1.0)),
        msg_cost=draw(st.floats(0.0, 0.1)),
        speed={0: draw(st.floats(1.0, 8.0))},
        latency_jitter=draw(st.floats(0.0, 0.3)),
        seed=draw(st.integers(0, 100)))
    # virtual workers sharing physical hosts wait for them, PEval included
    hosts = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    return g, m, mode, cm, hosts


class TestSimulatorInvariants:
    @given(s=scenario())
    @settings(**SETTINGS)
    def test_message_conservation_and_sanity(self, s):
        g, m, mode, cm, hosts = s
        pg = HashPartitioner().partition(g, m)
        rt = SimulatedRuntime(Engine(CCProgram(), pg, CCQuery()),
                              make_policy(mode), cost_model=cm, hosts=hosts)
        result = rt.run()
        metrics = result.metrics
        sent = sum(w.messages_sent for w in metrics.workers)
        received = sum(w.messages_received for w in metrics.workers)
        assert sent == received
        assert metrics.makespan >= 0
        assert all(w.busy_time >= 0 and w.idle_time >= -1e-9
                   and w.suspended_time >= -1e-9 for w in metrics.workers)
        # busy time can never exceed the makespan per worker
        for w in metrics.workers:
            assert w.busy_time <= metrics.makespan + 1e-9
        # every worker ran PEval at least once
        assert all(r >= 1 for r in result.rounds)

    @given(s=scenario())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bitwise_determinism(self, s):
        g, m, mode, cm_template, hosts = s
        pg = HashPartitioner().partition(g, m)

        def once():
            cm = CostModel(alpha=cm_template.alpha, beta=cm_template.beta,
                           latency=cm_template.latency,
                           msg_cost=cm_template.msg_cost,
                           speed={0: cm_template.speed(0)},
                           latency_jitter=cm_template.latency_jitter,
                           seed=17)
            rt = SimulatedRuntime(Engine(CCProgram(), pg, CCQuery()),
                                  make_policy(mode), cost_model=cm,
                                  hosts=hosts)
            return rt.run()

        a, b = once(), once()
        assert a.answer == b.answer
        assert a.time == b.time
        assert a.rounds == b.rounds
        assert a.metrics.total_bytes == b.metrics.total_bytes

    @given(s=scenario())
    @settings(**SETTINGS)
    def test_trace_consistent_with_metrics(self, s):
        g, m, mode, cm, hosts = s
        pg = HashPartitioner().partition(g, m)
        obs = Observer()
        rt = SimulatedRuntime(Engine(CCProgram(), pg, CCQuery()),
                              make_policy(mode), cost_model=cm, hosts=hosts,
                              observer=obs)
        result = rt.run()
        slices = round_slices(obs.log)
        for w in result.metrics.workers:
            rounds = slices[w.wid]
            assert len(rounds) == w.rounds
            assert sum(s.end - s.start for s in rounds) == \
                pytest.approx(w.busy_time)
            assert rounds[-1].end <= result.time + 1e-9
            # busy, idle and suspended tile the run, the wait for a
            # shared host before PEval included
            assert w.busy_time + w.idle_time + w.suspended_time == \
                pytest.approx(result.time, abs=1e-9)
