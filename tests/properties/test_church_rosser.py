"""Property-based Church-Rosser tests (Theorem 2, empirically).

Hypothesis generates random graphs, partition counts, schedules and cost
models; every asynchronous run of the monotone PIE programs must agree with
the sequential reference.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.core.convergence import random_schedule_run
from repro.core.engine import Engine
from repro.graph import analysis, generators
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.costmodel import CostModel

SETTINGS = dict(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def random_graph(draw):
    kind = draw(st.sampled_from(["er", "powerlaw", "grid", "path"]))
    seed = draw(st.integers(0, 1000))
    if kind == "er":
        n = draw(st.integers(5, 60))
        return generators.erdos_renyi(n, 0.15, weighted=True, seed=seed)
    if kind == "powerlaw":
        n = draw(st.integers(10, 80))
        return generators.powerlaw(n, m=2, weighted=True, seed=seed)
    if kind == "grid":
        r = draw(st.integers(2, 7))
        c = draw(st.integers(2, 7))
        return generators.grid2d(r, c, weighted=True, seed=seed)
    n = draw(st.integers(3, 40))
    return generators.path_graph(n, weighted=True, seed=seed)


class TestChurchRosserCC:
    @given(graph=random_graph(), m=st.integers(1, 6),
           schedule_seed=st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_random_schedules_confluent(self, graph, m, schedule_seed):
        pg = HashPartitioner().partition(graph, m)
        answer = random_schedule_run(CCProgram(), pg, CCQuery(),
                                     seed=schedule_seed)
        assert answer == analysis.connected_components(graph)


class TestChurchRosserSSSP:
    @given(graph=random_graph(), m=st.integers(1, 6),
           schedule_seed=st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_random_schedules_confluent(self, graph, m, schedule_seed):
        source = next(iter(graph.nodes))
        pg = HashPartitioner().partition(graph, m)
        answer = random_schedule_run(SSSPProgram(), pg,
                                     SSSPQuery(source=source),
                                     seed=schedule_seed)
        ref = analysis.dijkstra(graph, source)
        for v in ref:
            assert answer[v] == pytest.approx(ref[v])


class TestTimedRunsConfluent:
    @given(graph=random_graph(),
           m=st.integers(2, 5),
           mode=st.sampled_from(["BSP", "AP", "SSP", "AAP", "Hsync"]),
           straggler_factor=st.floats(1.0, 8.0),
           jitter=st.floats(0.0, 0.5),
           seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_simulated_runs_confluent(self, graph, m, mode,
                                      straggler_factor, jitter, seed):
        source = next(iter(graph.nodes))
        cm = CostModel(speed={0: straggler_factor}, latency_jitter=jitter,
                       seed=seed)
        r = api.run(SSSPProgram(), graph, SSSPQuery(source=source),
                    num_fragments=m, mode=mode, cost_model=cm)
        ref = analysis.dijkstra(graph, source)
        for v in ref:
            assert r.answer[v] == pytest.approx(ref[v])
