"""Property: BSP/SSP(c) simulator runs respect their staleness semantics.

A BSP run is the strict superstep schedule (``bsp_schedule``: rounds per
worker, messages and bytes) whatever the cost model and host map, with
every online oracle clean.  At every ``ds_decision`` event of an SSP(c)
run the bounds invariant must hold: at most ``c`` rounds ahead of the
global frontier ``r_min`` (bounded staleness).  The check is the
:class:`repro.fuzz.BoundsOracle` attached online via
:class:`repro.fuzz.CheckingLog`, i.e. exactly what the fuzzer uses,
applied across hypothesis-drawn graphs, fleets and cost models.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.fuzz import BoundsOracle, CheckingLog, OracleSuite
from repro.fuzz.cell import bsp_schedule
from repro.graph import generators
from repro.obs import Observer
from repro.obs import events as obs
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime

SETTINGS = dict(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scenario(draw):
    graph = generators.powerlaw(draw(st.integers(10, 40)), m=2,
                                weighted=True,
                                seed=draw(st.integers(0, 200)))
    fragments = draw(st.integers(2, 5))
    cm = CostModel(alpha=1.0,
                   beta=draw(st.floats(0.0, 0.05)),
                   latency=draw(st.floats(0.0, 1.0)),
                   speed={0: draw(st.floats(1.0, 6.0))},
                   latency_jitter=draw(st.floats(0.0, 0.3)),
                   seed=draw(st.integers(0, 50)))
    return graph, fragments, cm


def _run_with_oracle(graph, fragments, cm, mode, staleness_bound=None):
    pg = HashPartitioner().partition(graph, fragments)
    suite = OracleSuite([BoundsOracle(mode, staleness_bound)])
    log = CheckingLog(suite)
    policy = make_policy(mode, staleness_bound=staleness_bound) \
        if mode == "SSP" else make_policy(mode)
    runtime = SimulatedRuntime(
        Engine(SSSPProgram(), pg, SSSPQuery(source=next(iter(graph.nodes)))),
        policy, cost_model=cm, observer=Observer(log=log))
    runtime.run()
    suite.finish()
    decisions = log.filter(type=obs.DS_DECISION)
    assert decisions, "run produced no ds_decision events"
    return suite, decisions


class TestBarrierSemantics:
    @given(s=scenario(), data=st.data())
    @settings(**SETTINGS)
    def test_bsp_runs_the_superstep_schedule(self, s, data):
        graph, fragments, cm = s
        hosts = data.draw(st.lists(st.integers(0, fragments - 1),
                                   min_size=fragments, max_size=fragments))
        pg = HashPartitioner().partition(graph, fragments)
        query = SSSPQuery(source=next(iter(graph.nodes)))
        suite = OracleSuite.for_run("BSP")
        result = SimulatedRuntime(
            Engine(SSSPProgram(), pg, query), make_policy("BSP"),
            cost_model=cm, hosts=hosts,
            observer=Observer(log=CheckingLog(suite))).run()
        suite.finish()
        assert suite.ok, [v.message for v in suite.violations]
        m = result.metrics
        assert (tuple(result.rounds), m.total_messages, m.total_bytes) == \
            bsp_schedule(SSSPProgram, pg, query, vectorized=False)


class TestStalenessSemantics:
    @given(s=scenario(), c=st.integers(0, 3))
    @settings(**SETTINGS)
    def test_ssp_never_starts_beyond_rmin_plus_c(self, s, c):
        graph, fragments, cm = s
        suite, decisions = _run_with_oracle(graph, fragments, cm, "SSP",
                                            staleness_bound=c)
        assert suite.ok, [v.message for v in suite.violations]
        for e in decisions:
            if e.payload["action"] == "start":
                assert e.round <= e.payload["rmin"] + c
