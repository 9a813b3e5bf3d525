"""Property-based streaming tests: any insertion sequence, applied
incrementally by a live service, must agree with recomputing on the final
graph — on the dense engine and on the generic one."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.graph import analysis, generators
from repro.serve import GraphService
from repro.streaming import UpdateBatch
from tests.conftest import generic

SETTINGS = dict(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def insertion_plan(draw):
    """A base graph plus batches of novel edge insertions."""
    n = draw(st.integers(8, 40))
    seed = draw(st.integers(0, 100))
    base = generators.powerlaw(n, m=2, weighted=True, seed=seed)
    batches = []
    next_new = 10_000
    existing = {frozenset((u, v)) for u, v, _ in base.edges()}
    for _ in range(draw(st.integers(1, 3))):
        edges = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                u, v = next_new, draw(st.integers(0, n - 1))
                next_new += 1
            else:
                u = draw(st.integers(0, n - 1))
                v = draw(st.integers(0, n - 1))
                if u == v or frozenset((u, v)) in existing:
                    continue
            existing.add(frozenset((u, v)))
            edges.append((u, v, draw(st.floats(0.1, 5.0))))
        if edges:
            batches.append(UpdateBatch.of(*edges))
    return base, batches


def cc_matches_recompute(program, engine, plan, m):
    base, batches = plan
    svc = GraphService(program, base, CCQuery(), num_fragments=m,
                       runtime="simulated")
    assert svc.status()["engine"] == engine
    reference = base.copy()
    for batch in batches:
        svc.ingest(batch)
        svc.flush()
        for u, v, w in batch.insertions:
            reference.add_edge(u, v, w)
        assert svc.answer == analysis.connected_components(reference)


def sssp_matches_recompute(program, engine, plan, m):
    base, batches = plan
    source = next(iter(base.nodes))
    svc = GraphService(program, base, SSSPQuery(source=source),
                       num_fragments=m, runtime="simulated")
    assert svc.status()["engine"] == engine
    reference = base.copy()
    for batch in batches:
        svc.ingest(batch)
        svc.flush()
        for u, v, w in batch.insertions:
            reference.add_edge(u, v, w)
        ref = analysis.dijkstra(reference, source)
        for node in ref:
            assert svc.answer[node] == pytest.approx(ref[node])


class TestStreamingConfluence:
    """Each property on the dense engine (integer ids, dense kernels) and
    on the generic one (the same program without its dense kernels)."""

    @given(plan=insertion_plan(), m=st.integers(1, 4))
    @settings(**SETTINGS)
    def test_cc_matches_recompute(self, plan, m):
        cc_matches_recompute(CCProgram(), "dense", plan, m)

    @given(plan=insertion_plan(), m=st.integers(1, 4))
    @settings(**SETTINGS)
    def test_cc_matches_recompute_generic(self, plan, m):
        cc_matches_recompute(generic(CCProgram()), "generic", plan, m)

    @given(plan=insertion_plan(), m=st.integers(1, 4))
    @settings(**SETTINGS)
    def test_sssp_matches_recompute(self, plan, m):
        sssp_matches_recompute(SSSPProgram(), "dense", plan, m)

    @given(plan=insertion_plan(), m=st.integers(1, 4))
    @settings(**SETTINGS)
    def test_sssp_matches_recompute_generic(self, plan, m):
        sssp_matches_recompute(generic(SSSPProgram()), "generic", plan, m)
