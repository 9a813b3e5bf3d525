"""Service-level properties: incremental serving equals full recomputation
(``Q(G ⊕ ∆G)``) and the staleness contract is never violated.

The equivalence matrix covers {SSSP, CC} x {BSP, AAP} x
{simulated, threaded} — the service must be correct under any parallel
model on either runtime, per Theorem 2.
"""

import random

import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.graph import generators
from repro.serve import (AdmissionController, GraphService, LoadGenerator,
                         verify_against_recompute)
from repro.streaming import UpdateBatch

ALGOS = {
    "sssp": lambda: (SSSPProgram(), SSSPQuery(source=0)),
    "cc": lambda: (CCProgram(), CCQuery()),
}


def fresh_edges(graph, rng, n, next_id):
    existing = {frozenset((u, v)) for u, v, _ in graph.edges()}
    nodes = sorted(graph.nodes)
    out = []
    while len(out) < n:
        if rng.random() < 0.4:
            u, v = rng.choice(nodes), next_id
            next_id += 1
            nodes.append(v)
        else:
            u, v = rng.sample(nodes, 2)
        key = frozenset((u, v))
        if u == v or key in existing:
            continue
        existing.add(key)
        out.append((u, v, round(rng.uniform(0.5, 2.0), 2)))
    return out, next_id


@pytest.mark.parametrize("algo", sorted(ALGOS))
@pytest.mark.parametrize("mode", ["BSP", "AAP"])
@pytest.mark.parametrize("runtime", ["simulated", "threaded"])
def test_served_stream_equals_recompute(algo, mode, runtime):
    program, query = ALGOS[algo]()
    g = generators.grid2d(5, 5, weighted=True, seed=2)
    svc = GraphService(program, g, query, num_fragments=3, mode=mode,
                       runtime=runtime)
    rng = random.Random(f"{algo}-{mode}-{runtime}")
    next_id = max(g.nodes) + 1
    for step in range(5):
        edges, next_id = fresh_edges(svc.graph, rng, 4, next_id)
        svc.ingest(UpdateBatch(insertions=tuple(edges)))
        if step % 2:  # alternate lazy queries with forced catch-up
            svc.query(rng.choice(sorted(svc.graph.nodes)),
                      staleness_bound=3)
        else:
            svc.query(0, staleness_bound=0)
    assert verify_against_recompute(svc)


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_every_epoch_matches_recompute(algo):
    """Stronger per-epoch property on the reference runtime: after each
    forced catch-up the snapshot equals a scratch run on the grown
    graph."""
    program, query = ALGOS[algo]()
    g = generators.grid2d(4, 4, weighted=True, seed=3)
    svc = GraphService(program, g, query, num_fragments=3, mode="AAP",
                       runtime="simulated")
    rng = random.Random(17)
    next_id = max(g.nodes) + 1
    for _ in range(6):
        edges, next_id = fresh_edges(svc.graph, rng, 3, next_id)
        svc.ingest(UpdateBatch(insertions=tuple(edges)))
        svc.query(0, staleness_bound=0)
        assert verify_against_recompute(svc)


@pytest.mark.parametrize("runtime", ["simulated", "threaded"])
def test_staleness_contract_never_violated(runtime):
    """A query with bound k is answered from a snapshot at most k applied
    epochs behind the accepted frontier."""
    g = generators.grid2d(5, 5, weighted=True, seed=4)
    svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                       num_fragments=3, runtime=runtime,
                       admission=AdmissionController(
                           max_pending_batches=100, max_catchup=None))
    rng = random.Random(23)
    next_id = max(g.nodes) + 1
    for _ in range(30):
        if rng.random() < 0.4:
            edges, next_id = fresh_edges(svc.graph, rng, 2, next_id)
            svc.ingest(UpdateBatch(insertions=tuple(edges)))
            continue
        bound = rng.choice([0, 1, 2, 4])
        lag_before = svc.lag
        res = svc.query(rng.choice(sorted(svc.graph.nodes)),
                        staleness_bound=bound)
        assert res.served
        assert res.staleness <= bound
        assert res.staleness <= lag_before  # catch-up never adds lag
        # the served snapshot is the applied frontier: accepted - applied
        # equals the reported staleness
        assert svc.accepted - svc.epoch == res.staleness


def test_loadgen_mixed_workload_contract():
    g = generators.powerlaw(150, m=2, weighted=True, seed=3)
    svc = GraphService(SSSPProgram(), g, SSSPQuery(source=min(g.nodes)),
                       num_fragments=4, runtime="threaded")
    gen = LoadGenerator(svc, seed=11, num_queries=120, num_batches=8,
                        batch_size=5)
    report = gen.run()
    assert report["staleness"]["violations"] == 0
    assert report["queries"]["served"] + report["queries"]["shed"] == 120
    assert report["updates"]["epochs"] == report["updates"]["batches_applied"]
    assert report["queries"]["latency"]["count"] == \
        report["queries"]["served"]
    assert verify_against_recompute(svc)


def test_loadgen_is_deterministic():
    def run_once():
        g = generators.grid2d(5, 5, weighted=True, seed=2)
        svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=3,
                           runtime="simulated")
        gen = LoadGenerator(svc, seed=5, num_queries=60, num_batches=6,
                            batch_size=4)
        report = gen.run()
        return report["staleness"], svc.answer

    first, second = run_once(), run_once()
    assert first == second

