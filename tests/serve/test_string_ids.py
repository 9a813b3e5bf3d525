"""A resident service over string ids, epoch after epoch.

String ids give fragments with no CSR (``Fragment.compact`` refuses
them), so the service runs the generic engine, and its routing rules
(``PIEProgram.routes``) read the fragments' node tables.  Every epoch
brings a brand-new node and a new cut edge between two fragments, so the
engine patches its routing after each growth step; after every epoch the
answer equals a from-scratch recompute on the grown graph and a run that
needs no routing at all (one fragment).
"""

import random

import pytest

from repro import api
from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.graph import generators
from repro.graph.graph import Graph
from repro.serve import GraphService, verify_against_recompute
from repro.streaming import UpdateBatch

ALGOS = {
    "sssp": lambda: (SSSPProgram(), SSSPQuery(source="n0")),
    "cc": lambda: (CCProgram(), CCQuery()),
}
EPOCHS = 24


def named(graph):
    """``graph`` with node ``v`` renamed ``"n{v}"``."""
    out = Graph(directed=graph.directed)
    for v in graph.nodes:
        out.add_node(f"n{v}")
    for u, v, w in graph.edges():
        out.add_edge(f"n{u}", f"n{v}", w)
    return out


def epoch_edges(svc, epoch, rng):
    """A brand-new node hung off an existing one, and a new edge between
    nodes of two different fragments."""
    owner = svc.pg.owner
    nodes = sorted(owner)
    edges = [(rng.choice(nodes), f"x{epoch}", round(rng.uniform(1, 3), 2))]
    while len(edges) < 2:
        u, v = rng.sample(nodes, 2)
        if owner[u] != owner[v] and not svc.pg.has_edge(u, v):
            edges.append((u, v, round(rng.uniform(1, 3), 2)))
    return edges


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_string_id_service_equals_a_recompute_every_epoch(algo):
    program, query = ALGOS[algo]()
    graph = named(generators.powerlaw(60, m=2, weighted=True, seed=4))
    svc = GraphService(program, graph, query, num_fragments=3,
                       runtime="simulated")
    assert svc.status()["engine"] == "generic"
    assert all(frag._arrays.csr is None for frag in svc.pg)
    rng = random.Random(11)
    for epoch in range(EPOCHS):
        edges = epoch_edges(svc, epoch, rng)
        cut = sum(svc.pg.owner[u] != svc.pg.owner[v] for u, v, _ in edges
                  if v in svc.pg.owner)
        svc.ingest(UpdateBatch(insertions=tuple(edges)))
        assert svc.flush() == 1
        assert f"x{epoch}" in svc.pg.owner and cut >= 1
        assert verify_against_recompute(svc), epoch
        alone = api.run(ALGOS[algo]()[0], svc.graph, query,
                        num_fragments=1).answer
        assert svc.answer == alone, epoch
    assert svc.epoch == EPOCHS
