"""A dense service holds no dict graph: it asks its partition.

A generated graph is made over arrays and builds its five dicts
(``repro.graph.graph._dict_containers``) only on the first read that
needs them.  The service never makes that read: it checks edge novelty
against the fragment of the tail's owner
(:meth:`~repro.partition.fragment.PartitionedGraph.has_edge`), keeps the
applied insertions as a log, and makes :attr:`GraphService.graph` over
arrays when somebody reads it.  Patched to raise like
``test_read_path.py`` patches the event builder, the dict build must not
happen through construction, ingest (accepted and rejected), epochs
that merge a fragment's spill into its CSR, reads, snapshots, status and
a read of the grown graph.
"""

import random

import pytest

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.errors import ProgramError
from repro.graph import generators
from repro.graph import graph as graph_module
from repro.partition.fragment import PartitionedGraph
from repro.serve import GraphService, verify_against_recompute
from repro.streaming import UpdateBatch

EPOCHS = 40
BATCH_EDGES = 8

GRAPHS = {
    "powerlaw": lambda: generators.powerlaw(300, m=2, weighted=True, seed=4),
    "grid": lambda: generators.grid2d(12, 12, weighted=True, seed=4),
}


def novel_batch(rng, nodes, edges, next_id):
    """``BATCH_EDGES`` edges the graph does not have, every other one to a
    brand-new node (as the serve workload draws them)."""
    batch = []
    while len(batch) < BATCH_EDGES:
        u = rng.choice(nodes)
        if len(batch) % 2:
            v = next_id
            next_id += 1
            nodes.append(v)
        else:
            v = rng.choice(nodes)
        if u == v or frozenset((u, v)) in edges:
            continue
        edges.add(frozenset((u, v)))
        batch.append((u, v, round(rng.uniform(0.5, 3.0), 2)))
    return UpdateBatch(insertions=tuple(batch)), next_id


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_dense_service_builds_no_dict_graph(monkeypatch, name):
    def boom(graph):
        raise AssertionError("a dict graph was built")
    monkeypatch.setattr(graph_module, "_dict_containers", boom)
    g = GRAPHS[name]()
    svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                       num_fragments=2, runtime="simulated")
    assert svc.status()["engine"] == "dense"
    rng = random.Random(name)
    nodes = sorted(g.nodes)
    edges = {frozenset((u, v)) for u, v, _ in g.edges()}
    next_id = max(nodes) + 1
    rejected = 0
    for epoch in range(EPOCHS):
        batch, next_id = novel_batch(rng, nodes, edges, next_id)
        if epoch % 5 == 1:
            # an edge an epoch applied, the other way round: the
            # fragment's rows are asked, and the batch leaves no trace
            u, v, _ = applied.insertions[0]
            with pytest.raises(ProgramError, match="already exists"):
                svc.ingest(UpdateBatch.of((next_id, u, 1.0), (v, u, 1.0)))
            rejected += 1
        assert svc.ingest(batch).accepted
        svc.pump(1)
        applied = batch
        assert svc.query(rng.choice(nodes), staleness_bound=1).served
        if epoch % 10 == 9:
            assert svc.snapshot(staleness_bound=0).served
    status = svc.status()
    assert status["epoch"] == EPOCHS and rejected >= 1
    assert sum(part["merges"] for part in status["fragments"]) >= 1
    assert status["edges"] == g.num_edges + EPOCHS * BATCH_EDGES
    grown = svc.graph
    assert grown.num_edges == status["edges"]
    assert {frozenset((u, v)) for u, v, _ in grown.edges()} == edges
    monkeypatch.undo()
    assert verify_against_recompute(svc)


def test_a_bad_id_is_refused_before_the_partition_is_asked(monkeypatch):
    """On the dense engine the id check comes first: a batch with an id
    the arrays cannot number never reaches the novelty lookup."""
    g = generators.grid2d(4, 4, weighted=True, seed=1)
    svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                       num_fragments=2, runtime="simulated")

    def asked(self, u, v):
        raise AssertionError("the partition was asked about a bad id")
    monkeypatch.setattr(PartitionedGraph, "has_edge", asked)
    # True == 1 as a dict key: asked first, it would find edge (1, 2)
    for bad in (True, -1, "x"):
        with pytest.raises(ProgramError, match="node id"):
            svc.ingest(UpdateBatch(insertions=((0, 99, 1.0),
                                               (bad, 2, 1.0))))
    assert (svc.lag, svc.accepted) == (0, 0)
    assert 99 not in svc.pg.owner
