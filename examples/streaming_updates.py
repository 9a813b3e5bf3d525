"""Streaming updates: keep a computation live while the graph grows.

The paper's conclusion proposes handling streaming updates "by capitalizing
on the capability of incremental IncEval".  This example keeps a CC and an
SSSP computation converged across batches of edge insertions through a
:class:`~repro.serve.GraphService`: each batch is integrated through the
programs' incremental update hooks and a short continuation — no PEval, no
recomputation from scratch.  The service logs one ``epoch_apply`` event
per batch, with its duration and how many answer entries it changed.

Run:  python examples/streaming_updates.py
"""

import random

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.graph import analysis, generators
from repro.obs import EPOCH_APPLY
from repro.serve import GraphService
from repro.streaming import UpdateBatch


def main() -> None:
    rng = random.Random(7)

    print("connected components over a growing social graph")
    graph = generators.powerlaw(2000, m=2, seed=7)
    service = GraphService(CCProgram(), graph, CCQuery(), num_fragments=6,
                           runtime="simulated")
    print(f"  initial run: {len(service.answer)} nodes, "
          f"{len(set(service.answer.values()))} component(s)")

    reference = graph.copy()
    next_id = 100_000
    for step in range(5):
        edges = []
        for _ in range(8):
            if rng.random() < 0.4:      # a brand-new node joins
                u, v = next_id, rng.randrange(2000)
                next_id += 1
            else:                        # a new friendship edge
                u, v = rng.sample(range(2000), 2)
                if reference.has_edge(u, v):
                    continue
            edges.append((u, v))
        if not edges:
            continue
        batch = UpdateBatch.of(*edges)
        service.ingest(batch)
        service.flush()
        for u, v, w in batch.insertions:
            reference.add_edge(u, v, w)
        assert service.answer == analysis.connected_components(reference)
        epoch = service.obs.log.filter(type=EPOCH_APPLY)[-1].payload
        print(f"  batch {step + 1}: +{epoch['edges']} edges, "
              f"{epoch['changed']} answer entries changed, "
              f"{1e3 * epoch['duration']:.2f} ms")

    print("\nshortest paths while roads are being built")
    roads = generators.grid2d(25, 25, weighted=True, seed=3)
    sssp = GraphService(SSSPProgram(), roads, SSSPQuery(source=0),
                        num_fragments=4, runtime="simulated")
    far_corner = 624
    print(f"  dist(0 -> {far_corner}) = {sssp.answer[far_corner]:.2f}")
    # a motorway from the source to the middle of the grid
    sssp.ingest(UpdateBatch.of((0, 312, 1.0)))
    sssp.flush()
    print(f"  after motorway 0->312:   {sssp.answer[far_corner]:.2f}")
    ref_graph = roads.copy()
    ref_graph.add_edge(0, 312, 1.0)
    expect = analysis.dijkstra(ref_graph, 0)[far_corner]
    assert abs(sssp.answer[far_corner] - expect) < 1e-9
    print("  matches Dijkstra on the updated graph: OK")


if __name__ == "__main__":
    main()
