"""In-place partition growth must equal a from-scratch rebuild."""

import random

import pytest

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.core.engine import Engine
from repro.errors import PartitionError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.stable import stable_owner
from repro.partition.builder import build_edge_cut
from repro.partition.grow import grow_edge_cut
from tests.conftest import assert_partitions_equal


def stable_pg(graph, m):
    owner = {v: stable_owner(v, m) for v in graph.nodes}
    return build_edge_cut(graph, owner, m, "test")


def make_engines(pg):
    """Warm engines kept over ``pg`` while it grows: the default ship
    declaration (twice) and a mirrors-only one."""
    return [Engine(SSSPProgram(), pg, SSSPQuery(source=0)),
            Engine(CCProgram(), pg, CCQuery()),
            Engine(PageRankProgram(), pg, PageRankQuery(epsilon=1e-3))]


def assert_routes_equal_rebuild(engines, report, rebuilt):
    """The patched ship and peer sets are the ones a fresh engine over
    the rebuilt partition computes."""
    for engine in engines:
        engine.refresh_routes(report)
        fresh = Engine(engine.program, rebuilt, engine.query)
        assert engine._ship_sets == fresh._ship_sets
        for frag, ship in zip(engine.pg, engine._ship_sets):
            # and the next engine of this class is handed the patched set
            assert frag.memo(("ship_set", type(engine.program)),
                             lambda: None) is ship
    for grown, want in zip(engines[0].pg, rebuilt):
        assert grown._peers is not None  # patched, not recomputed
        assert grown.peer_fragments() == want.peer_fragments()


def random_insertions(graph, rng, n, next_id):
    """``n`` novel edges: half attach brand-new nodes, half join
    existing pairs."""
    nodes = sorted(graph.nodes)
    existing = {frozenset((u, v)) for u, v, _ in graph.edges()}
    out = []
    while len(out) < n:
        if rng.random() < 0.5:
            u = rng.choice(nodes)
            v = next_id
            next_id += 1
            nodes.append(v)
        else:
            u, v = rng.sample(nodes, 2)
        key = frozenset((u, v))
        if u == v or key in existing:
            continue
        existing.add(key)
        out.append((u, v, round(rng.uniform(0.5, 2.0), 3)))
    return out, next_id


@pytest.mark.parametrize("m", [1, 3, 4])
@pytest.mark.parametrize("make", [
    lambda: generators.grid2d(6, 6, weighted=True, seed=2),
    lambda: generators.powerlaw(120, m=2, weighted=True, seed=5),
])
def test_grow_equals_rebuild(make, m):
    graph = make()
    pg = stable_pg(graph, m)
    engines = make_engines(pg)
    for frag in pg:
        frag.peer_fragments()
    rng = random.Random(m * 101)
    next_id = max(graph.nodes) + 1
    for _ in range(4):  # several consecutive growth steps
        insertions, next_id = random_insertions(graph, rng, 6, next_id)
        report = grow_edge_cut(pg, insertions)
        for u, v, w in insertions:
            graph.add_edge(u, v, w)
        rebuilt = build_edge_cut(graph, dict(pg.owner), m, "test")
        assert_partitions_equal(pg, rebuilt)
        assert report.new_nodes <= set(pg.owner)
        # every fragment that got an edge copy integrates the batch
        assert report.touched >= {pg.owner[x] for u, v, _ in insertions
                                  for x in (u, v)}
        assert_routes_equal_rebuild(engines, report, rebuilt)


def test_grow_directed_graph():
    g = Graph(directed=True)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        g.add_edge(u, v, 1.0)
    pg = stable_pg(g, 3)
    engines = make_engines(pg)
    for frag in pg:
        frag.peer_fragments()
    report = grow_edge_cut(pg, [(1, 4, 1.0), (4, 2, 1.0), (0, 2, 1.0)])
    for u, v, w in [(1, 4, 1.0), (4, 2, 1.0), (0, 2, 1.0)]:
        g.add_edge(u, v, w)
    rebuilt = build_edge_cut(g, dict(pg.owner), 3, "test")
    assert_partitions_equal(pg, rebuilt)
    assert 4 in report.new_nodes
    assert_routes_equal_rebuild(engines, report, rebuilt)


def test_grow_rejects_vertex_cut():
    g = generators.grid2d(3, 3, weighted=True, seed=0)
    pg = stable_pg(g, 2)
    pg.cut = "vertex"
    with pytest.raises(PartitionError):
        grow_edge_cut(pg, [(0, 99, 1.0)])


def test_grow_invalidates_fragment_caches():
    g = generators.grid2d(4, 4, weighted=True, seed=1)
    pg = stable_pg(g, 2)
    frag = pg.fragments[0]
    before = frag.compact()
    frag.memo("probe", lambda: "stale")
    anchor = sorted(frag.owned)[0]
    grow_edge_cut(pg, [(anchor, 500, 1.0)])
    assert frag._memo is None or "probe" not in frag._memo
    after = frag.compact()
    assert after is not before
    assert 500 in after.lid_of  # the rebuilt view sees the new node
