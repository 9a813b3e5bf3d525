"""In-place partition growth must equal a from-scratch rebuild: the
array form it grows (modulo the order of local ids), the containers that
were built before it (patched in place) and the ones built after it (from
the grown arrays)."""

import random
from collections import Counter

import pytest

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.core.engine import Engine
from repro.errors import PartitionError
from repro.graph import generators, stable
from repro.graph.graph import Graph
from repro.partition.builder import build_edge_cut
from repro.partition.fragment import BORDER_SETS, Fragment
from repro.partition.grow import grow_edge_cut
from tests.conftest import assert_partitions_equal

CONTAINERS = ("owned", "mirrors", *BORDER_SETS, "_routing", "graph")


def stable_pg(graph, m):
    owner = {v: stable.owner(v, m) for v in graph.nodes}
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


def assert_arrays_equal_rebuild(pg, rebuilt):
    """The grown array form holds what a rebuild's does, modulo the order
    of local ids: per node its owner and its four border bits, the
    routing pairs, and the edges either accessor yields — CSR rows and the
    rows appended after them alike."""
    def per_node(view, values):
        return dict(zip(view.gids.tolist(), values.tolist()))

    def edges(view, accessor):
        src, dst, weights = accessor()
        return Counter(zip(view.gids[src].tolist(), view.gids[dst].tolist(),
                           weights.tolist()))

    for frag, want in zip(pg, rebuilt):
        view, ref = frag.compact(), want.compact()
        assert view is frag._arrays and view.fragment is frag
        assert per_node(view, view.owner) == per_node(ref, ref.owner)
        assert per_node(view, view.owned_mask) \
            == per_node(ref, ref.owned_mask)
        for name in BORDER_SETS:
            assert per_node(view, view.borders[name]) \
                == per_node(ref, ref.borders[name]), name
        assert sorted(zip(view.gids[view.routed].tolist(),
                          view.peers.tolist())) \
            == sorted(zip(ref.gids[ref.routed].tolist(),
                          ref.peers.tolist()))
        assert edges(view, view.out_edges) == edges(ref, ref.out_edges)
        assert edges(view, view.in_edges) == edges(ref, ref.in_edges)
        assert view.num_edges == ref.num_edges
        assert frag.peer_fragments() == want.peer_fragments()
        assert (frag.size, repr(frag)) == (want.size, repr(want))


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
        assert_arrays_equal_rebuild(pg, rebuilt)
        assert report.new_nodes <= set(pg.owner)
        # every fragment that got an edge copy integrates the batch
        assert report.touched >= {pg.owner[x] for u, v, _ in insertions
                                  for x in (u, v)}
        assert set(report.inserted) == {pg.owner[x] for u, v, _ in insertions
                                        for x in (u, v)}
        assert_routes_equal_rebuild(engines, report, rebuilt)


def hand_made(graph, m):
    from test_builder_equivalence import oracle_edge_cut
    return oracle_edge_cut(
        graph, {v: stable.owner(v, m) for v in graph.nodes}, m, "test")


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("prepared", ["untouched", "compacted", "half-read",
                                      "all-read", "hand-made"])
def test_growth_is_on_the_arrays_and_patches_what_was_built(prepared,
                                                            directed, m):
    """One growth algorithm, whatever exists when it runs: nothing but
    the builder's arrays, a CSR (the new edges are its spill), some or
    all containers (patched in place — the same objects afterwards), or a
    hand-made fragment's containers (its array form is derived once)."""
    graph = generators.erdos_renyi(40, 0.08, directed=directed, seed=m)
    for u, v, _ in list(graph.edges()):  # weights that tell edges apart
        graph.add_edge(u, v, 1.0 + ((u * 7 + v) % 5) / 4)
    pg = hand_made(graph, m) if prepared == "hand-made" \
        else stable_pg(graph, m)
    for frag in pg:
        if prepared != "untouched":
            frag.compact()
        if prepared == "half-read":
            frag.mirrors, frag.in_border, frag._routing
        if prepared == "all-read":
            [getattr(frag, name) for name in CONTAINERS]
            pg.placement
    held = [{name: vars(frag)[name] for name in CONTAINERS
             if name in vars(frag)} for frag in pg]
    views = [vars(frag).get("_arrays") for frag in pg]
    rng = random.Random(f"{prepared}-{directed}-{m}")
    next_id = max(graph.nodes) + 1
    for _ in range(3):
        insertions, next_id = random_insertions(graph, rng, 5, next_id)
        report = grow_edge_cut(pg, insertions)
        for u, v, w in insertions:
            graph.add_edge(u, v, w)
        rebuilt = build_edge_cut(graph, dict(pg.owner), m, "test")
        # the lids the report names are the nodes' own (a dense engine
        # re-decides routing at exactly those)
        for fid, nodes in report.rerouted.items():
            arrays = pg.fragments[fid]._arrays
            assert {v: arrays.lid(v) for v in nodes} == nodes
        for frag, before, view in zip(pg, held, views):
            # growth built no container; the ones there were patched
            assert {name for name in CONTAINERS if name in vars(frag)} \
                == set(before)
            assert all(vars(frag)[name] is obj
                       for name, obj in before.items())
            assert view is None or frag._arrays is view  # for life
        assert_arrays_equal_rebuild(pg, rebuilt)
    assert_partitions_equal(pg, rebuilt)  # and the containers read now
    assert type(pg.fragments[0]) is Fragment


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
    """What is memoized on a fragment goes; its array form and the
    ``lid_of`` somebody read stay and see the new node."""
    g = generators.grid2d(4, 4, weighted=True, seed=1)
    pg = stable_pg(g, 2)
    frag = pg.fragments[0]
    before = frag.compact()
    lid_of, size = before.lid_of, len(before)
    frag.memo("probe", lambda: "stale")
    anchor = sorted(frag.owned)[0]
    grow_edge_cut(pg, [(anchor, 500, 1.0)], assign=lambda v, m: 0)
    assert frag._memo is None or "probe" not in frag._memo
    assert frag.compact() is before and before.lid_of is lid_of
    assert lid_of[500] == before.lid(500) == size  # the next lid


def test_an_id_that_is_no_integer_joins_a_fragment_of_integers():
    joins_a_fragment_of_integers("x")


def test_an_id_beyond_int64_joins_a_fragment_of_integers():
    joins_a_fragment_of_integers(2 ** 64)


def joins_a_fragment_of_integers(new):
    """The fragment stops looking ids up by binary search and goes on as
    one made with such ids (``lid_of``); only a fragment somebody runs
    dense kernels on (it has a CSR) cannot take one."""
    graph = generators.grid2d(4, 4, weighted=True, seed=1)
    pg = stable_pg(graph, 2)
    engine = Engine(SSSPProgram(), pg, SSSPQuery(source=0))
    edges = [(0, new, 1.0), (new, (1, 2), 2.0), (5, new, 0.5)]
    report = grow_edge_cut(pg, edges)
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    assert report.new_nodes == {new, (1, 2)}
    rebuilt = build_edge_cut(graph, dict(pg.owner), 2, "test")
    assert_partitions_equal(pg, rebuilt)
    for frag in pg:
        view = frag._arrays
        assert [view.lid(v) for v in view.gids.tolist()] \
            == list(range(len(view)))
    engine.extend_contexts(report)
    engine.refresh_routes(report)
    with pytest.raises(PartitionError, match="non-negative integer"):
        pg.fragments[pg.owner[new]].compact()

    dense = stable_pg(generators.grid2d(4, 4, weighted=True, seed=1), 2)
    for frag in dense:
        frag.compact()
    with pytest.raises(PartitionError, match="non-negative integer"):
        grow_edge_cut(dense, [(0, new, 1.0)])
