"""Array routing rules equal the per-node declarations they restate.

``oracle_routes`` is the per-node route loop the engine ran for every
program before the programs in the repo stated their rule on arrays
(``PIEProgram.dense_routes``): the checked ship set, then ``destinations``
node by node.  The property holds the array form of SSSP, CC and PageRank
to it on edge-cut and vertex-cut partitions, and the mutation tests show
it notices the three ways an array rule can be wrong.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.dense as dense_module
from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              SSSPProgram, SSSPQuery)
from repro.core.engine import Engine
from repro.core.pie import PIEProgram
from repro.errors import ProgramError
from repro.graph import generators, stable
from repro.partition.builder import build_edge_cut
from repro.partition.edge_cut import HashPartitioner, RangePartitioner
from repro.partition.skew import reshuffle_to_skew
from repro.partition.vertex_cut import HashEdgePartitioner

PROGRAMS = {"sssp": SSSPProgram, "cc": CCProgram, "pagerank": PageRankProgram}
PARTITIONS = ("hash", "range", "skewed", "stable", "vertex")


def oracle_routes(program, pg, frag):
    """``(routes, ship_mask)`` the per-node way."""
    ship = set(program.ship_set(frag))
    Engine._check_shippable(frag, ship)
    view = frag.compact()
    routes = {}
    ship_mask = np.zeros(len(view), dtype=bool)
    for v in ship:
        for dst in program.destinations(pg, frag, v):
            ship_mask[view.lid_of[v]] = True
            routes.setdefault(dst, np.zeros(len(view), dtype=bool))[
                view.lid_of[v]] = True
    return routes, ship_mask


def partition(graph, how, m, seed):
    if how == "hash":
        return HashPartitioner(salt=seed % 5).partition(graph, m)
    if how == "range":
        return RangePartitioner().partition(graph, m)
    if how == "skewed":
        return reshuffle_to_skew(graph, HashPartitioner().assign(graph, m),
                                 m, target_ratio=2.0, seed=seed)
    if how == "stable":
        return build_edge_cut(
            graph, {v: stable.owner(v, m) for v in graph.nodes}, m, "stable")
    return HashEdgePartitioner(salt=seed % 5).partition(graph, m)


def assert_routes_equal_oracle(program, pg):
    for frag in pg:
        got_routes, got_ship = program.dense_routes(pg, frag)
        want_routes, want_ship = oracle_routes(program, pg, frag)
        assert got_ship.tolist() == want_ship.tolist(), frag.fid
        assert sorted(got_routes) == sorted(want_routes), frag.fid
        for dst, mask in want_routes.items():
            assert got_routes[dst].tolist() == mask.tolist(), (frag.fid, dst)


@given(name=st.sampled_from(sorted(PROGRAMS)),
       how=st.sampled_from(PARTITIONS), m=st.integers(1, 5),
       n=st.integers(2, 40), directed=st.booleans(),
       seed=st.integers(0, 1000))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_array_routes_equal_the_per_node_oracle(name, how, m, n, directed,
                                                seed):
    rng = random.Random(seed)
    graph = generators.erdos_renyi(n, rng.uniform(0.05, 0.4),
                                   directed=directed, seed=seed)
    assert_routes_equal_oracle(PROGRAMS[name](), partition(graph, how, m,
                                                           seed))


# -- the property notices the bugs it is there for ----------------------
def fixed_cases():
    graph = generators.powerlaw(200, m=2, weighted=True, seed=3)
    return [(SSSPProgram(), partition(graph, "stable", 3, 0)),
            (CCProgram(), partition(graph, "vertex", 3, 0)),
            (PageRankProgram(), partition(graph, "hash", 3, 0))]


def route_a_mirror_to_a_non_owner(monkeypatch):
    original = dense_module.routes_to_owner

    def broken(frag, lids=None):
        routes, ship_mask = original(frag)
        dst = min(routes)
        other = next(fid for fid in range(3) if fid not in (dst, frag.fid))
        moved = routes[dst].copy()
        lid = int(np.flatnonzero(moved)[0])
        moved[lid] = False
        target = routes.get(other, np.zeros_like(moved)).copy()
        target[lid] = True
        return {**routes, dst: moved, other: target}, ship_mask
    monkeypatch.setattr(dense_module, "routes_to_owner", broken)


def drop_one_destination(monkeypatch):
    for rule in ("routes_to_owner", "routes_to_copies"):
        original = getattr(dense_module, rule)

        def broken(frag, lids=None, original=original):
            routes, ship_mask = original(frag)
            dst = min(routes)
            fewer = routes[dst].copy()
            fewer[np.flatnonzero(fewer)[0]] = False
            return {**routes, dst: fewer}, ship_mask
        monkeypatch.setattr(dense_module, rule, broken)


def ship_an_unshared_node(monkeypatch):
    for rule in ("routes_to_owner", "routes_to_copies"):
        original = getattr(dense_module, rule)

        def broken(frag, lids=None, original=original):
            routes, ship_mask = original(frag)
            view = frag.compact()
            shared = np.zeros(len(view), dtype=bool)
            shared[view.routed] = True
            more = ship_mask.copy()
            more[np.flatnonzero(~shared)[0]] = True
            return routes, more
        monkeypatch.setattr(dense_module, rule, broken)


@pytest.mark.parametrize("mutate", [route_a_mirror_to_a_non_owner,
                                    drop_one_destination,
                                    ship_an_unshared_node])
def test_property_fails_on_mutation(mutate, monkeypatch):
    mutate(monkeypatch)
    failed = 0
    for program, pg in fixed_cases():
        try:
            assert_routes_equal_oracle(program, pg)
        except AssertionError:
            failed += 1
    # the owner rule serves two of the three cases, the copies rule one
    assert failed >= (2 if mutate is route_a_mirror_to_a_non_owner else 3)


def test_property_passes_unmutated():
    for program, pg in fixed_cases():
        assert_routes_equal_oracle(program, pg)


# -- the engine's side --------------------------------------------------
def test_engine_checks_an_array_rule_against_the_routing_index(monkeypatch):
    ship_an_unshared_node(monkeypatch)
    graph = generators.grid2d(5, 5, weighted=True, seed=2)
    pg = RangePartitioner().partition(graph, 2)  # interior nodes exist
    with pytest.raises(ProgramError, match="resides nowhere else"):
        Engine(SSSPProgram(), pg, SSSPQuery(source=0), vectorized=True)


def test_a_program_without_an_array_rule_gets_the_per_node_loop():
    class Plain(SSSPProgram):
        def dense_routes(self, pg, frag):
            return None

    graph = generators.grid2d(6, 6, weighted=True, seed=2)
    pg = HashPartitioner().partition(graph, 3)
    plain = Engine(Plain(), pg, SSSPQuery(source=0), vectorized=True)
    ruled = Engine(SSSPProgram(), pg, SSSPQuery(source=0), vectorized=True)
    assert plain.vectorized and ruled.vectorized
    for wid in range(3):
        assert plain._dense_ship_masks[wid].tolist() \
            == ruled._dense_ship_masks[wid].tolist()
        assert {d: m.tolist() for d, m in plain._dense_routes[wid].items()} \
            == {d: m.tolist() for d, m in ruled._dense_routes[wid].items()}


def test_a_program_without_an_array_rule_follows_growth_per_node():
    """Its masks are patched from ``ships`` / ``destinations`` of the
    nodes growth names, and end up what the array rule's are."""
    from repro.partition.grow import grow_edge_cut

    class Plain(SSSPProgram):
        def dense_routes(self, pg, frag, lids=None):
            return None

    graph = generators.grid2d(6, 6, weighted=True, seed=2)
    pg = HashPartitioner().partition(graph, 3)
    engines = [Engine(program, pg, SSSPQuery(source=0), vectorized=True)
               for program in (Plain(), SSSPProgram())]
    u = min(pg.fragments[0].owned)
    v = next(v for v in sorted(pg.fragments[1].owned)
             if not graph.has_edge(u, v))
    report = grow_edge_cut(pg, [(u, v, 0.5), (v, 500, 1.0), (500, 501, 1.0)])
    for engine in engines:
        engine.extend_contexts(report)
        engine.refresh_routes(report)
    plain, ruled = engines
    for wid in range(3):
        assert plain._dense_ship_masks[wid].tolist() \
            == ruled._dense_ship_masks[wid].tolist()
        assert {d: m.tolist() for d, m in plain._dense_routes[wid].items()
                if m.any()} \
            == {d: m.tolist() for d, m in ruled._dense_routes[wid].items()
                if m.any()}
    assert_routes_equal_oracle(SSSPProgram(), pg)


def test_grown_fragments_keep_the_array_rule(monkeypatch):
    """A warm engine patches the bits growth names; a new one states the
    rule on the grown arrays; neither runs the per-node loop."""
    from repro.partition.grow import grow_edge_cut
    graph = generators.grid2d(5, 5, weighted=True, seed=2)
    pg = HashPartitioner().partition(graph, 2)
    program = CCProgram()
    warm = Engine(program, pg, CCQuery(), vectorized=True)
    u = min(pg.fragments[0].owned)
    v = next(v for v in sorted(pg.fragments[1].owned)
             if not graph.has_edge(u, v))
    report = grow_edge_cut(pg, [(u, v, 0.5), (u, 777, 0.5)],
                           assign=lambda v, m: 1)
    assert report.touched == {0, 1}
    monkeypatch.setattr(Engine, "_checked_ship_set", None)
    warm.extend_contexts(report)
    warm.refresh_routes(report)
    fresh = Engine(program, pg, CCQuery(), vectorized=True)
    monkeypatch.undo()
    assert_routes_equal_oracle(program, pg)
    for frag in pg:
        routes, ship_mask = oracle_routes(program, pg, frag)
        for engine in (warm, fresh):
            assert engine._dense_ship_masks[frag.fid].tolist() \
                == ship_mask.tolist()
            assert {dst: mask.tolist() for dst, mask
                    in engine._dense_routes[frag.fid].items()
                    if mask.any()} \
                == {dst: mask.tolist() for dst, mask in routes.items()}


def test_route_declarations_are_overridden_together():
    """A dense-capable program that spells out ``ship_set`` or
    ``destinations`` states the same rule on arrays, in the same class."""
    import repro.algorithms  # noqa: F401  (registers the subclasses)
    import repro.compat.mapreduce  # noqa: F401
    import repro.compat.pregel  # noqa: F401

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    checked = 0
    for cls in walk(PIEProgram):
        if cls.__module__.startswith("repro.") and cls.dense_capable:
            per_node = {"ship_set", "destinations"} & set(vars(cls))
            assert bool(per_node) == ("dense_routes" in vars(cls)), \
                cls.__name__
            checked += 1
    assert checked >= 3
