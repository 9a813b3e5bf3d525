"""Every program's routing rule equals the per-node rules it restates.

``oracle_destinations`` is where a change of one node went when programs
declared routing node by node (a ship set, then ``destinations`` per
node), written out from ``frag.mirrors`` / ``frag.locations`` /
``pg.owner``.  The property holds the one rule each program states
(``PIEProgram.routes``) to it — all seven programs of the repo plus the
default rule, CF under both aggregation schemes — on hash, range, skewed
and stable edge-cut and on vertex-cut partitions, over integer and
string ids, before and after in-place growth (whole fragments, and the
few lids growth names).  The mutation tests show it notices the three
ways a rule can be wrong.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.dense as dense_module
from repro.algorithms import (CCProgram, CCQuery, CFProgram,
                              PageRankProgram, ReachabilityProgram,
                              SSSPProgram, SSSPQuery)
from repro.compat.mapreduce import (MapReduceJob, MapReduceOnPIE,
                                    Subroutine, identity_mapper,
                                    identity_reducer)
from repro.compat.pregel import PregelAdapter, PregelVertexProgram
from repro.core.engine import Engine
from repro.core.pie import PIEProgram
from repro.errors import ProgramError
from repro.graph import generators, stable
from repro.graph.graph import Graph
from repro.partition.builder import build_edge_cut
from repro.partition.edge_cut import HashPartitioner, RangePartitioner
from repro.partition.fragment import Fragment
from repro.partition.grow import grow_edge_cut
from repro.partition.skew import reshuffle_to_skew
from repro.partition.vertex_cut import HashEdgePartitioner


class Relay(PregelVertexProgram):
    """A vertex program for the adapter to wrap (routing ignores it)."""

    def initial_value(self, vid, graph):
        return vid

    def compute(self, ctx, messages, superstep):
        ctx.vote_to_halt()

    def combine(self, a, b):
        return min(a, b)


class Default(SSSPProgram):
    """A program that states no rule of its own."""

    routes = PIEProgram.routes


PROGRAMS = {
    "default": Default,
    "sssp": SSSPProgram,
    "cc": CCProgram,
    "reach": ReachabilityProgram,
    "pagerank": PageRankProgram,
    "pregel": lambda: PregelAdapter(Relay()),
    "mapreduce": lambda: MapReduceOnPIE(MapReduceJob(
        (Subroutine(identity_mapper, identity_reducer),))),
    "cf-gossip": lambda: CFProgram(aggregation="gossip"),
    "cf-server": lambda: CFProgram(aggregation="server"),
}
PARTITIONS = ("hash", "range", "skewed", "stable", "vertex")


def is_item(v):
    return isinstance(v, tuple) and v[0] == "p"


def oracle_destinations(name, pg, frag, v):
    """Where a change of ``v`` on ``frag`` went under the per-node rules:
    a ship set of candidates that reside elsewhere, then per node its
    destinations."""
    located = frag.locations(v)
    if not located:  # nothing ships what resides nowhere else
        return ()
    to_owner = (pg.owner[v],) if v in frag.mirrors else ()
    if name in ("pagerank", "pregel", "mapreduce"):
        return to_owner
    if name.startswith("cf"):
        if not is_item(v):
            return ()
        if name == "cf-server" and v in frag.mirrors:
            return to_owner
        return located
    if name != "default" and frag.cut == "edge":
        return to_owner
    # the default candidates: every shared node; to every other holder
    return located if frag.is_shared(v) else ()


def oracle_routes(name, pg, frag):
    """``(routes, ship_mask)`` over the fragment's lids, node by node."""
    view = frag._arrays
    routes = {}
    ship_mask = np.zeros(len(view), dtype=bool)
    for lid, v in enumerate(view.gids.tolist()):
        for dst in oracle_destinations(name, pg, frag, v):
            ship_mask[lid] = True
            routes.setdefault(dst, np.zeros(len(view), dtype=bool))[lid] \
                = True
    return routes, ship_mask


def assert_routes_equal_oracle(name, program, pg, lids_of=None):
    """The rule on every fragment equals the oracle; with ``lids_of``
    (fragment -> lids), the rule asked about those lids only equals the
    oracle at them."""
    for frag in pg:
        want_routes, want_ship = oracle_routes(name, pg, frag)
        if lids_of is None:
            got_routes, got_ship = program.routes(pg, frag)
            assert sorted(got_routes) == sorted(want_routes), frag.fid
        else:
            lids = lids_of.get(frag.fid)
            if not lids:
                continue
            got_routes, got_ship = program.routes(pg, frag, lids)
            want_ship = want_ship[lids]
            want_routes = {dst: mask[lids]
                           for dst, mask in want_routes.items()}
            for dst in got_routes.keys() - want_routes.keys():
                want_routes[dst] = np.zeros(len(lids), dtype=bool)
        assert np.asarray(got_ship, dtype=bool).tolist() \
            == want_ship.tolist(), frag.fid
        for dst, mask in want_routes.items():
            got = got_routes.get(dst, np.zeros(len(mask), dtype=bool))
            assert np.asarray(got, dtype=bool).tolist() == mask.tolist(), \
                (frag.fid, dst)


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


def make_graph(name, n, directed, strings, rng, seed):
    """A random graph the program runs on: a rating graph for CF (its ids
    are tuples), else an Erdős–Rényi graph over integer or string ids."""
    if name.startswith("cf"):
        items = max(2, n // 3)
        graph, _, _ = generators.bipartite_ratings(
            max(2, n // 2), items, rng.randint(1, min(3, items)), seed=seed)
        return graph
    graph = generators.erdos_renyi(n, rng.uniform(0.05, 0.4),
                                   directed=directed, seed=seed)
    if not strings:
        return graph
    named = Graph(directed=directed)
    for v in graph.nodes:
        named.add_node(f"v{v}")
    for u, v, w in graph.edges():
        named.add_edge(f"v{u}", f"v{v}", w)
    return named


def novel_edges(graph, rng, count, fresh):
    """``count`` insertions growth accepts: no self-loop, no edge the
    graph has, no repeat; some between existing nodes, some to the
    brand-new ids ``fresh``."""
    nodes = sorted(graph.nodes, key=repr)
    out, seen = [], set()
    for _ in range(20 * count):
        if len(out) == count:
            break
        u = rng.choice(nodes)
        v = rng.choice(nodes + fresh)
        key = (u, v) if graph.directed else frozenset((u, v))
        if u == v or key in seen or (v in graph.nodes
                                     and graph.has_edge(u, v)):
            continue
        seen.add(key)
        out.append((u, v, round(rng.uniform(1.0, 3.0), 2)))
    return out


def fresh_ids(name, strings):
    if name.startswith("cf"):
        return [("p", 1000 + k) for k in range(3)] \
            + [("u", 1000 + k) for k in range(3)]
    return [f"v{1000 + k}" if strings else 1000 + k for k in range(4)]


@given(name=st.sampled_from(sorted(PROGRAMS)),
       how=st.sampled_from(PARTITIONS), m=st.integers(1, 5),
       n=st.integers(2, 40), directed=st.booleans(),
       strings=st.booleans(), grow=st.booleans(),
       seed=st.integers(0, 1000))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_array_routes_equal_the_per_node_oracle(name, how, m, n, directed,
                                                strings, grow, seed):
    rng = random.Random(seed)
    graph = make_graph(name, n, directed, strings, rng, seed)
    program = PROGRAMS[name]()
    pg = partition(graph, how, m, seed)
    assert_routes_equal_oracle(name, program, pg)
    if grow and pg.cut == "edge":
        edges = novel_edges(graph, rng, rng.randint(1, 6),
                            fresh_ids(name, strings))
        report = grow_edge_cut(pg, edges)
        assert_routes_equal_oracle(
            name, program, pg,
            {fid: list(nodes.values())
             for fid, nodes in report.rerouted.items()})
        assert_routes_equal_oracle(name, program, pg)


# -- the property notices the bugs it is there for ----------------------
def fixed_cases():
    graph = generators.powerlaw(200, m=2, weighted=True, seed=3)
    return [("sssp", SSSPProgram(), partition(graph, "stable", 3, 0)),
            ("cc", CCProgram(), partition(graph, "vertex", 3, 0)),
            ("pagerank", PageRankProgram(), partition(graph, "hash", 3, 0))]


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
            view = frag._arrays
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
    for name, program, pg in fixed_cases():
        try:
            assert_routes_equal_oracle(name, program, pg)
        except AssertionError:
            failed += 1
    # the owner rule serves two of the three cases, the copies rule one
    assert failed >= (2 if mutate is route_a_mirror_to_a_non_owner else 3)


def test_property_passes_unmutated():
    for name, program, pg in fixed_cases():
        assert_routes_equal_oracle(name, program, pg)


# -- the engine's side --------------------------------------------------
def engine_routes(engine, wid):
    """An engine's routing of one fragment, empty masks left out."""
    return ({dst: mask.tolist() for dst, mask in engine._routes[wid].items()
             if mask.any()}, engine._ship_masks[wid].tolist())


def test_engine_checks_an_array_rule_against_the_routing_index(monkeypatch):
    ship_an_unshared_node(monkeypatch)
    graph = generators.grid2d(5, 5, weighted=True, seed=2)
    pg = RangePartitioner().partition(graph, 2)  # interior nodes exist
    for vectorized in (True, False):
        with pytest.raises(ProgramError, match="resides nowhere else"):
            Engine(SSSPProgram(), pg, SSSPQuery(source=0),
                   vectorized=vectorized)


def test_grown_fragments_keep_the_array_rule(monkeypatch):
    """A warm engine — vectorized or generic — patches the bits growth
    names, without restating the rule on whole fragments; a new one
    states it on the grown arrays; neither asks the routing dict."""
    graph = generators.grid2d(5, 5, weighted=True, seed=2)
    pg = HashPartitioner().partition(graph, 2)
    program = CCProgram()
    warm = [Engine(program, pg, CCQuery(), vectorized=vectorized)
            for vectorized in (True, False)]
    assert warm[0].vectorized and not warm[1].vectorized
    u = min(pg.fragments[0].owned)
    v = next(v for v in sorted(pg.fragments[1].owned)
             if not graph.has_edge(u, v))
    report = grow_edge_cut(pg, [(u, v, 0.5), (u, 777, 0.5)],
                           assign=lambda v, m: 1)
    assert report.touched == {0, 1}

    def boom(*args):
        raise AssertionError("routing was not read off the arrays")
    monkeypatch.setattr(Fragment, "locations", boom)
    with monkeypatch.context() as patch:
        patch.setattr(Engine, "_checked_routes", boom)
        for engine in warm:
            engine.extend_contexts(report)
            engine.refresh_routes(report)
    fresh = Engine(program, pg, CCQuery(), vectorized=True)
    monkeypatch.undo()
    assert_routes_equal_oracle("cc", program, pg)
    for frag in pg:
        routes, ship_mask = oracle_routes("cc", pg, frag)
        for engine in (*warm, fresh):
            assert engine_routes(engine, frag.fid) == (
                {dst: mask.tolist() for dst, mask in routes.items()},
                ship_mask.tolist())


def test_programs_state_routing_once():
    """Routing has one declaration: no program in the repo spells out a
    per-node routing hook, and each of the seven states its rule in
    ``routes``."""
    import repro.algorithms  # noqa: F401  (registers the subclasses)
    import repro.compat.mapreduce  # noqa: F401
    import repro.compat.pregel  # noqa: F401

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    gone = {"candidates", "ship_set", "ships", "destinations",
            "dense_routes"}
    stating = set()
    for cls in walk(PIEProgram):
        if cls.__module__.startswith("repro."):
            assert not gone & set(vars(cls)), cls.__name__
            if "routes" in vars(cls):
                stating.add(cls.__name__)
    assert stating >= {"SSSPProgram", "CCProgram", "ReachabilityProgram",
                       "PageRankProgram", "CFProgram", "PregelAdapter",
                       "MapReduceOnPIE"}
