"""The partition answers edge novelty as the graph would.

A service checks each insertion against the fragment of the tail's owner
(:meth:`~repro.partition.fragment.PartitionedGraph.has_edge`) instead of
a dict copy of the graph.  After every in-place growth step
(:func:`~repro.partition.grow.grow_edge_cut`) that answer must equal a
dict graph's for every pair of nodes — existing, brand-new and never
seen, either orientation — on directed and undirected graphs, over
integer ids (the CSR rows a dense service reads, appended edges in the
spill rows until a merge folds them in) and over string ids (the
fragment's dict graph the generic engine reads).  And a batch the check
rejects leaves a service untouched, on both engines.
"""

from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import CCProgram, CCQuery
from repro.errors import ProgramError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.stable import owners
from repro.partition.builder import build_edge_cut
from repro.partition.grow import grow_edge_cut
from repro.serve import GraphService, verify_against_recompute
from repro.streaming import UpdateBatch
from tests.conftest import generic

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def base_graph(data, directed, name):
    n = data.draw(st.integers(4, 14), label="nodes")
    seed = data.draw(st.integers(0, 99), label="seed")
    g = Graph(directed=directed)
    for u, v, w in generators.powerlaw(n, m=2, directed=directed,
                                       weighted=True, seed=seed).edges():
        g.add_edge(name(u), name(v), w)
    return g


def novel_edges(data, oracle, fresh):
    """Edges the oracle does not have: between known nodes (never a
    reversed duplicate of an undirected edge) or to a brand-new one."""
    nodes = list(oracle.nodes)
    edges = []
    for _ in range(data.draw(st.integers(1, 6), label="edges")):
        u = data.draw(st.sampled_from(nodes))
        v = next(fresh) if data.draw(st.booleans()) \
            else data.draw(st.sampled_from(nodes))
        if u == v or oracle.has_edge(u, v) or any(
                (u, v) == e[:2] or not oracle.directed and (v, u) == e[:2]
                for e in edges):
            continue
        edges.append((u, v, 1.0))
    return edges


def assert_same_answers(pg, oracle, absent):
    nodes = [*oracle.nodes, absent]
    for u in nodes:
        for v in nodes:
            assert pg.has_edge(u, v) == oracle.has_edge(u, v), (u, v)


@settings(**SETTINGS)
@given(directed=st.booleans(), named=st.booleans(), data=st.data())
def test_has_edge_equals_a_dict_graph_after_every_growth_step(
        directed, named, data):
    name = (lambda i: f"v{i}") if named else (lambda i: i)
    oracle = base_graph(data, directed, name)
    m = data.draw(st.integers(1, 3), label="fragments")
    pg = build_edge_cut(oracle, owners(oracle, m), m, "test")
    if not named:  # the CSR rows a dense engine asks for
        for frag in pg:
            frag.compact()
    assert pg.directed == directed
    fresh = map(name, count(1000))
    absent = name(-1)
    assert_same_answers(pg, oracle, absent)
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        edges = novel_edges(data, oracle, fresh)
        if not edges:
            continue
        grow_edge_cut(pg, edges)
        for u, v, w in edges:
            oracle.add_edge(u, v, w)
        assert_same_answers(pg, oracle, absent)
        # fold one fragment's spill rows into its CSR now and then
        merged = data.draw(st.integers(-1, m - 1), label="merge")
        if merged >= 0:
            pg.fragments[merged]._arrays.merge()
            assert_same_answers(pg, oracle, absent)


@pytest.mark.parametrize("engine", ["dense", "generic"])
@settings(**SETTINGS)
@given(directed=st.booleans(), data=st.data())
def test_a_rejected_batch_leaves_the_service_untouched(engine, directed,
                                                       data):
    program = CCProgram() if engine == "dense" else generic(CCProgram())
    g = base_graph(data, directed, lambda i: i)
    svc = GraphService(program, g, CCQuery(), num_fragments=2,
                       runtime="simulated")
    assert svc.status()["engine"] == engine
    fresh = count(1000)
    oracle = g.copy()
    applied = novel_edges(data, oracle, fresh)
    if applied:
        svc.ingest(UpdateBatch(insertions=tuple(applied)))
        svc.flush()
        for u, v, w in applied:
            oracle.add_edge(u, v, w)
    staged = novel_edges(data, oracle, fresh)
    if staged:
        svc.ingest(UpdateBatch(insertions=tuple(staged)))
    # the offender: an edge the graph has (reversed too, when
    # undirected) or one a parked batch stages, after novel ones
    known = [e[:2] for e in oracle.edges()]
    if not directed:
        known += [(v, u) for u, v in known]
    known += [e[:2] for e in staged]
    u, v = data.draw(st.sampled_from(known), label="offender")
    batch = [e for e in novel_edges(data, oracle, fresh)
             if {e[0], e[1]} != {u, v}] + [(u, v, 2.0)]
    before = (sorted(svc.graph.edges()), dict(svc.pg.owner), svc.answer,
              svc.status()["fragments"], svc.lag, svc.accepted, svc.epoch)
    with pytest.raises(ProgramError):
        svc.ingest(UpdateBatch(insertions=tuple(batch)))
    assert before == (sorted(svc.graph.edges()), dict(svc.pg.owner),
                      svc.answer, svc.status()["fragments"], svc.lag,
                      svc.accepted, svc.epoch)
    assert verify_against_recompute(svc)
