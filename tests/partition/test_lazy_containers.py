"""Node sets, routing, placement, the dict graph and ``lid_of`` are built
on first read, each on its own (``built_on_read``).

A vectorized build and run reads none of them: the property here is that
every first read can be made to *raise* and partition -> ``compact()`` ->
``Engine(vectorized=True)`` -> threaded and multiprocess runs still finish
(a forked worker inherits the patch, so this covers the children too),
while a generic engine on the same partition afterwards reads containers
equal to the sets and maps the per-edge oracle of
``test_builder_equivalence.py`` builds eagerly.
"""

import pytest

from repro.algorithms import (PageRankProgram, PageRankQuery, SSSPProgram,
                              SSSPQuery)
from repro.core.engine import Engine
from repro.core.fixpoint import run_sequential_fixpoint
from repro.core.modes import make_policy
from repro.graph import generators
from repro.partition import quality
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import (Fragment, FragmentCSR,
                                      PartitionedGraph, built_on_read)
from repro.partition.grow import grow_edge_cut
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime
from test_builder_equivalence import (oracle_csr, oracle_edge_cut,
                                      oracle_edges_from_owned, oracle_sizes,
                                      oracle_summary)

SETS = ("owned", "mirrors", "in_border", "out_border", "out_copies",
        "in_copies")

#: the graphs of the four BENCHMARK.json workloads, at their quick size
WORKLOADS = {
    "pagerank-powerlaw": (PageRankProgram, lambda: generators.powerlaw(
        5_000, m=3, weighted=True, seed=1)),
    "sssp-grid": (SSSPProgram, lambda: generators.grid2d(
        40, 40, weighted=True, seed=1)),
    "pagerank-rmat": (PageRankProgram, lambda: generators.rmat(
        10, edge_factor=6, directed=True, seed=1)),
    "serve-sssp-powerlaw": (SSSPProgram, lambda: generators.powerlaw(
        2_000, m=3, weighted=True, seed=1)),
}


def query_for(program_cls, graph):
    """The benchmark's query and answer tolerance (0.0 = exact): two
    PageRank runs may each leave ``eps_node`` unshipped at every
    in-neighbour of a node plus its own pending mass."""
    if program_cls is SSSPProgram:
        return SSSPQuery(source=0), 0.0
    n = graph.num_nodes
    query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
    max_indeg = max(graph.in_degree(v) for v in graph.nodes)
    return query, 2.0 * query.epsilon / n * (1 + max_indeg)


def nothing_built(pg):
    return not (pg.built or any(frag.materialised or frag.built
                                or frag.compact().built for frag in pg))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vectorized_build_and_runs_build_no_container(name, monkeypatch):
    program_cls, make_graph = WORKLOADS[name]
    graph = make_graph()
    query, tolerance = query_for(program_cls, graph)
    eager = oracle_edge_cut(graph, HashPartitioner().assign(graph, 2), 2)
    reference = run_sequential_fixpoint(Engine(
        program_cls(), HashPartitioner().partition(graph, 2), query))

    def boom(self, obj, objtype=None):
        raise AssertionError(f"{objtype.__name__}.{self.name} was read")

    with monkeypatch.context() as patch:
        patch.setattr(built_on_read, "__get__", boom)
        pg = HashPartitioner().partition(graph, 2)
        for frag in pg:
            frag.compact()
        engine = Engine(program_cls(), pg, query, vectorized=True)
        assert engine.vectorized
        threaded = ThreadedRuntime(engine, make_policy("AAP"),
                                   timeout=60).run()
        forked = MultiprocessRuntime(program_cls(), pg, query, mode="AAP",
                                     timeout=60, vectorized=True).run()
        quality.edge_cut_ratio(pg), quality.balance(pg), repr(pg)
        assert [len(frag.peer_fragments()) for frag in pg] == [1, 1]
    assert nothing_built(pg)
    for result in (threaded, forked):
        assert result.answer.keys() == reference.keys()
        assert all(abs(result.answer[v] - reference[v]) <= tolerance
                   for v in reference)

    # the generic path reads the dict graph (its routing, like the
    # vectorized one's, comes off the arrays); each container, once
    # read, holds what an eager build has
    Engine(program_cls(), pg, query)
    assert all(frag.materialised for frag in pg)
    assert list(pg.placement.items()) == list(eager.placement.items())
    for lazy, built in zip(pg, eager.fragments):
        for attr in SETS:
            assert getattr(lazy, attr) == getattr(built, attr), attr
        assert lazy._routing == built.routing
        ref = oracle_csr(built.graph, built.owned)
        assert lazy.compact().lid_of == ref["lid_of"]
        assert lazy.compact().nodes == ref["nodes"]


def test_public_classes_from_birth_and_one_attribute_per_read():
    graph = generators.grid2d(5, 5, weighted=True, seed=2)
    pg = HashPartitioner().partition(graph, 2)
    frag = pg.fragments[0]
    view = frag.compact()
    objects = ((pg, PartitionedGraph), (frag, Fragment), (view, FragmentCSR))
    for lazy, public in objects:
        assert type(lazy) is public and "__getattr__" not in dir(public)
        assert not lazy.built
        with pytest.raises(AttributeError):
            lazy.no_such_attribute
        assert not lazy.built
    assert not isinstance(Fragment.graph, property)
    mirrors = frag.mirrors
    assert isinstance(mirrors, set) and frag.mirrors is mirrors
    assert frag.built and "owned" not in vars(frag)  # each on its own
    assert frag.compact() is view and not frag.materialised
    assert isinstance(frag._routing, dict)
    assert isinstance(next(iter(frag._routing.values())), tuple)
    assert isinstance(pg.placement, dict) and view.lid_of[view.nodes[0]] == 0
    for lazy, public in objects:
        assert type(lazy) is public and lazy.built
    assert not pg.fragments[1].built  # each object on its own


def test_a_view_has_the_array_routes_whatever_was_read_first(monkeypatch):
    graph = generators.grid2d(6, 6, weighted=True, seed=2)
    query = SSSPQuery(source=0)
    reference = run_sequential_fixpoint(
        Engine(SSSPProgram(), HashPartitioner().partition(graph, 2), query))
    pg = HashPartitioner().partition(graph, 2)
    unread = HashPartitioner().partition(graph, 2)
    for frag, want in zip(pg, (frag.compact() for frag in unread)):
        frag.owned, frag._routing, frag.graph
        view = frag.compact()
        for name in ("owner", "routed", "peers", "owned_mask"):
            assert getattr(view, name).tolist() \
                == getattr(want, name).tolist(), name

    def boom(self, v):
        raise AssertionError("routing was read from the routing dict")

    with monkeypatch.context() as patch:
        patch.setattr(Fragment, "locations", boom)
        engine = Engine(SSSPProgram(), pg, query, vectorized=True)
    assert engine.vectorized
    assert run_sequential_fixpoint(engine) == reference


def test_growth_keeps_the_arrays_the_truth():
    graph = generators.grid2d(6, 6, weighted=True, seed=2)
    pg = HashPartitioner().partition(graph, 2)
    owners = dict(pg.owner)
    u = min(v for v, fid in owners.items() if fid == 0)
    v = next(v for v in sorted(owners)
             if owners[v] == 1 and not graph.has_edge(u, v))
    views = [frag.compact() for frag in pg]
    assert grow_edge_cut(pg, [(u, v, 1.0)]).touched == {0, 1}
    for frag, view in zip(pg, views):
        # growth read no container and built none; the view is for life
        assert not frag.built and not frag.materialised
        assert frag.compact() is view and view.spilled == 1
        assert view.owner.tolist() == [owners[w] for w in view.nodes]
        # the sets come from the grown arrays
        assert view.owned_mask.tolist() \
            == [w in frag.owned for w in view.nodes]
        assert {u, v} & frag.mirrors and {u, v} <= set(frag._routing)


def test_counting_edges_and_sizes_builds_nothing():
    graph = generators.powerlaw(120, m=3, weighted=True, seed=5)
    pg = HashPartitioner().partition(graph, 3)
    eager = oracle_edge_cut(graph, HashPartitioner().assign(graph, 3), 3)
    assert [f.num_edges_from_owned() for f in pg] \
        == [oracle_edges_from_owned(f) for f in eager.fragments]
    assert pg.sizes() == oracle_sizes(eager)
    assert [repr(f) for f in pg] == [
        f"Fragment(fid={fid}, owned={len(f.owned)}, "
        f"mirrors={len(f.mirrors)}, edges={f.graph.num_edges})"
        for fid, f in enumerate(eager.fragments)]
    assert quality.edge_cut_ratio(pg) \
        == oracle_summary(eager)["edge_cut_ratio"]
    assert not any(frag.built for frag in pg)
