"""Generated graphs are array-born and equal the per-edge generators.

Every generator of ``repro.graph.generators`` collects its nodes and edges
into a ``GraphArrays`` and returns the ``Graph`` over it.  The oracle is
the per-edge generators they replaced (``per_edge_generators.py``, the
same RNG calls in the same order).  The property holds, for all nine
generators over sizes, seeds and their ``directed`` / ``weighted`` flags:

- once built, the dicts equal the oracle's: node order, ``edges()`` order,
  out- and in-lists, weights and labels;
- ``GraphArrays.of`` hands the arrays over as they are, and they equal
  what the edge pass reads off the oracle;
- every read answered from the arrays gives the dict graph's answer and
  builds no dict;
- every mutation leaves what it leaves on the dict-born graph, and a copy
  mutated leaves its original array-born and unchanged.

The guard at the end runs a cold vectorized build and threaded and forked
PageRank with the dict builder patched to raise.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import per_edge_generators as oracle
from repro.algorithms import PageRankProgram, PageRankQuery
from repro.core.engine import Engine
from repro.core.fixpoint import run_sequential_fixpoint
from repro.core.modes import make_policy
from repro.errors import GraphError
from repro.graph import generators
from repro.graph import graph as graph_module
from repro.graph.csr import GraphArrays, integer_ids
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime

NEW = ("new", 0)  # a node no generator makes

#: per generator, the keyword arguments a draw gives it
ARGUMENTS = {
    "erdos_renyi": lambda d: dict(
        n=d(st.integers(0, 25)), p=d(st.sampled_from([0.0, 0.1, 0.4, 1.0])),
        directed=d(st.booleans()), weighted=d(st.booleans())),
    "powerlaw": lambda d: dict(
        n=d(st.integers(5, 60)), m=d(st.integers(0, 4)),
        directed=d(st.booleans()), weighted=d(st.booleans())),
    "rmat": lambda d: dict(
        scale=d(st.integers(0, 7)), edge_factor=d(st.integers(1, 8)),
        directed=d(st.booleans()), weighted=d(st.booleans())),
    "small_world": lambda d: dict(
        n=d(st.integers(7, 40)), k=d(st.sampled_from([2, 4, 6])),
        beta=d(st.sampled_from([0.0, 0.3, 1.0])),
        weighted=d(st.booleans())),
    "grid2d": lambda d: dict(
        rows=d(st.integers(1, 9)), cols=d(st.integers(1, 9)),
        weighted=d(st.booleans())),
    "bipartite_ratings": lambda d: dict(
        num_users=d(st.integers(0, 8)), num_items=d(st.integers(3, 8)),
        ratings_per_user=d(st.integers(0, 3)), rank=d(st.integers(1, 3))),
    "path_graph": lambda d: dict(n=d(st.integers(0, 20)),
                                 weighted=d(st.booleans())),
    "star_graph": lambda d: dict(n=d(st.integers(0, 20))),
    "complete_graph": lambda d: dict(n=d(st.integers(0, 8)),
                                     directed=d(st.booleans())),
}
UNSEEDED = ("star_graph", "complete_graph")


@st.composite
def generated(draw):
    """``(name, kwargs)`` of one generator call."""
    name = draw(st.sampled_from(sorted(ARGUMENTS)))
    kwargs = ARGUMENTS[name](draw)
    if name not in UNSEEDED:
        kwargs["seed"] = draw(st.integers(0, 2 ** 16))
    return name, kwargs


def make(module, name, kwargs):
    g = getattr(module, name)(**kwargs)
    return g[0] if name == "bipartite_ratings" else g


def dicts_built(g):
    return [name for name in graph_module._DICTS if name in vars(g)]


def typed(values):
    return [(type(x), x) for x in values]


def assert_same_dicts(g, ref):
    """``g``'s dicts (built by these reads) are ``ref``'s, order included."""
    assert g.directed == ref.directed
    assert list(g.nodes) == list(ref.nodes)
    assert typed(x for e in g.edges() for x in e) \
        == typed(x for e in ref.edges() for x in e)
    for v in ref.nodes:
        assert g.out_edges(v) == ref.out_edges(v)
        assert g.in_edges(v) == ref.in_edges(v)
    assert list(g._edge_weights.items()) == list(ref._edge_weights.items())
    assert list(g._node_labels.items()) == list(ref._node_labels.items())
    assert g._edge_labels == ref._edge_labels
    assert g.num_edges == ref.num_edges
    assert (g._radj is g._adj) == (not g.directed)


def array_reads(g):
    """Every read an array-born graph answers from its arrays."""
    probes = [*list(g.nodes)[:5], NEW, -1]
    return (list(g.nodes), len(g), g.num_nodes, g.num_edges, g.directed,
            typed(x for e in g.edges() for x in e), g.node_labels(),
            [g.has_node(v) for v in probes], [v in g for v in probes],
            [(g.out_degree(v), g.in_degree(v)) for v in g.nodes])


def assert_reads_build_nothing(g, ref):
    assert g._arrays is not None and not dicts_built(g)
    assert array_reads(g) == array_reads(ref)
    for degree in ("out_degree", "in_degree"):
        with pytest.raises(GraphError, match="unknown node"):
            getattr(g, degree)(NEW)
    dup = g.copy()
    assert dup._arrays is g._arrays
    assert array_reads(dup) == array_reads(ref)
    assert not dicts_built(g) and not dicts_built(dup)


def assert_hands_its_arrays_over(g, ref):
    """``GraphArrays.of``: no edge pass, no census, what the dict read of
    the oracle gives (weights as ``float64``, the same floats)."""
    got, want = GraphArrays.of(g), GraphArrays.of(ref)
    assert got is g._arrays
    assert typed(got.nodes.tolist()) == typed(want.nodes.tolist())
    for name in ("src", "dst"):
        assert getattr(got, name).dtype == np.int64
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.weights.dtype == np.float64
    assert typed(got.weights.tolist()) == typed(want.weights.tolist())
    assert (got.directed, got.is_keyed, dict(got.labels)) \
        == (want.directed, want.is_keyed, dict(want.labels))
    census = integer_ids(want.nodes)
    assert (got.ids is None) == (census is None)
    if census is not None:
        assert got.ids.tobytes() == census.tobytes()
    assert not dicts_built(g)


def keyed(g, u, v):
    return (u, v) if g.directed or repr(u) <= repr(v) else (v, u)


def mutations(ref, rng):
    """Name -> a mutation for this graph, drawn with ``rng``."""
    nodes, edges = list(ref.nodes), list(ref.edges())
    out = {"add new node": lambda g: g.add_node(NEW, label="fresh")}
    if nodes:
        v = rng.choice(nodes)
        out["label a node"] = lambda g: g.set_node_label(v, "L")
        out["add an existing node"] = lambda g: g.add_node(v, label="x")
        out["add an edge"] = lambda g: g.add_edge(v, NEW, 2.5, label="e")
        u, w = keyed(ref, NEW, v)
        out["add novel edges"] = lambda g: g.add_novel_edges(
            [NEW], [u], [w], [4.0])
    if edges:
        a, b, weight = rng.choice(edges)
        if not ref.directed and rng.random() < 0.5:
            a, b = b, a  # either orientation names the edge
        out["rewrite a weight"] = lambda g: g.add_edge(a, b, weight + 1.5)
    return out


SETTINGS = dict(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@given(call=generated(), salt=st.integers(0, 1000))
@settings(**SETTINGS)
def test_generated_graphs_equal_the_per_edge_generators(call, salt):
    name, kwargs = call
    ref = make(oracle, name, kwargs)
    g = make(generators, name, kwargs)
    assert_reads_build_nothing(g, ref)
    assert_hands_its_arrays_over(g, ref)
    assert_same_dicts(g, ref)
    assert g._arrays is not None  # a read keeps the arrays
    assert_reads_build_nothing(make(generators, name, kwargs).copy(), ref)
    for what, mutate in mutations(ref, random.Random(salt)).items():
        g, want = make(generators, name, kwargs), make(oracle, name, kwargs)
        mutate(g)
        mutate(want)
        assert g._arrays is None, what  # the dicts are the graph now
        assert_same_dicts(g, want)
        # copy-then-mutate leaves the original as it was, array-born
        original = make(generators, name, kwargs)
        dup = original.copy()
        mutate(dup)
        assert_same_dicts(dup, want)
        assert_reads_build_nothing(original, ref)
        assert_same_dicts(original, ref)


# -- the property notices the bugs it is there for ----------------------
def unkeyed(g):
    """One undirected edge stored ``repr(u) > repr(v)``."""
    arrays = g._arrays
    src, dst = arrays.src.copy(), arrays.dst.copy()
    src[-1], dst[-1] = dst[-1], src[-1]
    return arrays._replace(src=src, dst=dst).to_graph()


def at_last_positions(g, sampled):
    """Each edge at the position of its last sample, not its first."""
    arrays, last = g._arrays, {}
    for at, (u, v) in enumerate(sampled):
        last[keyed(g, u, v)] = at
    nodes = arrays.nodes
    order = np.argsort([last[key] for key in zip(
        nodes[arrays.src].tolist(), nodes[arrays.dst].tolist())])
    return arrays._replace(src=arrays.src[order],
                           dst=arrays.dst[order]).to_graph()


def sampled_edges(kwargs, monkeypatch):
    """The edges the per-edge R-MAT samples, repeats included."""
    sampled = []

    class Recording(oracle.Graph):
        def add_edge(self, u, v, weight=1.0, label=None):
            sampled.append((u, v))
            super().add_edge(u, v, weight, label)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "Graph", Recording)
        oracle.rmat(**kwargs)
    return sampled


@pytest.mark.parametrize("directed", [True, False])
def test_property_fails_on_mutation(directed, monkeypatch):
    kwargs = dict(scale=5, edge_factor=6, directed=directed, seed=3)
    g, ref = generators.rmat(**kwargs), oracle.rmat(**kwargs)
    sampled = sampled_edges(kwargs, monkeypatch)
    assert len(sampled) > g.num_edges  # there are repeats to move
    broken = [at_last_positions(g, sampled)]
    if not directed:
        broken.append(unkeyed(g))
    for graph in broken:
        with pytest.raises(AssertionError):
            assert_same_dicts(graph, ref)
    assert_same_dicts(g, ref)


# -- the guard ---------------------------------------------------------
WORKLOAD_GRAPHS = {
    "rmat": lambda: generators.rmat(9, edge_factor=6, directed=True, seed=1),
    "powerlaw": lambda: generators.powerlaw(2_000, m=3, weighted=True,
                                            seed=1),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_GRAPHS))
def test_vectorized_build_and_runs_build_no_input_dict(name, monkeypatch):
    """Partition, ``compact()``, ``Engine(vectorized=True)``, threaded AAP
    and forked BSP PageRank never read a dict of the input graph (a forked
    worker inherits the patch)."""
    g = WORKLOAD_GRAPHS[name]()

    def boom(graph):
        raise AssertionError("the input graph built its dicts")

    monkeypatch.setattr(graph_module, "_dict_containers", boom)
    n = g.num_nodes
    query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
    tolerance = 2.0 * query.epsilon / n * (
        1 + max(g.in_degree(v) for v in g.nodes))
    pg = HashPartitioner().partition(g, 2)
    for frag in pg:
        frag.compact()
    engine = Engine(PageRankProgram(), pg, query, vectorized=True)
    assert engine.vectorized
    threaded = ThreadedRuntime(engine, make_policy("AAP"), timeout=60).run()
    forked = MultiprocessRuntime(PageRankProgram(), pg, query, mode="BSP",
                                 timeout=60, vectorized=True).run()
    reference = run_sequential_fixpoint(
        Engine(PageRankProgram(), pg, query, vectorized=True))
    for result in (threaded, forked):
        assert result.answer.keys() == reference.keys()
        assert all(abs(result.answer[v] - reference[v]) <= tolerance
                   for v in reference)
    assert not dicts_built(g) and g._arrays is not None
