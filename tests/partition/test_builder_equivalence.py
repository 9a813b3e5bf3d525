"""The array-native partition build equals the per-edge builder it replaced.

``oracle_edge_cut`` / ``oracle_vertex_cut`` are that builder, kept here as
the straight-line reference: one ``add_node`` / ``add_edge`` and eight
``set.add`` per node and edge.  ``oracle_csr`` is the CSR view spelt out
the same way.  The property compares everything a runtime can observe:
owner, placement, routing, the six border sets, the CSR arrays byte for
byte, and — once materialised — the dict graph's node, adjacency and
``edges()`` order, which generic-path schedules depend on.

``oracle_graph_arrays`` is the edge pass every dict graph took before
integer ids were read from the edge-key dict: one streamed pass over
``edges()`` into a record array, then a dict lookup per endpoint.
``GraphArrays.of`` is held to it byte for byte, and so are the partitions
built on either.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (PageRankProgram, PageRankQuery, SSSPProgram,
                              SSSPQuery)
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.errors import GraphError, PartitionError
from repro.core.fixpoint import run_sequential_fixpoint
from repro.graph import csr as csr_module
from repro.graph import generators, stable
from repro.graph.csr import CompactGraph, GraphArrays, integer_ids
from repro.graph.graph import Graph
from repro.partition import quality
from repro.partition.base import NodePartitioner
from repro.partition.builder import build_edge_cut, build_vertex_cut
from repro.partition.edge_cut import HashPartitioner
from repro.partition import fragment as fragment_module
from repro.partition.fragment import (Fragment, PartitionedGraph,
                                      insertion_order)
from repro.partition.grow import grow_edge_cut
from repro.partition.vertex_cut import HashEdgePartitioner
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime

SETS = ("owned", "mirrors", "in_border", "out_border", "out_copies",
        "in_copies")
CSR_ARRAYS = ("out_indptr", "out_indices", "out_weights", "in_indptr",
              "in_indices", "in_weights")


# -- the oracle --------------------------------------------------------
def oracle_edge_cut(g, owner, m, strategy_name="custom"):
    local_graphs = [Graph(directed=g.directed) for _ in range(m)]
    owned = [set() for _ in range(m)]
    mirrors = [set() for _ in range(m)]
    in_border = [set() for _ in range(m)]
    out_border = [set() for _ in range(m)]
    out_copies = [set() for _ in range(m)]
    in_copies = [set() for _ in range(m)]
    presence = {}

    for v in g.nodes:
        fid = owner[v]
        owned[fid].add(v)
        local_graphs[fid].add_node(v, g.node_label(v))
        presence.setdefault(v, set()).add(fid)

    for u, v, w in g.edges():
        fu, fv = owner[u], owner[v]
        # the edge has a copy in the fragment of each endpoint
        local_graphs[fu].add_edge(u, v, w)
        if fv != fu:
            local_graphs[fv].add_edge(u, v, w)
            # border bookkeeping, directed semantics; undirected graphs get
            # the symmetric closure below
            out_border[fu].add(u)
            out_copies[fu].add(v)
            mirrors[fu].add(v)
            presence.setdefault(v, set()).add(fu)
            in_border[fv].add(v)
            in_copies[fv].add(u)
            mirrors[fv].add(u)
            presence.setdefault(u, set()).add(fv)
            if not g.directed:
                out_border[fv].add(v)
                out_copies[fv].add(u)
                in_border[fu].add(u)
                in_copies[fu].add(v)

    fragments = []
    for fid in range(m):
        routing = {v: tuple(sorted(presence[v] - {fid}))
                   for v in owned[fid] | mirrors[fid]
                   if len(presence[v]) > 1}
        fragments.append(Fragment(
            fid=fid, graph=local_graphs[fid], owned=owned[fid],
            mirrors=mirrors[fid], in_border=in_border[fid],
            out_border=out_border[fid], out_copies=out_copies[fid],
            in_copies=in_copies[fid], routing=routing, cut="edge"))
    # in the owner map's order, which need not be g.nodes'
    placement = {v: tuple(sorted(presence[v])) for v in owner}
    return PartitionedGraph(fragments, dict(owner), placement, strategy_name,
                            cut="edge")


def oracle_vertex_cut(g, edge_owner, m, strategy_name="custom"):
    local_graphs = [Graph(directed=g.directed) for _ in range(m)]
    presence = {}

    for u, v, w in g.edges():
        fid = edge_owner.get((u, v))
        if fid is None and not g.directed:
            fid = edge_owner.get((v, u))
        if fid is None:
            raise PartitionError(f"edge ({u!r}, {v!r}) was not assigned")
        if not 0 <= fid < m:
            raise PartitionError(f"edge ({u!r}, {v!r}) out-of-range {fid}")
        local_graphs[fid].add_edge(u, v, w)
        presence.setdefault(u, set()).add(fid)
        presence.setdefault(v, set()).add(fid)

    # isolated nodes: placed by the owner function
    for v in g.nodes:
        if v not in presence:
            fid = stable.owner(v, m)
            presence[v] = {fid}
            local_graphs[fid].add_node(v)

    owner = {v: min(fids) for v, fids in presence.items()}

    fragments = []
    for fid in range(m):
        local_nodes = set(local_graphs[fid].nodes)
        owned = {v for v in local_nodes if owner[v] == fid}
        mirror = local_nodes - owned
        replicated_owned = {v for v in owned if len(presence[v]) > 1}
        routing = {v: tuple(sorted(presence[v] - {fid}))
                   for v in local_nodes if len(presence[v]) > 1}
        fragments.append(Fragment(
            fid=fid, graph=local_graphs[fid], owned=owned, mirrors=mirror,
            in_border=replicated_owned, out_border=replicated_owned,
            out_copies=mirror, in_copies=mirror, routing=routing,
            cut="vertex"))
    placement = {v: tuple(sorted(fids)) for v, fids in presence.items()}
    return PartitionedGraph(fragments, owner, placement, strategy_name,
                            cut="vertex")


def oracle_csr(graph, owned):
    """The dense view of a dict graph, one Python step per edge.

    An undirected CSR's in-rows are its out-rows (one adjacency), so each
    in-row lists its edges in out-row order; a separate reverse sort
    listed the edges given as ``(y, x)`` first, and that order changed on
    purpose.  Directed in-rows are what they always were."""
    nodes = sorted(graph.nodes)
    lid = {v: i for i, v in enumerate(nodes)}
    edges = [(lid[u], lid[v], float(w)) for u, v, w in graph.edges()]
    if not graph.directed:
        edges += [(v, u, w) for u, v, w in edges]
    out = {"nodes": nodes, "lid_of": lid,
           "owned_mask": [v in owned for v in nodes]}
    rows_of = (("out", 0, 1), ("in", 1, 0)) if graph.directed \
        else (("out", 0, 1), ("in", 0, 1))
    for name, a, b in rows_of:
        rows = [[] for _ in nodes]
        for e in edges:
            rows[e[a]].append((e[b], e[2]))
        out[f"{name}_indptr"] = np.cumsum(
            [0] + [len(r) for r in rows]).astype(np.int64)
        out[f"{name}_indices"] = np.array(
            [t for r in rows for t, _ in r], dtype=np.int64)
        out[f"{name}_weights"] = np.array(
            [w for r in rows for _, w in r], dtype=np.float64)
    return out


def has_int_ids(nodes):
    return all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
               for v in nodes)


def assert_same_partition(got, want):
    """``got`` (array-built, unmaterialised) against the oracle ``want``;
    its owner and placement maps are read last, its in-rows lazily."""
    assert got.cut == want.cut
    assert got.num_fragments == want.num_fragments
    assert quality.summary(got) == quality.summary(want)
    assert got.sizes() == want.sizes()
    assert not any(f.materialised for f in got)
    for fg, fw in zip(got, want):
        for name in SETS:
            assert getattr(fg, name) == getattr(fw, name), name
        assert fg._routing == fw._routing
        assert (fg.cut, fg.directed) == (fw.cut, fw.directed)
        assert fg.num_local_edges == fw.num_local_edges
        if has_int_ids(fw.graph.nodes):
            view, ref = fg.compact(), oracle_csr(fw.graph, fw.owned)
            assert view.nodes == ref["nodes"]
            assert view.lid_of == ref["lid_of"]
            assert view.gids.tolist() == ref["nodes"]
            assert view.owned_mask.tolist() == ref["owned_mask"]
            assert (~view.mirror_mask).tolist() == ref["owned_mask"]
            assert view.csr.directed == fw.graph.directed
            assert view.csr.num_edges == fw.graph.num_edges
            # directed in-rows are sorted on this first read
            assert (view.csr._reverse is None) == view.csr.directed
            for name in CSR_ARRAYS:
                arr = getattr(view.csr, name)
                assert arr.dtype == ref[name].dtype, name
                assert arr.tobytes() == ref[name].tobytes(), name
            if not fw.graph.directed:  # one adjacency, not a copy of it
                assert view.csr.in_indices is view.csr.out_indices
        else:
            with pytest.raises(PartitionError):
                fg.compact()
        assert not fg.materialised
    for fg, fw in zip(got, want):
        assert_same_graph(fg.graph, fw.graph)
        assert fg.materialised and fg._arrays is not None  # arrays stay
    assert list(got.owner.items()) == list(want.owner.items())
    assert list(got.placement.items()) == list(want.placement.items())


def assert_same_graph(g, ref):
    assert g.directed == ref.directed
    assert list(g.nodes) == list(ref.nodes)
    for v in ref.nodes:
        assert g.out_edges(v) == ref.out_edges(v)
        assert g.in_edges(v) == ref.in_edges(v)
    assert list(g.edges()) == list(ref.edges())
    assert g._edge_weights == ref._edge_weights
    assert g._node_labels == ref._node_labels
    assert g.num_edges == ref.num_edges


# -- generated inputs --------------------------------------------------
ID_FAMILIES = {
    "dense": lambda i: i,
    "gappy": lambda i: 3 * i + 2,
    "sparse": lambda i: i * 10 ** 11 + 7,
    "str": lambda i: f"n{i}",
    "tuple": lambda i: (i % 3, i),
    "mixed": lambda i: (i, f"s{i}", (i, "t"))[i % 3],
}


@st.composite
def graphs(draw):
    """A small random graph, often with isolated nodes; ``dense`` ones may
    come as a CompactGraph.  Its nodes are added in ascending order (so
    the fragments' integer ids ascend with graph position and their lids
    need no permutation) or shuffled (so they do, and the dict graph's
    node order is neither lid nor id order)."""
    family = draw(st.sampled_from(sorted(ID_FAMILIES)))
    n = draw(st.integers(0, 12))
    directed = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    ids = [ID_FAMILIES[family](i) for i in range(n)]
    if draw(st.booleans()):
        rng.shuffle(ids)
    g = Graph(directed=directed)
    for v in ids:
        g.add_node(v, rng.choice([None, None, "a", ("b", 1)]))
    for _ in range(draw(st.integers(0, 30)) if n > 1 else 0):
        u, v = rng.sample(ids, 2)
        # few distinct weights (int and float): equal weights must not
        # be confused; a repeated pair overwrites, as add_edge does
        g.add_edge(u, v, rng.choice([1, 1.0, 2.5, 0.5]))
    if family == "dense" and draw(st.booleans()):
        return CompactGraph.from_graph(g)
    return g


def node_assignment(g, m, how, rng):
    if how == "hash":
        return HashPartitioner(salt=rng.randrange(5)).assign(g, m)
    if how == "stable":
        return {v: stable.owner(v, m) for v in g.nodes}
    # skewed: most nodes on fragment 0, some fragments possibly empty
    return {v: 0 if rng.random() < 0.7 else rng.randrange(m)
            for v in g.nodes}


SETTINGS = dict(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@given(g=graphs(), m=st.integers(1, 5),
       how=st.sampled_from(["hash", "stable", "skewed"]),
       seed=st.integers(0, 1000),
       form=st.sampled_from(["mapping", "reordered mapping", "array"]))
@settings(**SETTINGS)
def test_edge_cut_equals_oracle(g, m, how, seed, form):
    """The assignment as a mapping (its key order is the owner map's,
    whatever ``g.nodes`` says) or as an array in ``g.nodes`` order."""
    owner = node_assignment(g, m, how, random.Random(seed))
    if form == "reordered mapping":
        owner = dict(reversed(list(owner.items())))
    given = np.fromiter(owner.values(), np.int64, len(owner)) \
        if form == "array" else owner
    assert_same_partition(build_edge_cut(g, given, m, "t"),
                          oracle_edge_cut(g, owner, m, "t"))


@given(g=graphs(), m=st.integers(1, 5), seed=st.integers(0, 1000))
@settings(**SETTINGS)
def test_vertex_cut_equals_oracle(g, m, seed):
    rng = random.Random(seed)
    edge_owner = {}
    for u, v, _ in g.edges():
        # undirected edges may be assigned under either orientation
        key = (v, u) if not g.directed and rng.random() < 0.3 else (u, v)
        edge_owner[key] = rng.randrange(m)
    assert_same_partition(build_vertex_cut(g, edge_owner, m, "t"),
                          oracle_vertex_cut(g, edge_owner, m, "t"))


# -- the property notices the bugs it is there for ----------------------
def fixed_case():
    g = generators.powerlaw(40, m=2, weighted=True, seed=3)
    owner = {v: stable.owner(v, 3) for v in g.nodes}
    return build_edge_cut(g, owner, 3, "t"), oracle_edge_cut(g, owner, 3, "t")


def break_edge_order(pg):
    edges = pg.fragments[2]._arrays._edges
    for arr in (edges["src"], edges["dst"], edges["weights"]):
        arr[[0, 1]] = arr[[1, 0]]


def drop_undirected_closure(pg):
    frag = pg.fragments[2]
    view = frag._arrays
    src, dst = view._edges["src"], view._edges["dst"]
    entering = view.gids[dst[view.mirror_mask[src]]].tolist()
    assert frozenset(entering) < frag.in_border
    frag.in_border = frozenset(entering)


def misroute_one_mirror(pg):
    frag = pg.fragments[2]
    v = sorted(frag.mirrors)[0]
    frag._routing[v] = tuple((fid + 1) % 3 for fid in frag._routing[v])


@pytest.mark.parametrize("mutate", [break_edge_order,
                                    drop_undirected_closure,
                                    misroute_one_mirror])
def test_property_fails_on_mutation(mutate):
    got, want = fixed_case()
    mutate(got)
    with pytest.raises(AssertionError):
        assert_same_partition(got, want)


def test_property_passes_unmutated():
    assert_same_partition(*fixed_case())


# -- laziness ----------------------------------------------------------
def test_vectorized_runs_never_materialise():
    g = generators.powerlaw(300, m=3, weighted=True, seed=1)
    pg = HashPartitioner().partition(g, 2)
    quality.summary(pg)
    repr(pg)
    query = PageRankQuery(epsilon=1e-3 * g.num_nodes)
    engine = Engine(PageRankProgram(), pg, query, vectorized=True)
    assert engine.vectorized
    ThreadedRuntime(engine, make_policy("AAP"), timeout=60).run()
    result = MultiprocessRuntime(SSSPProgram(), pg, SSSPQuery(source=0),
                                 mode="AAP", timeout=60,
                                 vectorized=True).run()
    assert result.answer[0] == 0.0
    assert [f.materialised for f in pg] == [False, False]
    # the generic path is who asks for the dict graphs
    Engine(SSSPProgram(), pg, SSSPQuery(source=0))
    assert [f.materialised for f in pg] == [True, True]


def test_compact_view_survives_materialisation():
    g = generators.grid2d(5, 5, weighted=True, seed=2)
    pg = HashPartitioner().partition(g, 2)
    frag = pg.fragments[0]
    before = frag.compact()
    csr = {name: getattr(before.csr, name).tobytes() for name in CSR_ARRAYS}
    frag.graph
    assert frag.compact() is before
    frag.invalidate_caches()  # as in-place growth does
    assert frag.compact() is before  # the array form is for life
    before.merge()  # nothing was appended: the same CSR again
    for name in CSR_ARRAYS:
        assert getattr(before.csr, name).tobytes() == csr[name]


def test_grow_on_unmaterialised_partition_equals_rebuild():
    from test_grow import assert_partitions_equal
    g = generators.powerlaw(80, m=2, weighted=True, seed=4)
    m = 4
    owner = {v: stable.owner(v, m) for v in g.nodes}
    pg = build_edge_cut(g, owner, m, "t")
    u = next(v for v in g.nodes if owner[v] == 0)
    v = next(v for v in g.nodes if owner[v] == 1 and not g.has_edge(u, v))
    report = grow_edge_cut(pg, [(u, v, 1.5)])
    assert report.touched >= {0, 1}
    assert not any(frag.materialised or frag.built for frag in pg)
    g.add_edge(u, v, 1.5)
    assert_partitions_equal(pg, build_edge_cut(g, dict(pg.owner), m, "t"))


# -- every check is still there ----------------------------------------
class FixedAssignment(NodePartitioner):
    def __init__(self, assignment):
        self.assignment = assignment

    def assign(self, g, num_fragments):
        return self.assignment


def triangle():
    g = Graph(directed=True)
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        g.add_edge(u, v, 1.0)
    return g


def test_errors_keep_their_types():
    g = triangle()
    with pytest.raises(PartitionError, match="not assigned"):
        FixedAssignment({0: 0, 1: 1}).partition(g, 2)
    with pytest.raises(PartitionError, match="out-of-range"):
        FixedAssignment({0: 0, 1: 1, 2: 2}).partition(g, 2)
    with pytest.raises(PartitionError):
        build_edge_cut(g, {0: 0, 1: 1, 2: 5}, 2)
    with pytest.raises(PartitionError, match="out-of-range"):
        build_edge_cut(g, np.array([0, 1, 2]), 2)
    with pytest.raises(PartitionError, match="2 fragment ids for 3 nodes"):
        build_edge_cut(g, np.array([0, 1]), 2)
    with pytest.raises(PartitionError, match="not assigned"):
        build_vertex_cut(g, {(0, 1): 0, (1, 2): 1}, 2)
    with pytest.raises(PartitionError, match="out-of-range"):
        build_vertex_cut(g, {(0, 1): 0, (1, 2): 1, (2, 0): 2}, 2)
    with pytest.raises(PartitionError, match="both owned and mirror"):
        Fragment(0, g, [0, 1], [1], (), (), (), (), {})
    with pytest.raises(PartitionError, match="not owned"):
        Fragment(0, g, [0], [1], [1], (), (), (), {})
    with pytest.raises(PartitionError, match="not a mirror"):
        Fragment(0, g, [0], [1], (), (), [2], (), {})


def test_a_node_outside_the_graph_has_no_owner():
    """An assignment naming a node the graph lacks is refused, not kept
    in the owner and placement maps for Assemble to trip over."""
    with pytest.raises(PartitionError, match="node 99 .* not in the graph"):
        build_edge_cut(generators.path_graph(4),
                       {0: 0, 1: 0, 2: 1, 3: 1, 99: 1}, 2)


def test_non_integer_ids_fail_at_compact_not_at_build():
    g = Graph(directed=False)
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", -3, 1.0)
    pg = build_edge_cut(g, {"a": 0, "b": 1, -3: 1}, 2)
    for frag in pg:
        with pytest.raises(PartitionError, match="non-negative integer"):
            frag.compact()
    pg = HashEdgePartitioner().partition(g, 2)
    with pytest.raises(PartitionError, match="non-negative integer"):
        for frag in pg:
            frag.compact()


def test_compact_graph_array_constructor_checks():
    one = np.array([1.0])
    with pytest.raises(GraphError, match="out of range"):
        CompactGraph.from_arrays(2, np.array([0]), np.array([5]), one)
    with pytest.raises(GraphError, match="self-loops"):
        CompactGraph.from_arrays(2, np.array([1]), np.array([1]), one)
    with pytest.raises(GraphError, match="out of range"):
        CompactGraph.from_edges(2, [(0, 1, 1.0), (-1, -1, 1.0)])


def test_parallel_edges_cannot_be_materialised():
    """A graph over arrays builds its dicts on first read: that is where
    a parallel edge is refused, every time it is tried."""
    cg = CompactGraph.from_edges(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)])
    pg = build_edge_cut(cg, {0: 0, 1: 0, 2: 0}, 1)
    for graph in (pg.fragments[0].graph, cg.to_graph()):
        for _ in range(2):
            with pytest.raises(GraphError, match="novel"):
                graph.out_edges(0)


# -- the edge pass -----------------------------------------------------
def oracle_graph_arrays(g):
    """``GraphArrays.of`` over a dict graph as it was before integer ids
    were read from the edge-key dict: one streamed pass over ``edges()``
    into a record array, a dict lookup per endpoint, the weight objects
    as they are, no id census."""
    node_list = list(g.nodes)
    nodes = np.fromiter(node_list, dtype=object, count=len(node_list))
    edges = np.fromiter(g.edges(), dtype=csr_module._EDGE_RECORD,
                        count=g.num_edges)
    index = {v: i for i, v in enumerate(node_list)}
    return GraphArrays(
        nodes,
        np.fromiter(map(index.__getitem__, edges["u"]), np.int64,
                    len(edges)),
        np.fromiter(map(index.__getitem__, edges["v"]), np.int64,
                    len(edges)),
        np.ascontiguousarray(edges["w"]), g.directed, {}, True)


#: node ids by family: the first four take the C-level read (dense ones
#: with a stride around the table span rule, so both lookups run), the
#: rest the streamed pass
EDGE_PASS_IDS = {
    "dense": lambda rng, n: list(range(3, 3 + 6 * n, rng.randint(1, 6)))[:n],
    "sparse": lambda rng, n: rng.sample(range(10 ** 12 + 1), n),
    "numpy": lambda rng, n: [np.int64(i) if i % 2 else i for i in range(n)],
    "from zero": lambda rng, n: list(range(n)),
    "bool": lambda rng, n: [True, False][:n] + list(range(2, n)),
    "negative": lambda rng, n: [i - 2 for i in range(n)],
    "beyond int64": lambda rng, n: [2 ** 63 - 2 + i for i in range(n)],
    "str": lambda rng, n: [f"n{i}" for i in range(n)],
    "mixed": lambda rng, n: [(i, f"s{i}", np.int64(i))[i % 3]
                             for i in range(n)],
}


@st.composite
def edge_pass_graphs(draw):
    """A small dict graph, possibly empty, with isolated nodes and both
    ``int`` and ``float`` weights."""
    family = draw(st.sampled_from(sorted(EDGE_PASS_IDS)))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    ids = EDGE_PASS_IDS[family](rng, draw(st.integers(0, 14)))
    rng.shuffle(ids)
    g = Graph(directed=draw(st.booleans()))
    for v in ids:
        g.add_node(v)
    for _ in range(draw(st.integers(0, 30)) if len(ids) > 1 else 0):
        u, v = rng.sample(ids, 2)
        g.add_edge(u, v, rng.choice([1, 2, 1.0, 2.5, 0.5]))
    return g


def typed(values):
    return [(type(x), x) for x in values]


def assert_same_arrays_partition(got, want):
    """Two builds of one assignment, array form against array form: the
    same ids, owners, border masks, routing pairs, edge rows (weight
    types included) and CSR bytes, fragment by fragment."""
    assert list(got.owner.items()) == list(want.owner.items())
    assert list(got.placement.items()) == list(want.placement.items())
    for fg, fw in zip(got, want):
        vg, vw = fg._arrays, fw._arrays
        assert typed(vg.gids.tolist()) == typed(vw.gids.tolist())
        assert vg.gids.dtype == vw.gids.dtype
        columns = ["owner", "owned_mask", "routed", "peers"]
        for name in columns:
            assert getattr(vg, name).tobytes() == getattr(vw, name).tobytes()
        for name in vw.borders:
            assert vg.borders[name].tobytes() == vw.borders[name].tobytes()
        for name in ("src", "dst"):
            assert vg._edges[name].tobytes() == vw._edges[name].tobytes()
        assert typed(vg._edges["weights"].tolist()) \
            == typed(vw._edges["weights"].tolist())
        assert fg._routing == fw._routing
        try:
            ref = fw.compact().csr
        except PartitionError:
            with pytest.raises(PartitionError):
                fg.compact()
            continue
        for name in CSR_ARRAYS:
            assert getattr(fg.compact().csr, name).tobytes() \
                == getattr(ref, name).tobytes(), name


@given(g=edge_pass_graphs(), m=st.integers(1, 3), salt=st.integers(0, 3))
@settings(**SETTINGS)
def test_edge_pass_equals_the_streamed_pass(g, m, salt):
    got, want = GraphArrays.of(g), oracle_graph_arrays(g)
    assert typed(got.nodes.tolist()) == typed(want.nodes.tolist())
    for name in ("src", "dst"):
        assert getattr(got, name).dtype == np.int64
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.weights.dtype == want.weights.dtype
    assert typed(got.weights.tolist()) == typed(want.weights.tolist())
    assert (got.directed, got.labels, got.is_keyed) \
        == (want.directed, want.labels, want.is_keyed)
    census = integer_ids(want.nodes)
    assert (got.ids is None) == (census is None)
    if census is not None:
        assert got.ids.tobytes() == census.tobytes()
    # weight objects come back as they went in
    assert typed(w for _, _, w in got.to_graph().edges()) \
        == typed(w for _, _, w in g.edges())
    # and the partitions built on either are the same
    owner = HashPartitioner(salt).assign(g, m)
    edge_owner = HashEdgePartitioner(salt).assign(g, m)
    new = (build_edge_cut(g, owner, m), build_vertex_cut(g, edge_owner, m))
    with mock.patch.object(GraphArrays, "of",
                           staticmethod(oracle_graph_arrays)):
        old = (build_edge_cut(g, owner, m),
               build_vertex_cut(g, edge_owner, m))
    for got_pg, want_pg in zip(new, old):
        assert_same_arrays_partition(got_pg, want_pg)


def test_a_cold_vectorized_build_reads_no_edge_at_a_time(monkeypatch):
    """A generated graph hands its arrays over, ids included: no census.
    A dict-born integer-id graph is read from its edge-key dict, and its
    ids are checked once per build: by the edge pass, whose census the
    fragments gather their ids from."""
    generated = generators.rmat(8, edge_factor=4, directed=True, seed=2)
    dict_born = generated.copy()
    dict_born.add_node(0)  # a mutation makes the dicts the graph
    calls = {"edges": 0, "integer_ids": 0}

    def counted(name, target):
        def call(*args, **kwargs):
            calls[name] += 1
            return target(*args, **kwargs)
        return call
    monkeypatch.setattr(Graph, "edges", counted("edges", Graph.edges))
    census = counted("integer_ids", integer_ids)
    monkeypatch.setattr(csr_module, "integer_ids", census)
    monkeypatch.setattr(fragment_module, "integer_ids", census)
    for g, id_checks in ((generated, 0), (dict_born, 1)):
        calls.update(edges=0, integer_ids=0)
        query = PageRankQuery(epsilon=1e-3 * g.num_nodes)
        pg = HashPartitioner().partition(g, 3)
        for frag in pg:
            frag.compact()
        assert Engine(PageRankProgram(), pg, query, vectorized=True).vectorized
        assert calls == {"edges": 0, "integer_ids": id_checks}


def test_a_cold_vectorized_build_makes_only_what_the_engine_reads(
        monkeypatch):
    """A hash partition of a directed graph hands the builder an array:
    the cold build makes no owner dict, no dict-graph order and no
    in-rows, and neither does a threaded or forked PageRank run (a forked
    worker inherits the patch), so no run sorts in-rows once per run."""
    g = generators.rmat(8, edge_factor=4, directed=True, seed=2)
    query = PageRankQuery(epsilon=1e-3 * g.num_nodes)
    orders = []

    def counted(*args):
        orders.append(args)
        return insertion_order(*args)

    def boom(self):
        raise AssertionError("in-rows were read")

    monkeypatch.setattr(fragment_module, "insertion_order", counted)
    pg = HashPartitioner().partition(g, 2)
    for frag in pg:
        frag.compact()
    engine = Engine(PageRankProgram(), pg, query, vectorized=True)
    assert engine.vectorized
    assert not orders and "owner" not in vars(pg)
    assert not any("_dict_order" in vars(frag._arrays) for frag in pg)
    assert all(frag.compact().csr._reverse is None for frag in pg)
    monkeypatch.setattr(CompactGraph, "_in_rows", boom)
    threaded = ThreadedRuntime(engine, make_policy("AAP"), timeout=60).run()
    forked = MultiprocessRuntime(PageRankProgram(), pg, query, mode="BSP",
                                 timeout=60, vectorized=True).run()
    reference = run_sequential_fixpoint(
        Engine(PageRankProgram(), pg, query, vectorized=True))
    tolerance = 2 * query.epsilon / g.num_nodes * (
        1 + max(g.in_degree(v) for v in g.nodes))
    for result in (threaded, forked):
        assert result.answer.keys() == reference.keys()
        assert all(abs(result.answer[v] - reference[v]) <= tolerance
                   for v in reference)
    assert not orders and "owner" not in vars(pg)
    # what is made on first read is what the per-edge builder made
    monkeypatch.undo()
    assert_same_partition(pg, oracle_edge_cut(
        g, HashPartitioner().assign(g, 2), 2, "hash"))


def test_ids_beyond_int64_take_the_object_path():
    """An id past ``int64`` is a non-dense id like any other: the build
    keeps it as an object, the fragment holding it has no CSR, and the
    vectorized engine falls back to the generic path."""
    g = Graph(directed=False)
    g.add_edge(0, 2 ** 64, 1.0)
    g.add_edge(2 ** 64, 5, 2.0)
    g.add_edge(5, 7, 1.5)
    g.add_edge(0, 7, 9.0)
    pg = HashPartitioner().partition(g, 2)
    for frag in pg:
        if 2 ** 64 in frag._arrays.gids.tolist():
            with pytest.raises(PartitionError, match=str(2 ** 64)):
                frag.compact()
        else:
            frag.compact()
    dense = Engine(SSSPProgram(), pg, SSSPQuery(source=0), vectorized=True)
    generic = Engine(SSSPProgram(), pg, SSSPQuery(source=0))
    assert not dense.vectorized
    want = {0: 0.0, 2 ** 64: 1.0, 5: 3.0, 7: 4.5}
    assert run_sequential_fixpoint(dense) == want
    assert run_sequential_fixpoint(generic) == want
