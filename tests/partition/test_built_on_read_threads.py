"""First reads of built-on-read attributes from several threads at once.

A partition is shared by every ``ThreadedRuntime`` worker running a
generic program, so the first read of its containers is concurrent.  Each
trial releases two to four readers from a barrier onto one fresh object,
under a switch interval short enough that they interleave inside
``built_on_read.__get__``: nobody may see an error, the containers must
equal those of a single-threaded first read, and readers of one attribute
must get the *same object* (growth mutates these containers in place: a
reader holding a twin would miss it).  Growth itself has one writer; what
it may meet is a fragment somebody has read half of.
"""

import sys
import threading

import pytest

from repro.graph import generators
from repro.graph import graph as graph_module
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import (BORDER_SETS, Fragment, FragmentCSR,
                                      PartitionedGraph)
from repro.partition.grow import grow_edge_cut
from tests.conftest import assert_partitions_equal

TRIALS = 60
FRAGMENT_ATTRS = ("owned", "mirrors", *BORDER_SETS, "_routing", "graph")


@pytest.fixture(scope="module")
def graph():
    return generators.grid2d(40, 40, weighted=True, seed=4)


@pytest.fixture(scope="module")
def reference(graph):
    """The containers as one thread builds them."""
    pg = HashPartitioner().partition(graph, 4)
    return {
        "placement": pg.placement,
        "fragments": [{a: getattr(frag, a) for a in FRAGMENT_ATTRS}
                      for frag in pg],
        "views": [(view.nodes, view.lid_of)
                  for view in (frag.compact() for frag in pg)],
    }


def race(readers):
    """Run ``readers`` (callables returning what they read) from a barrier
    under a tiny switch interval; return their results in order."""
    barrier = threading.Barrier(len(readers))
    results = [None] * len(readers)
    errors = []

    def run(i, read):
        barrier.wait(timeout=30)
        try:
            results[i] = read()
        except BaseException as exc:  # reported below, in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i, read), daemon=True)
               for i, read in enumerate(readers)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "a first reader hung"
    assert not errors, errors
    return results


@pytest.mark.parametrize("readers", [2, 3, 4])
def test_partitioned_graph_and_fragment(graph, reference, readers):
    want = reference["fragments"][0]
    for trial in range(TRIALS):
        pg = HashPartitioner().partition(graph, 4)
        frag = pg.fragments[0]
        assert not (pg.built or frag.built or frag.materialised)
        # alternate between the partition's map and one fragment's
        # attributes, each reader on a different one
        attrs = [FRAGMENT_ATTRS[(trial + i) % len(FRAGMENT_ATTRS)]
                 for i in range(readers)]
        reads = [(lambda: pg.placement) if i % 2 else
                 (lambda a=attrs[i]: getattr(frag, a))
                 for i in range(readers)]
        got = race(reads)
        for i, value in enumerate(got):
            assert value == (reference["placement"] if i % 2
                             else want[attrs[i]])
        assert type(pg) is PartitionedGraph and type(frag) is Fragment
        assert pg.placement == reference["placement"]
        for a in FRAGMENT_ATTRS:
            assert getattr(frag, a) == want[a]
        assert frag.built and frag.materialised and pg.built


@pytest.mark.parametrize("readers", [2, 3, 4])
def test_readers_of_one_attribute_get_one_object(graph, reference, readers):
    want = {**reference["fragments"][0], "placement": reference["placement"]}
    names = sorted(want)
    for trial in range(TRIALS):
        pg = HashPartitioner().partition(graph, 4)
        name = names[trial % len(names)]
        obj = pg if name == "placement" else pg.fragments[0]
        assert name not in vars(obj)
        got = race([lambda: getattr(obj, name)] * readers)
        assert all(value is got[0] for value in got), name
        assert got[0] is getattr(obj, name) and got[0] == want[name]


@pytest.mark.parametrize("readers", [2, 4])
def test_fragment_csr(graph, reference, readers):
    nodes, lid_of = reference["views"][1]
    pg = HashPartitioner().partition(graph, 4)
    view = pg.fragments[1].compact()
    for _ in range(TRIALS):
        for name in ("nodes", "lid_of"):  # the view itself is for life
            vars(view).pop(name, None)
        assert not view.built
        got = race([(lambda: view.lid_of) if i % 2 else (lambda: view.nodes)
                    for i in range(readers)])
        for i, value in enumerate(got):
            assert value == (lid_of if i % 2 else nodes)
            assert value is (view.lid_of if i % 2 else view.nodes)
        assert type(view) is FragmentCSR


@pytest.mark.parametrize("readers", [2, 3, 4])
def test_array_born_graph(readers, monkeypatch):
    """Readers of one fresh generated graph's adjacency — out- and
    in-lists, two dicts of the five its one builder makes — get the same
    lists, and the dicts are built once."""
    base = generators.rmat(7, edge_factor=4, directed=True, seed=4)
    hub = max(base.nodes, key=lambda v: base.in_degree(v) + base.out_degree(v))
    want = [list(base.copy().out_edges(hub)), list(base.copy().in_edges(hub))]
    builds = []
    build = graph_module._dict_containers
    monkeypatch.setattr(graph_module, "_dict_containers",
                        lambda g: builds.append(g) or build(g))
    for trial in range(TRIALS):
        graph = base.copy()  # the same arrays, no dict yet
        got = race([(lambda: graph.in_edges(hub)) if (trial + i) % 2
                    else (lambda: graph.out_edges(hub))
                    for i in range(readers)])
        assert builds == [graph]
        builds.clear()
        for i, value in enumerate(got):
            way = (trial + i) % 2
            assert value == want[way]
            assert value is (graph.in_edges if way else graph.out_edges)(hub)
    assert not vars(base).keys() & set(graph_module._DICTS)


def test_growth_on_a_half_read_fragment_equals_a_rebuild():
    """``compact()`` built and only ``mirrors`` read, then growth: the
    set that exists is patched in place, the others are built from the
    grown arrays when somebody reads them."""
    graph = generators.grid2d(12, 12, weighted=True, seed=4)
    pg = HashPartitioner().partition(graph, 8)
    half_read = pg.fragments[0]
    view_for_life = half_read.compact()
    mirrors = half_read.mirrors
    assert set(vars(half_read)) & set(FRAGMENT_ATTRS) == {"mirrors"}
    u = min(w for w, fid in pg.owner.items() if fid == 0)
    v = min(w for w, fid in pg.owner.items()
            if fid == 1 and not graph.has_edge(u, w))

    report = grow_edge_cut(pg, [(u, v, 2.5)])
    assert {0, 1} <= report.touched < set(range(8))
    assert half_read.mirrors is mirrors and v in mirrors  # grown in place
    assert set(vars(half_read)) & set(FRAGMENT_ATTRS) == {"mirrors"}
    assert half_read.compact() is view_for_life
    assert view_for_life.lid(v) == len(view_for_life) - 1  # appended
    graph.add_edge(u, v, 2.5)
    rebuilt = HashPartitioner().partition(graph, 8)
    for frag, want in zip(pg, rebuilt):
        assert frag.built == (frag is half_read)
        assert frag.peer_fragments() == want.peer_fragments()
        view, want_view = frag.compact(), want.compact()
        for name in ("owned_mask", "mirror_mask"):  # modulo lid order
            assert dict(zip(view.gids.tolist(),
                            getattr(view, name).tolist())) \
                == dict(zip(want_view.gids.tolist(),
                            getattr(want_view, name).tolist())), name
        assert view.num_edges == want_view.csr.num_edges
    assert list(pg.placement.items()) == list(rebuilt.placement.items())
    assert_partitions_equal(pg, rebuilt)
