"""First reads of a built-on-read object from several threads at once.

A lazy partition is shared by every ``ThreadedRuntime`` worker running a
generic program, so the first read of its containers is concurrent.  Each
trial releases two to four readers from a barrier onto one fresh lazy
object, under a switch interval short enough that they interleave inside
``BuiltOnRead.__getattr__``: nobody may see an error or a half-built
object, and the containers must equal those of a single-threaded first
read.
"""

import sys
import threading

import pytest

from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import (BORDER_SETS, Fragment, FragmentCSR,
                                      PartitionedGraph)

TRIALS = 60
FRAGMENT_ATTRS = ("owned", "mirrors", *BORDER_SETS, "_routing")


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
    for _ in range(TRIALS):
        pg = HashPartitioner().partition(graph, 4)
        frag = pg.fragments[0]
        assert not pg.built and not frag.built
        # alternate between the partition's map and one fragment's sets,
        # each read through a different container
        reads = [(lambda: pg.placement) if i % 2 else
                 (lambda a=FRAGMENT_ATTRS[i]: getattr(frag, a))
                 for i in range(readers)]
        got = race(reads)
        for i, value in enumerate(got):
            assert value == (reference["placement"] if i % 2
                             else want[FRAGMENT_ATTRS[i]])
        assert type(pg) is PartitionedGraph and type(frag) is Fragment
        assert pg.placement == reference["placement"]
        for a in FRAGMENT_ATTRS:
            assert getattr(frag, a) == want[a]
        assert frag._node_arrays is None and pg._presence is None


@pytest.mark.parametrize("readers", [2, 4])
def test_fragment_csr(graph, reference, readers):
    nodes, lid_of = reference["views"][1]
    pg = HashPartitioner().partition(graph, 4)
    frag = pg.fragments[1]
    for _ in range(TRIALS):
        frag.invalidate_caches()
        view = frag.compact()
        assert not view.built
        got = race([(lambda: view.lid_of) if i % 2 else (lambda: view.nodes)
                    for i in range(readers)])
        for i, value in enumerate(got):
            assert value == (lid_of if i % 2 else nodes)
        assert type(view) is FragmentCSR
        assert view.nodes == nodes and view.lid_of == lid_of
