"""The one placement function, :func:`repro.graph.stable.owner`.

Placement must be a pure function of the node id: the same in every
process, under every ``PYTHONHASHSEED``, on the C path over an id array
and node by node, at the cold build and at every growth step after it.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.algorithms import SSSPProgram, SSSPQuery
from repro.graph import generators
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph
from repro.graph.stable import owner, owners
from repro.serve import GraphService
from repro.streaming import UpdateBatch

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.graph.graph import Graph
from repro.partition.edge_cut import HashPartitioner
out = []
for ids in ([("u", i) for i in range(12)] + [("p", j) for j in range(6)],
            ["alpha", "beta", "gamma", "v-17", "v-18", "omega"]):
    g = Graph(directed=False)
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b, 1.0)
    for salt in (0, 3):
        owned = HashPartitioner(salt=salt).assign(g, 4)
        out.append(sorted((repr(v), f) for v, f in owned.items()))
print(json.dumps(out))
"""


def _probe(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    out = subprocess.run([sys.executable, "-c", _PROBE, SRC_DIR], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_hash_partitioner_ignores_the_hash_seed():
    """Tuple and string ids land on the same fragments in interpreters
    with different hash salts."""
    first, *others = [_probe(seed) for seed in (0, 1, 2)]
    assert all(other == first for other in others)
    assert len({f for table in first for _, f in table}) == 4


#: (id, owner(id, 3), owner(id, 8)): integer ids are CPython's 64-bit
#: tuple hash of ``(0, v)``, every other id the blake2b stable hash; a
#: change here moves every partition built from these ids
PINNED = [
    (0, 2, 7), (1, 0, 0), (7, 2, 1), (42, 2, 3), (1000, 0, 5),
    (2 ** 40 + 3, 0, 3),
    ("alpha", 1, 5), (("u", 3), 1, 2), (("p", 0), 0, 2), (b"raw", 0, 4),
    (3.5, 1, 6), (None, 1, 5),
]


@pytest.mark.parametrize("v, in3, in8", PINNED)
def test_pinned_owners(v, in3, in8):
    assert (owner(v, 3), owner(v, 8)) == (in3, in8)


def test_integer_owner_is_the_salted_tuple_hash():
    assert [owner(v, 5, salt=2) for v in range(50)] == \
        [hash((2, v)) % 5 for v in range(50)]
    # the same dict key is the same node: the same owner
    assert owner(np.int64(42), 8) == owner(42, 8)
    assert owner(True, 8) == owner(1, 8)


@pytest.mark.parametrize("make", [
    lambda: generators.powerlaw(200, m=2, seed=1),            # array-born
    lambda: generators.grid2d(6, 6, seed=1).copy(),
    lambda: CompactGraph.from_graph(generators.grid2d(5, 5, seed=2)),
])
def test_owners_is_owner_per_node(make):
    g = make()
    for m, salt in ((1, 0), (3, 0), (4, 7)):
        assert owners(g, m, salt).tolist() == \
            [owner(v, m, salt) for v in g.nodes]


def test_owners_reads_an_array_born_graph_through_its_arrays():
    g = generators.powerlaw(200, m=2, seed=1)
    owners(g, 4)
    assert "_nodes" not in vars(g) and "_adj" not in vars(g)


def test_owners_of_mixed_ids():
    g = Graph(directed=True)
    for u, v in [(0, "a"), ("a", ("u", 1)), (-5, 0), (2 ** 70, "a"),
                 (3.5, None)]:
        g.add_edge(u, v, 1.0)
    assert owners(g, 3).tolist() == [owner(v, 3) for v in g.nodes]
    assert owners(g, 3)[list(g.nodes).index(-5)] == hash((0, -5)) % 3


@pytest.mark.parametrize("mixed", [False, True])
def test_growth_agrees_with_a_cold_build(mixed):
    """Nodes the service grows into place where a cold build of the grown
    graph puts them: the C path of the cold build and the per-node path
    of growth are one function."""
    g = generators.powerlaw(60, m=2, weighted=True, seed=5)
    if mixed:
        g.add_edge(0, "hub", 1.0)
    query = SSSPQuery(source=0)
    svc = GraphService(SSSPProgram(), g, query, num_fragments=3,
                       runtime="simulated")
    assert svc.status()["engine"] == ("generic" if mixed else "dense")
    batches = [[(0, 100, 1.0), (100, 101, 2.0), (5, 102, 1.0)],
               [(101, 103, 1.0), (7, 104, 0.5)]]
    if mixed:
        batches += [[("hub", "x", 1.0), ("x", ("u", 2), 1.0)],
                    [(104, "y", 1.0), ("y", 105, 1.0)]]
    for batch in batches:
        svc.ingest(UpdateBatch.of(*batch))
    svc.flush()
    grown = svc.pg.owner
    assert len(grown) == svc.graph.num_nodes
    cold = GraphService(SSSPProgram(), svc.graph, query, num_fragments=3,
                        runtime="simulated")
    assert grown == cold.pg.owner
    assert all(grown[v] == owner(v, 3) for v in grown)
