"""Cold builds of the benchmark's graphs, pinned byte for byte.

A sha256 per (graph, seed, cut, m) over every array a fragment is made
of: node ids, owners, edge rows and weights, the four border masks, the
routing pairs and the CSR arrays (dtype and shape included).  The
digests were taken from the builder before its assembly was reworked to
make fewer passes over the edges; any change to what a cold build hands
the engines moves one.  The graphs are the four ``BENCHMARK.json``
workloads' inputs at their quick size, built with ``HashPartitioner``
(the workloads' edge-cut, at their ``m = 2`` and at ``m = 3``) and
``HashEdgePartitioner`` (vertex-cut, ``m = 3``).
"""

import hashlib

import numpy as np
import pytest

from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import BORDER_SETS
from repro.partition.vertex_cut import HashEdgePartitioner

GRAPHS = {
    "powerlaw-5k": lambda seed: generators.powerlaw(
        5_000, m=3, weighted=True, seed=seed),
    "grid-40x40": lambda seed: generators.grid2d(40, 40, weighted=True,
                                                 seed=seed),
    "rmat-10": lambda seed: generators.rmat(10, edge_factor=6,
                                            directed=True, seed=seed),
    "powerlaw-2k": lambda seed: generators.powerlaw(
        2_000, m=3, weighted=True, seed=seed),
}
CSR_ARRAYS = ("out_indptr", "out_indices", "out_weights", "in_indptr",
              "in_indices", "in_weights")

GOLDEN = {
    "powerlaw-5k/1/edge/2":
        "f6f3fdba9ffd638e209a37cca8fbd859b2c02363aecf40583d0c600d1a088581",
    "powerlaw-5k/1/edge/3":
        "1ff307d2d7d5a49a5a667d09bf630e61f4d6ef63e497a887889fac3ef3e6378f",
    "powerlaw-5k/1/vertex/3":
        "6f2a512da56060cf50579b5eee179908c4ede56d45409018c4bef5572d8f5cda",
    "powerlaw-5k/53/edge/2":
        "31139a02990a2cff2b270fad19ff7d256a1ba6270533120e651515dcaa3e76de",
    "powerlaw-5k/53/edge/3":
        "3555e3133c5234ae8b330272220f322d74889a82d6d01f86e8b53e4f916f178a",
    "powerlaw-5k/53/vertex/3":
        "345cb9078a1e0d28cd5002460941746eb64d78557f61c123b9c49f019de8fcc5",
    "grid-40x40/1/edge/2":
        "7054863bb3de15e9d7b1d2be67a7f5839b3fe157e4f06dfe56f5b1db93181f26",
    "grid-40x40/1/edge/3":
        "af1a34906f5862ad5c956dc02f24994ca710164bf4a2dbc3f400291619c7939b",
    "grid-40x40/1/vertex/3":
        "f4c9f179dab13c93ba47cd70144e02406cee522e199127cb9616324c42034dc5",
    "grid-40x40/53/edge/2":
        "5b22b855562d0a01968d54d7cde32b3e73fbb93e7725d6ede700bb5404ad1182",
    "grid-40x40/53/edge/3":
        "bbd67735e01958a21591da33cedbd13c75067a6ed9f151ab0628004401a6a771",
    "grid-40x40/53/vertex/3":
        "93afba588d206339114588a29b7d4d741be28067a9a3ddeb4283cce9f6a9a68c",
    "rmat-10/1/edge/2":
        "b51ec3b70a65bfeaf936efdcaa77eb149be1033ee7228d6309fe97d739e077a6",
    "rmat-10/1/edge/3":
        "182ca309e5f7c4a8a51fd165c47228f03b0e6f57f204c697e1c4a1c38e9e0565",
    "rmat-10/1/vertex/3":
        "a4644a2b51add41c3c15d409de182e314a4771ff8e5d610b0a8593f910663821",
    "rmat-10/53/edge/2":
        "e86deab39bfe6bd85febd6b6d93970de7117757c92d2ab1a12894735ab362057",
    "rmat-10/53/edge/3":
        "c6c72708adeb5b1d0543a161038740e00cbe27f5268b8aceb78f52e593765503",
    "rmat-10/53/vertex/3":
        "3bef776aabe45e50ba6823107ab8dfc541234faa5f0f4c2c19789b10560c5619",
    "powerlaw-2k/1/edge/2":
        "b8a7f49311e8bfd6ecb0766ec51fdcb7dcb2626fd6d92d174bb4e02096a5d183",
    "powerlaw-2k/1/edge/3":
        "6d16ceead4477432686877d8bae672bc3beed606e0d357ad0b132aef8ed279c0",
    "powerlaw-2k/1/vertex/3":
        "84c57282a1fd8082d6c45014450d311a58073223e6aaaf407230cad2c0b10018",
    "powerlaw-2k/53/edge/2":
        "1c1c208ec3e5c14bc630f4768df28a49fbfcbf0a8791c24a36709c13fedeabcc",
    "powerlaw-2k/53/edge/3":
        "bf51f80d5a2098532ae4bdf58dd716ddaf514ea3922c1d8bc7c063b9325ee2a4",
    "powerlaw-2k/53/vertex/3":
        "8b4f434eb172093f2ab13844e6b3a1e8fa6d9ad74a8847a7cf74a90575dbb0fa",
}


def partition_digest(pg) -> str:
    digest = hashlib.sha256()

    def feed(name, arr):
        arr = np.ascontiguousarray(arr)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(arr.tobytes())

    for frag in pg:
        view = frag.compact()
        digest.update(f"fragment {frag.fid}".encode())
        feed("gids", view.gids)
        feed("owner", view.owner)
        for end in ("src", "dst", "weights"):
            feed(end, view._edges[end])
        for name in BORDER_SETS:
            feed(name, view.borders[name])
        feed("routed", view.routed)
        feed("peers", view.peers)
        for name in CSR_ARRAYS:
            feed(name, getattr(view.csr, name))
    return digest.hexdigest()


def build(graph, cut, m):
    if cut == "edge":
        return HashPartitioner().partition(graph, m)
    return HashEdgePartitioner().partition(graph, m)


CASES = [(name, seed, cut, m) for name in GRAPHS for seed in (1, 53)
         for cut, m in (("edge", 2), ("edge", 3), ("vertex", 3))]


@pytest.mark.parametrize("name,seed,cut,m", CASES)
def test_cold_build_is_byte_identical(name, seed, cut, m):
    pg = build(GRAPHS[name](seed), cut, m)
    assert partition_digest(pg) == GOLDEN[f"{name}/{seed}/{cut}/{m}"]
