"""Vertex-cut (edge assignment) partition strategies.

Vertex-cut distributes edges and replicates high-degree vertices, which is
how PowerGraph/GraphLab handle skewed degree distributions.  The paper notes
AAP works with either family; tests verify the engine is partition-agnostic.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.errors import PartitionError
from repro.graph.graph import Graph, Node
from repro.graph.stable import edge_owner
from repro.partition.base import EdgePartitioner

EdgeKey = Tuple[Node, Node]


class HashEdgePartitioner(EdgePartitioner):
    """Assign edge ``(u, v)`` to :func:`~repro.graph.stable.edge_owner`."""

    name = "hash-edge"

    def __init__(self, salt: int = 0):
        self.salt = salt

    def assign(self, g: Graph, num_fragments: int) -> Dict[EdgeKey, int]:
        if num_fragments < 1:
            raise PartitionError("num_fragments must be >= 1")
        return {(u, v): edge_owner(u, v, num_fragments, self.salt)
                for u, v, _ in g.edges()}


class GreedyVertexCutPartitioner(EdgePartitioner):
    """PowerGraph-style greedy vertex-cut.

    Place each edge on a fragment already holding both endpoints if possible,
    else one endpoint (least-loaded such fragment), else the least-loaded
    fragment overall.  Minimises the replication factor.
    """

    name = "greedy-vertex-cut"

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed

    def assign(self, g: Graph, num_fragments: int) -> Dict[EdgeKey, int]:
        if num_fragments < 1:
            raise PartitionError("num_fragments must be >= 1")
        rng = random.Random(self.seed if self.seed is not None else 0)
        placed: Dict[Node, set] = {}
        loads = [0] * num_fragments
        assignment: Dict[EdgeKey, int] = {}
        edges = sorted(g.edges(), key=lambda e: (repr(e[0]), repr(e[1])))
        rng.shuffle(edges)
        for u, v, _ in edges:
            pu = placed.get(u, set())
            pv = placed.get(v, set())
            both = pu & pv
            if both:
                fid = min(both, key=lambda f: (loads[f], f))
            elif pu or pv:
                fid = min(pu | pv, key=lambda f: (loads[f], f))
            else:
                fid = min(range(num_fragments), key=lambda f: (loads[f], f))
            assignment[(u, v)] = fid
            loads[fid] += 1
            placed.setdefault(u, set()).add(fid)
            placed.setdefault(v, set()).add(fid)
        return assignment
