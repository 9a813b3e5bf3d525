"""Edge-cut (node assignment) partition strategies.

The paper uses XtraPuLP; we provide laptop-scale equivalents with the same
knobs that matter to AAP: balance and locality.

- :class:`HashPartitioner` — balanced, locality-free (high cut ratio); the
  usual default of vertex-centric systems.
- :class:`RangePartitioner` — contiguous id ranges; good locality for grid or
  generator graphs whose ids are spatially coherent.
- :class:`BfsPartitioner` — grows connected chunks by BFS, the closest to a
  quality offline partitioner (XtraPuLP stand-in).
- :class:`GreedyLdgPartitioner` — Linear Deterministic Greedy streaming
  partitioner (Stanton & Kliot), a realistic one-pass heuristic.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Optional

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph, Node
from repro.graph.stable import owners
from repro.partition.base import NodePartitioner


class HashPartitioner(NodePartitioner):
    """Assign node ``v`` to ``owner(v, m, salt)``
    (:func:`repro.graph.stable.owner`, the one placement function),
    salted for reshuffling."""

    name = "hash"

    def __init__(self, salt: int = 0):
        self.salt = salt

    def owners(self, g: Graph, num_fragments: int) -> np.ndarray:
        """The assignment as ``int64`` fragment ids in ``g.nodes`` order."""
        if num_fragments < 1:
            raise PartitionError("num_fragments must be >= 1")
        return owners(g, num_fragments, self.salt)

    def assign(self, g: Graph, num_fragments: int) -> Dict[Node, int]:
        return dict(zip(g.nodes, self.owners(g, num_fragments).tolist()))


class RangePartitioner(NodePartitioner):
    """Sort nodes (by value; by ``repr`` only when ids of mixed types do
    not order) and split into ``m`` contiguous, equally sized ranges."""

    name = "range"

    def assign(self, g: Graph, num_fragments: int) -> Dict[Node, int]:
        if num_fragments < 1:
            raise PartitionError("num_fragments must be >= 1")
        try:
            ordered = sorted(g.nodes)
        except TypeError:
            ordered = sorted(g.nodes, key=repr)
        n = len(ordered)
        return {v: min(idx * num_fragments // n, num_fragments - 1)
                for idx, v in enumerate(ordered)}


class BfsPartitioner(NodePartitioner):
    """Grow ``m`` connected chunks of ~n/m nodes each by repeated BFS.

    Produces low-cut, balanced fragments on meshes and road networks, which
    is the regime where BSP behaves best (Fig. 6(k), r = 1).
    """

    name = "bfs"

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed

    def assign(self, g: Graph, num_fragments: int) -> Dict[Node, int]:
        if num_fragments < 1:
            raise PartitionError("num_fragments must be >= 1")
        rng = random.Random(self.seed if self.seed is not None else 0)
        target = max(1, (g.num_nodes + num_fragments - 1) // num_fragments)
        assignment: Dict[Node, int] = {}
        unassigned = set(g.nodes)
        order = sorted(unassigned, key=repr)
        rng.shuffle(order)
        fid = 0
        for start in order:
            if start in assignment:
                continue
            if fid >= num_fragments:
                fid = num_fragments - 1
            count = 0
            queue = deque([start])
            while queue and count < target:
                v = queue.popleft()
                if v in assignment:
                    continue
                assignment[v] = fid
                unassigned.discard(v)
                count += 1
                for u, _ in g.out_edges(v):
                    if u not in assignment:
                        queue.append(u)
                if g.directed:
                    for u, _ in g.in_edges(v):
                        if u not in assignment:
                            queue.append(u)
            if count:
                fid += 1
        # any leftovers (components exhausted mid-chunk) round-robin
        for i, v in enumerate(sorted(unassigned, key=repr)):
            assignment[v] = i % num_fragments
        return assignment


class GreedyLdgPartitioner(NodePartitioner):
    """Linear Deterministic Greedy streaming partitioner.

    Each node goes to the fragment maximising
    ``|neighbours already there| * (1 - size/capacity)``.
    """

    name = "ldg"

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed

    def assign(self, g: Graph, num_fragments: int) -> Dict[Node, int]:
        if num_fragments < 1:
            raise PartitionError("num_fragments must be >= 1")
        rng = random.Random(self.seed if self.seed is not None else 0)
        order = sorted(g.nodes, key=repr)
        rng.shuffle(order)
        capacity = max(1.0, g.num_nodes / num_fragments * 1.1)
        sizes = [0] * num_fragments
        assignment: Dict[Node, int] = {}
        for v in order:
            neigh_counts = [0] * num_fragments
            for u, _ in g.out_edges(v):
                fid = assignment.get(u)
                if fid is not None:
                    neigh_counts[fid] += 1
            if g.directed:
                for u, _ in g.in_edges(v):
                    fid = assignment.get(u)
                    if fid is not None:
                        neigh_counts[fid] += 1
            best_fid, best_score = 0, float("-inf")
            for fid in range(num_fragments):
                penalty = 1.0 - sizes[fid] / capacity
                score = neigh_counts[fid] * max(penalty, 0.0)
                if sizes[fid] >= capacity:
                    score = -1.0
                if score > best_score:
                    best_fid, best_score = fid, score
            assignment[v] = best_fid
            sizes[best_fid] += 1
        return assignment
