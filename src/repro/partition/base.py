"""Partition strategy interfaces.

The paper lets users pick an edge-cut or vertex-cut strategy ``P``
(Section 2).  An edge-cut strategy assigns *nodes* to fragments; a vertex-cut
strategy assigns *edges*.  Both produce a :class:`~repro.partition.fragment.
PartitionedGraph` via :mod:`repro.partition.builder`.
"""

from __future__ import annotations

import abc
from typing import Dict

from repro.graph.graph import Graph, Node
from repro.partition.fragment import PartitionedGraph


class NodePartitioner(abc.ABC):
    """Edge-cut strategy: assigns each node to exactly one fragment."""

    name = "node-partitioner"

    @abc.abstractmethod
    def assign(self, g: Graph, num_fragments: int) -> Dict[Node, int]:
        """Return a total map node -> fragment id in ``[0, num_fragments)``."""

    def partition(self, g: Graph, num_fragments: int) -> PartitionedGraph:
        """Assign nodes and build fragments (edge-cut); a strategy with an
        ``owners`` method hands the builder that array, not the dict."""
        from repro.partition.builder import build_edge_cut
        assignment = getattr(self, "owners", self.assign)
        return build_edge_cut(g, assignment(g, num_fragments),
                              num_fragments, self.name)


class EdgePartitioner(abc.ABC):
    """Vertex-cut strategy: assigns each edge to exactly one fragment."""

    name = "edge-partitioner"

    @abc.abstractmethod
    def assign(self, g: Graph, num_fragments: int):
        """Return a map (u, v) -> fragment id for every edge of ``g``."""

    def partition(self, g: Graph, num_fragments: int) -> PartitionedGraph:
        """Assign edges and build fragments (vertex-cut)."""
        from repro.partition.builder import build_vertex_cut
        return build_vertex_cut(g, self.assign(g, num_fragments),
                                num_fragments, self.name)

