"""Partition quality metrics: cut ratio, replication factor, balance."""

from __future__ import annotations

from typing import Dict

from repro.partition.fragment import PartitionedGraph


def edge_cut_ratio(pg: PartitionedGraph) -> float:
    """Fraction of edges whose endpoints live in different owner fragments.

    Computed from the fragments themselves, without building their dict
    graphs: an edge is cut iff it has a copy in two fragments, so total
    copies minus distinct edges equals the number of cut edges.  Under
    edge-cut the fragment owning an edge's stored source holds it exactly
    once; vertex-cut duplicates no edge.
    """
    total_copies = sum(f.num_local_edges for f in pg.fragments)
    distinct = total_copies if pg.cut == "vertex" else sum(
        f.num_edges_from_owned() for f in pg.fragments)
    if distinct == 0:
        return 0.0
    return (total_copies - distinct) / distinct


def replication_factor(pg: PartitionedGraph) -> float:
    """Average number of fragments each node resides in (>= 1)."""
    if not pg.placement:
        return 1.0
    return sum(len(fids) for fids in pg.placement.values()) / len(pg.placement)


def balance(pg: PartitionedGraph) -> float:
    """Max fragment size over mean fragment size (1.0 = perfectly balanced)."""
    sizes = pg.sizes()
    mean = sum(sizes) / len(sizes)
    if mean == 0:
        return 1.0
    return max(sizes) / mean


def summary(pg: PartitionedGraph) -> Dict[str, float]:
    """All quality metrics in one dict (used by benches and examples)."""
    from repro.partition.skew import skew_ratio
    return {
        "fragments": float(pg.num_fragments),
        "edge_cut_ratio": edge_cut_ratio(pg),
        "replication_factor": replication_factor(pg),
        "balance": balance(pg),
        "skew_ratio": skew_ratio(pg),
    }
