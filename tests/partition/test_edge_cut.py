"""Tests for edge-cut partition strategies and fragment construction."""

import pytest

from repro.errors import PartitionError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition.edge_cut import (BfsPartitioner, GreedyLdgPartitioner,
                                      HashPartitioner, RangePartitioner)
from repro.partition.quality import (balance, edge_cut_ratio,
                                     replication_factor)

PARTITIONERS = [HashPartitioner(), RangePartitioner(), BfsPartitioner(seed=1),
                GreedyLdgPartitioner(seed=1)]


@pytest.mark.parametrize("partitioner", PARTITIONERS,
                         ids=lambda p: p.name)
class TestAllPartitioners:
    def test_total_assignment(self, partitioner, small_powerlaw):
        assignment = partitioner.assign(small_powerlaw, 4)
        assert set(assignment) == set(small_powerlaw.nodes)
        assert all(0 <= fid < 4 for fid in assignment.values())

    def test_partition_covers_all_nodes(self, partitioner, small_powerlaw):
        pg = partitioner.partition(small_powerlaw, 4)
        owned = set()
        for frag in pg:
            assert not (owned & frag.owned), "owned sets must be disjoint"
            owned |= frag.owned
        assert owned == set(small_powerlaw.nodes)

    def test_partition_covers_all_edges(self, partitioner, small_grid):
        pg = partitioner.partition(small_grid, 4)
        seen = set()
        for frag in pg:
            for u, v, _ in frag.graph.edges():
                seen.add((min(u, v), max(u, v)))
        expected = {(min(u, v), max(u, v)) for u, v, _ in small_grid.edges()}
        assert seen == expected

    def test_single_fragment(self, partitioner, small_grid):
        pg = partitioner.partition(small_grid, 1)
        frag = pg.fragments[0]
        assert frag.owned == set(small_grid.nodes)
        assert not frag.mirrors
        assert not frag.border_nodes

    def test_invalid_fragment_count(self, partitioner, small_grid):
        with pytest.raises(PartitionError):
            partitioner.partition(small_grid, 0)


class TestRangePartitioner:
    def test_ranges_are_numeric_not_lexicographic(self):
        g = generators.grid2d(12, 12)
        assignment = RangePartitioner().assign(g, 2)
        assert [assignment[v] for v in range(144)] == [0] * 72 + [1] * 72
        # 12 cut edges between rows 5 and 6; sorting by repr cut 48
        cut = sum(assignment[u] != assignment[v] for u, v, _ in g.edges())
        assert cut == 12

    def test_mixed_ids_fall_back_to_repr_order(self):
        g = Graph()
        for v in (2, "b", 10, "a"):
            g.add_node(v)
        assignment = RangePartitioner().assign(g, 2)
        assert assignment == {"a": 0, "b": 0, 10: 1, 2: 1}


class TestBorderSemantics:
    def test_cut_edge_copied_both_sides(self):
        g = Graph(directed=True)
        g.add_edge("a", "b", 2.0)
        pg = RangePartitioner().partition(g, 2)
        fa, fb = pg.fragment_of("a"), pg.fragment_of("b")
        assert fa.graph.has_edge("a", "b")
        assert fb.graph.has_edge("a", "b")
        assert fa is not fb

    def test_directed_border_sets(self):
        g = Graph(directed=True)
        g.add_edge("a", "b")
        pg = RangePartitioner().partition(g, 2)
        fa, fb = pg.fragment_of("a"), pg.fragment_of("b")
        # a -> b crosses from fa to fb
        assert "a" in fa.out_border          # F.O'
        assert "b" in fa.out_copies          # F.O
        assert "b" in fb.in_border           # F.I
        assert "a" in fb.in_copies           # F.I'
        assert "a" not in fa.in_border
        assert "b" not in fb.out_border

    def test_undirected_border_symmetric(self):
        g = Graph(directed=False)
        g.add_edge("a", "b")
        pg = RangePartitioner().partition(g, 2)
        fa = pg.fragment_of("a")
        assert "a" in fa.in_border and "a" in fa.out_border
        assert "b" in fa.in_copies and "b" in fa.out_copies

    def test_routing_index(self, small_grid):
        pg = HashPartitioner().partition(small_grid, 4)
        for frag in pg:
            for v in frag.border_nodes | frag.mirrors:
                locs = frag.locations(v)
                assert frag.fid not in locs
                assert locs, f"shared node {v} must reside elsewhere"
                for j in locs:
                    other = pg.fragments[j]
                    assert (v in other.owned) or (v in other.mirrors)

    def test_interior_nodes_have_no_locations(self, small_grid):
        pg = BfsPartitioner(seed=0).partition(small_grid, 4)
        for frag in pg:
            interior = frag.owned - frag.border_nodes
            for v in interior:
                assert frag.locations(v) == ()

    def test_peer_fragments(self, small_grid):
        pg = HashPartitioner().partition(small_grid, 4)
        for frag in pg:
            peers = frag.peer_fragments()
            assert frag.fid not in peers


class TestQualityMetrics:
    def test_bfs_cuts_fewer_edges_than_hash(self, small_grid):
        hash_pg = HashPartitioner().partition(small_grid, 4)
        bfs_pg = BfsPartitioner(seed=0).partition(small_grid, 4)
        assert edge_cut_ratio(bfs_pg) < edge_cut_ratio(hash_pg)

    def test_ldg_cuts_fewer_edges_than_hash(self, small_grid):
        hash_pg = HashPartitioner().partition(small_grid, 4)
        ldg_pg = GreedyLdgPartitioner(seed=0).partition(small_grid, 4)
        assert edge_cut_ratio(ldg_pg) < edge_cut_ratio(hash_pg)

    def test_range_is_balanced(self, small_powerlaw):
        pg = RangePartitioner().partition(small_powerlaw, 4)
        counts = [len(f.owned) for f in pg]
        assert max(counts) - min(counts) <= 1

    def test_replication_at_least_one(self, small_powerlaw):
        pg = HashPartitioner().partition(small_powerlaw, 4)
        assert replication_factor(pg) >= 1.0

    def test_balance_one_fragment(self, small_grid):
        pg = HashPartitioner().partition(small_grid, 1)
        assert balance(pg) == 1.0

    def test_hash_salt_changes_assignment(self, small_powerlaw):
        a = HashPartitioner(salt=0).assign(small_powerlaw, 4)
        b = HashPartitioner(salt=1).assign(small_powerlaw, 4)
        assert a != b


class TestPartitionedGraph:
    def test_fragment_of(self, partitioned_grid):
        for v in range(100):
            frag = partitioned_grid.fragment_of(v)
            assert v in frag.owned

    def test_fragment_of_unknown(self, partitioned_grid):
        with pytest.raises(PartitionError):
            partitioned_grid.fragment_of("nope")

    def test_iteration_and_len(self, partitioned_grid):
        assert len(partitioned_grid) == 4
        assert [f.fid for f in partitioned_grid] == [0, 1, 2, 3]

    def test_cut_kind(self, partitioned_grid):
        assert partitioned_grid.cut == "edge"
        assert all(f.cut == "edge" for f in partitioned_grid)
