"""Tests for the CSR compact graph backend."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import analysis, generators
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph


@pytest.fixture
def small_compact(small_grid):
    return CompactGraph.from_graph(small_grid)


class TestConstruction:
    def test_from_graph_roundtrip(self, small_grid):
        cg = CompactGraph.from_graph(small_grid)
        assert cg.num_nodes == small_grid.num_nodes
        assert cg.num_edges == small_grid.num_edges
        assert cg.to_graph() == small_grid

    def test_from_edges_directed(self):
        cg = CompactGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)],
                                     directed=True)
        assert cg.out_edges(0) == [(1, 2.0)]
        assert cg.out_edges(2) == []
        assert cg.in_edges(2) == [(1, 3.0)]

    def test_from_edges_undirected_mirrors(self):
        cg = CompactGraph.from_edges(2, [(0, 1, 5.0)], directed=False)
        assert cg.out_edges(1) == [(0, 5.0)]
        assert cg.num_edges == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            CompactGraph.from_edges(2, [(0, 5, 1.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            CompactGraph.from_edges(2, [(1, 1, 1.0)])

    def test_rejects_noncontiguous_ids(self):
        g = Graph()
        g.add_edge("a", "b")
        with pytest.raises(GraphError):
            CompactGraph.from_graph(g)


class TestReadApi:
    def test_adjacency_matches_dict_graph(self, small_grid, small_compact):
        for v in small_grid.nodes:
            assert sorted(small_compact.out_edges(v)) == \
                sorted(small_grid.out_edges(v))
            assert small_compact.out_degree(v) == small_grid.out_degree(v)
            assert small_compact.in_degree(v) == small_grid.in_degree(v)

    def test_edges_iterate_once(self, small_grid, small_compact):
        mine = {(u, v) for u, v, _ in small_compact.edges()}
        theirs = {(min(u, v), max(u, v))
                  for u, v, _ in small_grid.edges()}
        assert {(min(u, v), max(u, v)) for u, v in mine} == theirs

    def test_has_edge_and_weight(self, small_grid, small_compact):
        u, v, w = next(iter(small_grid.edges()))
        assert small_compact.has_edge(u, v)
        assert small_compact.weight(u, v) == w
        assert not small_compact.has_edge(0, 99)

    def test_unknown_access(self, small_compact):
        with pytest.raises(GraphError):
            small_compact.out_edges(-1)
        with pytest.raises(GraphError):
            small_compact.weight(0, 2)
        assert "ghost" not in small_compact

    def test_len_and_repr(self, small_compact):
        assert len(small_compact) == 100
        assert "CompactGraph" in repr(small_compact)


class TestAlgorithmsRunOnCsr:
    def test_dijkstra(self, small_grid, small_compact):
        ref = analysis.dijkstra(small_grid, 0)
        got = analysis.dijkstra(small_compact, 0)
        assert all(got[v] == pytest.approx(ref[v]) for v in ref)

    def test_components(self, small_powerlaw):
        cg = CompactGraph.from_graph(small_powerlaw)
        assert analysis.connected_components(cg) == \
            analysis.connected_components(small_powerlaw)

    def test_pagerank(self, small_powerlaw):
        cg = CompactGraph.from_graph(small_powerlaw)
        ref = analysis.pagerank(small_powerlaw, epsilon=1e-9)
        got = analysis.pagerank(cg, epsilon=1e-9)
        for v in ref:
            assert got[v] == pytest.approx(ref[v], abs=1e-6)

    def test_bfs_and_diameter(self, small_grid, small_compact):
        assert analysis.bfs_levels(small_compact, 0) == \
            analysis.bfs_levels(small_grid, 0)
        assert analysis.diameter_estimate(small_compact) == \
            analysis.diameter_estimate(small_grid)


class TestEndToEndOnCsr:
    def test_partition_and_run_from_csr(self, small_powerlaw):
        """A CompactGraph feeds the partitioner/engine unchanged."""
        from repro import api
        from repro.algorithms import CCProgram, CCQuery
        cg = CompactGraph.from_graph(small_powerlaw)
        pg = api.partition_graph(cg, 4)
        r = api.run(CCProgram(), pg, CCQuery())
        assert r.answer == analysis.connected_components(small_powerlaw)


class TestArrayAccessors:
    def test_out_arrays_zero_copy(self, small_compact):
        import numpy as np
        nbrs, wts = small_compact.out_arrays(3)
        assert np.shares_memory(nbrs, small_compact.out_indices)
        assert np.shares_memory(wts, small_compact.out_weights)

    def test_out_arrays_match_out_edges(self, small_compact):
        for v in small_compact.nodes:
            nbrs, wts = small_compact.out_arrays(v)
            assert list(zip(nbrs.tolist(), wts.tolist())) \
                == small_compact.out_edges(v)

    def test_in_arrays_match_in_edges(self):
        cg = CompactGraph.from_edges(
            4, [(0, 1, 2.0), (2, 1, 3.0), (3, 1, 4.0)], directed=True)
        nbrs, wts = cg.in_arrays(1)
        assert sorted(zip(nbrs.tolist(), wts.tolist())) \
            == sorted(cg.in_edges(1))

    def test_indptr_degrees(self, small_grid, small_compact):
        import numpy as np
        degs = np.diff(small_compact.out_indptr)
        for v in small_compact.nodes:
            assert degs[v] == small_grid.out_degree(v)


class TestExpandRanges:
    def test_matches_naive_expansion(self):
        import numpy as np
        from repro.graph.csr import expand_ranges
        starts = np.array([5, 0, 9], dtype=np.int64)
        counts = np.array([3, 0, 2], dtype=np.int64)
        expect = [5, 6, 7, 9, 10]
        assert expand_ranges(starts, counts).tolist() == expect

    def test_empty(self):
        import numpy as np
        from repro.graph.csr import expand_ranges
        out = expand_ranges(np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64))
        assert out.size == 0

    @settings(max_examples=300, deadline=None)
    @example([], False)
    @example([(7, 3)], False)
    @example([(7, 0)], False)
    @example([(1, 2), (5, 4), (9, 1)], True)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 9)),
                    max_size=40),
           st.booleans())
    def test_equals_concatenated_aranges(self, ranges, all_zero):
        """Random starts and counts, zeros included; all-zero counts, a
        single range and no range at all among the draws."""
        from repro.graph.csr import expand_ranges
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        counts = np.array([0 if all_zero else c for _, c in ranges],
                          dtype=np.int64)
        expect = np.concatenate(
            [np.arange(s, s + c, dtype=np.int64)
             for s, c in zip(starts.tolist(), counts.tolist())]
            or [np.empty(0, dtype=np.int64)])
        out = expand_ranges(starts, counts)
        assert out.dtype == np.int64
        assert out.tolist() == expect.tolist()


class TestStableOrder:
    """``stable_order`` is ``argsort(kind="stable")``, one sort cheaper."""

    def test_equals_stable_argsort_on_keys_with_duplicates(self):
        import numpy as np
        from repro.graph.csr import stable_order
        rng = np.random.default_rng(7)
        for bound, count in ((1, 50), (3, 200), (40, 1000), (10 ** 6, 300)):
            keys = rng.integers(0, bound, count)
            assert stable_order(keys, bound).tolist() \
                == np.argsort(keys, kind="stable").tolist()

    def test_empty_and_narrow_input(self):
        import numpy as np
        from repro.graph.csr import stable_order
        assert stable_order(np.empty(0, dtype=np.int64), 5).tolist() == []
        keys = np.array([2, 0, 2, 1], dtype=np.int32)  # must not wrap
        assert stable_order(keys, 2 ** 40).tolist() == [1, 3, 0, 2]

    def test_falls_back_where_the_packed_key_would_overflow(self,
                                                            monkeypatch):
        import numpy as np
        from repro.graph import csr
        keys = np.array([5, 1, 5, 0, 1], dtype=np.int64)
        want = np.argsort(keys, kind="stable").tolist()
        calls = []
        real_argsort = np.argsort
        monkeypatch.setattr(csr.np, "argsort", lambda *a, **k: (
            calls.append(k), real_argsort(*a, **k))[1])
        assert csr.stable_order(keys, 2 ** 62).tolist() == want
        assert calls == [{"kind": "stable"}]
        assert csr.stable_order(keys, 6).tolist() == want
        assert len(calls) == 1  # the packed sort needs no argsort

    def test_exact_int64_boundary(self, monkeypatch):
        """``bound * len(keys)`` == 2**63 - 1 still packs (the largest
        packed key is 2**63 - 2); one more falls back.  Keys at the top
        of the range, with duplicates, come out in the stable order both
        ways."""
        import numpy as np
        from repro.graph import csr
        top = np.iinfo(np.int64).max
        assert top % 7 == 0
        bound = top // 7
        keys = np.array([bound - 1, 0, bound - 1, 5, 0, bound - 1, 5],
                        dtype=np.int64)
        assert bound * len(keys) == top
        want = np.argsort(keys, kind="stable").tolist()
        calls = []
        real_argsort = np.argsort
        monkeypatch.setattr(csr.np, "argsort", lambda *a, **k: (
            calls.append(k), real_argsort(*a, **k))[1])
        assert csr.stable_order(keys, bound).tolist() == want
        assert calls == []
        assert csr.stable_order(keys, bound + 1).tolist() == want
        assert calls == [{"kind": "stable"}]

    def test_csr_rows_keep_edge_order(self):
        g = CompactGraph.from_edges(
            3, [(1, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0), (0, 1, 4.0)])
        assert g.out_edges(0) == [(2, 2.0), (1, 4.0)]
        assert g.out_edges(1) == [(0, 1.0), (2, 3.0)]
        assert g.in_edges(2) == [(0, 2.0), (1, 3.0)]


class TestToCsrIdCheck:
    """One type check per distinct type, the offender named as before."""

    @pytest.mark.parametrize("bad", [True, -3, 2.0, "7", (1, 2), None,
                                     2 ** 64])
    def test_first_offending_id_is_named(self, bad):
        from repro.graph.csr import GraphArrays
        g = Graph(directed=True)
        g.add_edge(4, 9)
        g.add_edge(9, bad)
        g.add_edge(bad, -1 if bad != -3 else -8)
        with pytest.raises(GraphError) as err:
            GraphArrays.of(g).to_csr()
        assert str(err.value) == \
            f"requires non-negative integer node ids, got {bad!r}"

    def test_numpy_and_subclassed_ints_pass(self):
        import enum

        import numpy as np
        from repro.graph.csr import GraphArrays

        class Colour(enum.IntEnum):
            RED = 5

        g = Graph(directed=True)
        g.add_edge(np.int64(3), Colour.RED)
        g.add_edge(Colour.RED, 0)
        ids, rank, csr = GraphArrays.of(g).to_csr()
        assert ids.tolist() == [0, 3, 5] and rank.tolist() == [1, 2, 0]
        assert csr.out_edges(2) == [(0, 1.0)]


class TestFrontierEdges:
    """The one edge accessor of the dense kernels: a sorted base plus the
    rows appended since (the *spill*)."""

    @staticmethod
    def rows(n, count, directed, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, count)
        dst = (src + rng.integers(1, n, count)) % n  # no self-loops
        return src, dst, rng.integers(1, 9, count).astype(np.float64)

    def test_without_a_spill_it_is_what_the_kernels_computed(self,
                                                             small_compact):
        """Bit for bit: the base arrays themselves for a sweep, and for a
        frontier the gathers through ``expand_ranges`` the kernels did
        before there was an accessor."""
        from repro.graph.csr import expand_ranges, frontier_edges
        g = small_compact
        values = np.random.default_rng(3).random(g.num_nodes)
        for reverse, (indptr, indices, weights, sources) in enumerate((
                (g.out_indptr, g.out_indices, g.out_weights, g.out_sources),
                (g.in_indptr, g.in_indices, g.in_weights, g.in_sources))):
            everything = frontier_edges(g, None, None, bool(reverse))
            assert all(got is want for got, want in zip(
                everything, (sources, indices, weights)))
            swept = frontier_edges(g, None, None, bool(reverse), False,
                                   at_source=values)
            assert swept[0].tobytes() == values[sources].tobytes()
            assert swept[2] is None
            for frontier in ([7], [0, 3, 4, 50, 99], list(range(100))):
                frontier = np.array(frontier)
                starts = indptr[frontier]
                at = expand_ranges(starts, indptr[frontier + 1] - starts)
                got = frontier_edges(g, None, frontier, bool(reverse))
                for mine, theirs in zip(got, (sources[at], indices[at],
                                              weights[at])):
                    assert mine.dtype == theirs.dtype
                    assert mine.tobytes() == theirs.tobytes()
                # the source's value instead of its lid: no source column
                read = frontier_edges(g, None, frontier, bool(reverse),
                                      at_source=values)
                assert read[0].tobytes() == values[sources[at]].tobytes()
                assert read[1].tobytes() == indices[at].tobytes()

    @pytest.mark.parametrize("directed", [True, False])
    def test_base_plus_spill_reads_like_the_merged_graph(self, directed):
        """Whatever the frontier and the direction: the edges of a CSR
        over the first rows plus the rest as its spill are the edges of a
        CSR over all rows — appended nodes included — and ``node_edges``
        yields one node's."""
        from collections import Counter

        from repro.graph.csr import Spill, frontier_edges, node_edges
        n, grown = 30, 36
        src, dst, wgt = self.rows(grown, 120, directed, seed=int(directed))
        old = (src < n) & (dst < n)
        base = CompactGraph.from_arrays(n, src[old], dst[old], wgt[old],
                                        directed)
        merged = CompactGraph.from_arrays(grown, src, dst, wgt, directed)
        tail, head, weights = src[~old], dst[~old], wgt[~old]
        if not directed:  # a row per stored direction, as the CSR has
            tail, head, weights = (np.concatenate(pair) for pair in (
                (tail, head), (head, tail), (weights, weights)))
        spill = Spill(tail, head, weights, np.zeros(grown, dtype=bool))
        out, inc = {}, {}
        for t, h, w in zip(tail.tolist(), head.tolist(), weights.tolist()):
            for rows, a, b in ((out, t, h), (inc, h, t)):
                rows.setdefault(a, ([], []))
                rows[a][0].append(b)
                rows[a][1].append(w)

        def bag(edges):
            return Counter(zip(*(column.tolist() for column in edges)))

        rng = np.random.default_rng(5)
        frontiers = [None, np.arange(grown), np.array([n + 2]),
                     *(np.sort(rng.choice(grown, size, replace=False))
                       for size in (1, 3, 10))]
        values = rng.random(grown)
        for reverse in (False, True):
            for frontier in frontiers:
                got = frontier_edges(base, spill, frontier, reverse)
                assert bag(got) == bag(frontier_edges(merged, None, frontier,
                                                      reverse))
                assert not spill.member.any()  # the scratch is left clear
                # spill rows are read through the tails they carry
                read = frontier_edges(base, spill, frontier, reverse,
                                      at_source=values)
                assert bag(read) == bag((values[got[0]], *got[1:]))
            for node in range(grown):
                targets, wgts, more, more_w = node_edges(
                    base, inc if reverse and directed else out, node,
                    reverse)
                want = frontier_edges(merged, None, np.array([node]),
                                      reverse)
                assert Counter(zip(targets.tolist() + list(more),
                                   wgts.tolist() + list(more_w))) \
                    == Counter(zip(want[1].tolist(), want[2].tolist()))


class TestOneAdjacency:
    """An undirected CSR's reverse adjacency is its forward one."""

    ROWS = ("indptr", "indices", "weights", "sources")

    def test_undirected_in_arrays_are_out_arrays(self, small_compact):
        g = small_compact
        assert not g.directed
        for row in self.ROWS:
            assert getattr(g, f"in_{row}") is getattr(g, f"out_{row}"), row
        for v in (0, 11, 99):
            assert g.in_edges(v) == g.out_edges(v)
            assert g.in_degree(v) == g.out_degree(v)

    def test_undirected_in_row_is_the_out_row(self):
        """Edges that name the node first, then those that name it
        second, each in input order."""
        g = CompactGraph.from_edges(
            4, [(1, 0, 1.0), (0, 2, 2.0), (3, 0, 3.0), (0, 1, 4.0)],
            directed=False)
        assert g.in_edges(0) == g.out_edges(0) \
            == [(2, 2.0), (1, 4.0), (1, 1.0), (3, 3.0)]

    def test_directed_keeps_a_reverse_csr(self):
        g = CompactGraph.from_edges(
            3, [(1, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0)], directed=True)
        for row in self.ROWS:
            assert getattr(g, f"in_{row}") is not getattr(g, f"out_{row}")
        assert g.in_indptr.tolist() == [0, 1, 1, 3]
        assert g.in_indices.tolist() == [1, 0, 1]
        assert g.in_weights.tolist() == [1.0, 2.0, 3.0]
        assert g.in_sources.tolist() == [0, 2, 2]

    @pytest.mark.parametrize("spilled", [False, True])
    def test_reverse_read_is_the_forward_read(self, spilled):
        from repro.graph.csr import Spill, frontier_edges
        rows = TestFrontierEdges.rows
        n = 30
        src, dst, wgt = rows(n + 4, 90, False, seed=9)
        old = (src < n) & (dst < n)
        base = CompactGraph.from_arrays(n, src[old], dst[old], wgt[old],
                                        directed=False)
        spill = None
        if spilled:
            tail, head, weights = (np.concatenate(pair) for pair in (
                (src[~old], dst[~old]), (dst[~old], src[~old]),
                (wgt[~old], wgt[~old])))
            spill = Spill(tail, head, weights, np.zeros(n + 4, dtype=bool))
        values = np.random.default_rng(2).random(n + 4)
        top = n + 4 if spilled else n  # appended nodes live in the spill
        for frontier in (None, np.array([3]), np.array([0, 7, 8, top - 1]),
                         np.arange(top)):
            for kwargs in ({}, {"weighted": False},
                           {"at_source": values}):
                forward = frontier_edges(base, spill, frontier, **kwargs)
                back = frontier_edges(base, spill, frontier, reverse=True,
                                      **kwargs)
                for mine, theirs in zip(back, forward):
                    if theirs is None:
                        assert mine is None
                    else:
                        assert mine.tobytes() == theirs.tobytes()
