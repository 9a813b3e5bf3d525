"""Tests for the delta-accumulative PageRank PIE program."""

import pytest

from repro import api
from repro.algorithms import PageRankProgram, PageRankQuery
from repro.core.modes import MODES
from repro.errors import ProgramError
from repro.graph import analysis, generators
from repro.graph.graph import Graph
from repro.partition.vertex_cut import HashEdgePartitioner


def assert_close(answer, graph, tol=2e-3, damping=0.85):
    ref = analysis.pagerank(graph, damping=damping, epsilon=1e-12)
    for v in ref:
        assert answer[v] == pytest.approx(ref[v], abs=tol), f"node {v}"


@pytest.mark.parametrize("mode", MODES)
class TestAllModes:
    def test_powerlaw(self, small_powerlaw, mode):
        r = api.run(PageRankProgram(), small_powerlaw,
                    PageRankQuery(epsilon=1e-4), num_fragments=4, mode=mode)
        assert_close(r.answer, small_powerlaw)


class TestSemantics:
    def test_directed_web_graph(self):
        g = generators.rmat(7, edge_factor=4, seed=6)
        r = api.run(PageRankProgram(), g, PageRankQuery(epsilon=1e-4),
                    num_fragments=4)
        assert_close(r.answer, g)

    def test_dangling_nodes(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 1)  # 1 is dangling
        r = api.run(PageRankProgram(), g, PageRankQuery(epsilon=1e-8),
                    num_fragments=2)
        assert_close(r.answer, g, tol=1e-5)

    def test_custom_damping(self, small_powerlaw):
        r = api.run(PageRankProgram(), small_powerlaw,
                    PageRankQuery(damping=0.5, epsilon=1e-5),
                    num_fragments=3)
        assert_close(r.answer, small_powerlaw, damping=0.5, tol=1e-3)

    def test_tighter_epsilon_more_accurate(self, small_powerlaw):
        ref = analysis.pagerank(small_powerlaw, epsilon=1e-12)

        def max_err(eps):
            r = api.run(PageRankProgram(), small_powerlaw,
                        PageRankQuery(epsilon=eps), num_fragments=4)
            return max(abs(r.answer[v] - ref[v]) for v in ref)

        assert max_err(1e-6) < max_err(1e-2)

    def test_scores_positive_and_bounded(self, small_powerlaw):
        r = api.run(PageRankProgram(), small_powerlaw,
                    PageRankQuery(epsilon=1e-4), num_fragments=4)
        n = small_powerlaw.num_nodes
        total = sum(r.answer.values())
        assert all(s > 0 for s in r.answer.values())
        # without dangling leakage total mass would be n; allow slack
        assert 0.5 * n <= total <= 1.5 * n

    def test_vertex_cut_rejected(self, small_powerlaw):
        pg = HashEdgePartitioner().partition(small_powerlaw, 3)
        with pytest.raises(ProgramError):
            api.run(PageRankProgram(), pg, PageRankQuery())

    def test_deltas_consumed_exactly_once(self, small_powerlaw):
        """Total mass conservation: sum of scores equals the closed form
        for a graph with no dangling nodes."""
        g = Graph(directed=True)
        for i in range(10):
            g.add_edge(i, (i + 1) % 10)
            g.add_edge(i, (i + 3) % 10)
        r = api.run(PageRankProgram(), g, PageRankQuery(epsilon=1e-10),
                    num_fragments=3)
        # regular graph: each score is exactly 1
        for v in g.nodes:
            assert r.answer[v] == pytest.approx(1.0, abs=1e-6)


class TestMemoizedKernelArrays:
    def test_rebuilt_after_in_place_growth(self):
        """The kernel's per-fragment arrays (degrees, divisor, the
        owned-source rows) are memoized on the fragment; growing it in
        place must drop them, or the next run would index the new CSR
        with the old degrees."""
        import numpy as np

        from repro.algorithms.pagerank import _spmv_arrays
        from repro.graph import stable
        from repro.partition.builder import build_edge_cut
        from repro.partition.grow import grow_edge_cut

        g = generators.powerlaw(80, m=2, seed=3)
        owner = {v: stable.owner(v, 2) for v in g.nodes}
        pg = build_edge_cut(g, owner, 2, "test")
        query = PageRankQuery(epsilon=1e-6)
        api.run(PageRankProgram(), pg, query, vectorized=True)
        before = [_spmv_arrays(frag) for frag in pg]
        # memoized: a second run is handed the very same arrays
        api.run(PageRankProgram(), pg, query, vectorized=True)
        for frag, old in zip(pg, before):
            assert _spmv_arrays(frag)[0] is old[0]

        # a new node 80 hanging off 0, and a new edge between old nodes
        u, v = next((u, v) for u in g.nodes for v in g.nodes
                    if u < v and not g.has_edge(u, v))
        insertions = [(0, 80, 1.0), (u, v, 1.0)]
        report = grow_edge_cut(pg, insertions)
        for a, b, w in insertions:
            g.add_edge(a, b, w)
        grown = api.run(PageRankProgram(), pg, query, vectorized=True)
        for fid in report.touched:
            frag = pg.fragments[fid]
            degrees, divisor, edge_src, edge_dst = _spmv_arrays(frag)
            assert degrees is not before[fid][0]
            csr = frag.compact().csr  # the new engine merged the spill
            assert np.array_equal(degrees, np.diff(csr.out_indptr))
            assert np.array_equal(divisor, np.maximum(degrees, 1))
            # the rows that start at an owned node, in CSR order
            kept = frag.compact().owned_mask[csr.out_sources]
            assert not kept.all()
            assert np.array_equal(edge_src, csr.out_sources[kept])
            assert np.array_equal(edge_dst, csr.out_indices[kept])
        # and the grown partition answers like one built from scratch
        rebuilt = build_edge_cut(g, dict(pg.owner), 2, "test")
        fresh = api.run(PageRankProgram(), rebuilt, query, vectorized=True)
        assert grown.answer == fresh.answer
        assert_close(grown.answer, g, tol=1e-4)
