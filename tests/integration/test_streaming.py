"""Tests for streaming updates (incremental continuation runs)."""

import random

import pytest

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.errors import ProgramError
from repro.graph import analysis, generators
from repro.partition.builder import build_edge_cut
from repro.streaming import StreamingSession, UpdateBatch
from tests.conftest import assert_partitions_equal


class TestUpdateBatch:
    def test_of_normalises(self):
        batch = UpdateBatch.of((1, 2), (3, 4, 2.5))
        assert batch.insertions == ((1, 2, 1.0), (3, 4, 2.5))
        assert len(batch) == 2

    def test_empty_rejected(self):
        with pytest.raises(ProgramError):
            UpdateBatch(insertions=())

    def test_bad_shape_rejected(self):
        with pytest.raises(ProgramError):
            UpdateBatch.of((1,))


class TestStreamingCC:
    def test_bridge_merges_components(self):
        g = generators.path_graph(6)
        g.add_edge(10, 11)  # a second component
        sess = StreamingSession(CCProgram(), g, CCQuery(), num_fragments=3)
        assert len(set(sess.answer.values())) == 2
        sess.apply(UpdateBatch.of((5, 10)))
        assert set(sess.answer.values()) == {0}

    def test_new_nodes_join(self, small_powerlaw):
        sess = StreamingSession(CCProgram(), small_powerlaw, CCQuery(),
                                num_fragments=4)
        sess.apply(UpdateBatch.of((7777, 0), (7778, 7777)))
        assert sess.answer[7777] == sess.answer[0]
        assert sess.answer[7778] == sess.answer[0]

    def test_many_random_batches_match_reference(self, small_powerlaw):
        rng = random.Random(5)
        g = small_powerlaw.copy()
        sess = StreamingSession(CCProgram(), g, CCQuery(), num_fragments=4)
        reference_graph = g.copy()
        next_id = 10_000
        for _ in range(5):
            edges = []
            for _ in range(4):
                if rng.random() < 0.5:
                    u, v = next_id, rng.randrange(300)
                    next_id += 1
                else:
                    u, v = rng.sample(range(300), 2)
                    if reference_graph.has_edge(u, v):
                        continue
                edges.append((u, v))
            if not edges:
                continue
            batch = UpdateBatch.of(*edges)
            sess.apply(batch)
            for u, v, w in batch.insertions:
                reference_graph.add_edge(u, v, w)
            assert sess.answer == analysis.connected_components(
                reference_graph)

    def test_continuation_cheaper_than_rerun(self, small_powerlaw):
        sess = StreamingSession(CCProgram(), small_powerlaw, CCQuery(),
                                num_fragments=4)
        initial_work = sess.initial_result.metrics.total_work
        cont = sess.apply(UpdateBatch.of((8888, 3)))
        assert cont.metrics.total_work < initial_work / 2
        # a continuation run leaves Assemble to whoever wants the answer
        assert cont.answer is None and 8888 in sess.answer


class TestStreamingSSSP:
    def test_shortcut_lowers_distances(self):
        g = generators.path_graph(30, weighted=False)
        sess = StreamingSession(SSSPProgram(), g, SSSPQuery(source=0),
                                num_fragments=3)
        assert sess.answer[29] == 29.0
        sess.apply(UpdateBatch.of((0, 29, 2.0)))
        assert sess.answer[29] == 2.0
        assert sess.answer[28] == 3.0

    def test_random_insertions_match_dijkstra(self, small_grid):
        rng = random.Random(11)
        g = small_grid.copy()
        sess = StreamingSession(SSSPProgram(), g, SSSPQuery(source=0),
                                num_fragments=4)
        reference_graph = g.copy()
        for _ in range(4):
            u, v = rng.sample(range(100), 2)
            if reference_graph.has_edge(u, v):
                continue
            w = rng.uniform(0.1, 3.0)
            sess.apply(UpdateBatch.of((u, v, w)))
            reference_graph.add_edge(u, v, w)
            ref = analysis.dijkstra(reference_graph, 0)
            for node in ref:
                assert sess.answer[node] == pytest.approx(ref[node])


class TestGrowsInPlace:
    """One partition and one engine for the session's life; the rebuild
    survives as the oracle they are held to after every batch."""

    @pytest.mark.parametrize("program, query, reference", [
        (CCProgram(), CCQuery(), analysis.connected_components),
        (SSSPProgram(), SSSPQuery(source=0),
         lambda graph: analysis.dijkstra(graph, 0)),
    ], ids=["cc", "sssp"])
    def test_same_objects_and_equal_to_rebuild(self, small_grid, program,
                                               query, reference):
        m = 4
        sess = StreamingSession(program, small_grid, query, num_fragments=m)
        pg0, engine0 = sess.pg, sess.engine
        rng = random.Random(23)
        next_id = 1000
        for _ in range(5):
            edges = [(next_id, rng.randrange(100), rng.uniform(0.1, 3.0))]
            next_id += 1
            u, v = rng.sample(range(100), 2)
            if not sess.graph.has_edge(u, v):
                edges.append((u, v, rng.uniform(0.1, 3.0)))
            sess.apply(UpdateBatch.of(*edges))
            assert sess.pg is pg0 and sess.engine is engine0
            assert sess.owner is pg0.owner
            assert_partitions_equal(
                sess.pg, build_edge_cut(sess.graph, dict(sess.pg.owner), m,
                                        "oracle"))
            ref = reference(sess.graph)
            answer = sess.answer
            assert set(answer) == set(ref)
            for node in ref:
                assert answer[node] == pytest.approx(ref[node])
        assert sess.batches_applied == 5


class TestStreamingLimits:
    def test_duplicate_edge_rejected(self, small_grid):
        sess = StreamingSession(CCProgram(), small_grid, CCQuery(),
                                num_fragments=2)
        with pytest.raises(ProgramError):
            sess.apply(UpdateBatch.of((0, 1)))

    def test_non_streamable_program_rejected(self, small_powerlaw):
        sess = StreamingSession(
            PageRankProgram(), small_powerlaw,
            PageRankQuery(epsilon=1e-2, num_nodes=300), num_fragments=3)
        with pytest.raises(ProgramError):
            sess.apply(UpdateBatch.of((9999, 0)))
