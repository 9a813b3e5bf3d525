"""Tests for streaming updates: a live service absorbs insertion batches
by incremental continuation."""

import random

import pytest

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.errors import ProgramError
from repro.graph import analysis, generators
from repro.obs import EPOCH_APPLY
from repro.partition.builder import build_edge_cut
from repro.serve import GraphService
from repro.streaming import UpdateBatch
from tests.conftest import assert_partitions_equal, generic

ENGINES = {"dense": lambda program: program, "generic": generic}


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
        svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=3,
                           runtime="simulated")
        assert len(set(svc.answer.values())) == 2
        svc.ingest(UpdateBatch.of((5, 10)))
        svc.flush()
        assert set(svc.answer.values()) == {0}

    def test_new_nodes_join(self, small_powerlaw):
        svc = GraphService(CCProgram(), small_powerlaw, CCQuery(),
                           num_fragments=4, runtime="simulated")
        svc.ingest(UpdateBatch.of((7777, 0), (7778, 7777)))
        svc.flush()
        assert svc.answer[7777] == svc.answer[0]
        assert svc.answer[7778] == svc.answer[0]

    def test_many_random_batches_match_reference(self, small_powerlaw):
        rng = random.Random(5)
        g = small_powerlaw.copy()
        svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=4,
                           runtime="simulated")
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
            svc.ingest(batch)
            svc.flush()
            for u, v, w in batch.insertions:
                reference_graph.add_edge(u, v, w)
            assert svc.answer == analysis.connected_components(
                reference_graph)

    def test_continuation_cheaper_than_rerun(self, small_powerlaw):
        svc = GraphService(CCProgram(), small_powerlaw, CCQuery(),
                           num_fragments=4, runtime="simulated")
        # an epoch runs neither PEval nor Assemble: the continuation
        # starts from the integrated insertions and the answer is patched
        # with the program's delta
        svc.program.peval = svc.program.dense_peval = None
        svc.engine.assemble = None
        svc.ingest(UpdateBatch.of((8888, 3)))
        svc.flush()
        (epoch,) = svc.obs.log.filter(type=EPOCH_APPLY)
        assert epoch.payload["changed"] == 1
        assert svc.answer[8888] == svc.answer[3]


class TestStreamingSSSP:
    def test_shortcut_lowers_distances(self):
        g = generators.path_graph(30, weighted=False)
        svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                           num_fragments=3, runtime="simulated")
        assert svc.answer[29] == 29.0
        svc.ingest(UpdateBatch.of((0, 29, 2.0)))
        svc.flush()
        assert svc.answer[29] == 2.0
        assert svc.answer[28] == 3.0

    def test_random_insertions_match_dijkstra(self, small_grid):
        rng = random.Random(11)
        g = small_grid.copy()
        svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                           num_fragments=4, runtime="simulated")
        reference_graph = g.copy()
        for _ in range(4):
            u, v = rng.sample(range(100), 2)
            if reference_graph.has_edge(u, v):
                continue
            w = rng.uniform(0.1, 3.0)
            svc.ingest(UpdateBatch.of((u, v, w)))
            svc.flush()
            reference_graph.add_edge(u, v, w)
            ref = analysis.dijkstra(reference_graph, 0)
            for node in ref:
                assert svc.answer[node] == pytest.approx(ref[node])


class TestGrowsInPlace:
    """One partition and one engine for the service's life; the rebuild
    survives as the oracle they are held to after every batch."""

    @pytest.mark.parametrize("program, query, reference, engine", [
        (CCProgram(), CCQuery(), analysis.connected_components, "dense"),
        (SSSPProgram(), SSSPQuery(source=0),
         lambda graph: analysis.dijkstra(graph, 0), "dense"),
        (CCProgram(), CCQuery(), analysis.connected_components, "generic"),
        (SSSPProgram(), SSSPQuery(source=0),
         lambda graph: analysis.dijkstra(graph, 0), "generic"),
    ], ids=["cc", "sssp", "cc-generic", "sssp-generic"])
    def test_same_objects_and_equal_to_rebuild(self, small_grid, program,
                                               query, reference, engine):
        m = 4
        svc = GraphService(ENGINES[engine](program), small_grid, query,
                           num_fragments=m, runtime="simulated")
        assert svc.status()["engine"] == engine
        pg0, engine0 = svc.pg, svc.engine
        rng = random.Random(23)
        next_id = 1000
        for _ in range(5):
            edges = [(next_id, rng.randrange(100), rng.uniform(0.1, 3.0))]
            next_id += 1
            u, v = rng.sample(range(100), 2)
            if not svc.graph.has_edge(u, v):
                edges.append((u, v, rng.uniform(0.1, 3.0)))
            svc.ingest(UpdateBatch.of(*edges))
            svc.flush()
            assert svc.pg is pg0 and svc.engine is engine0
            assert svc.engine.pg is pg0
            assert_partitions_equal(
                svc.pg, build_edge_cut(svc.graph, dict(svc.pg.owner), m,
                                       "oracle"))
            ref = reference(svc.graph)
            answer = svc.answer
            assert set(answer) == set(ref)
            for node in ref:
                assert answer[node] == pytest.approx(ref[node])
        assert svc.epoch == 5


class TestStreamingLimits:
    def test_duplicate_edge_rejected(self, small_grid):
        svc = GraphService(CCProgram(), small_grid, CCQuery(),
                           num_fragments=2, runtime="simulated")
        with pytest.raises(ProgramError):
            svc.ingest(UpdateBatch.of((0, 1)))

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_non_streamable_program_refused(self, small_powerlaw, engine):
        program = ENGINES[engine](PageRankProgram())
        svc = GraphService(program, small_powerlaw,
                           PageRankQuery(epsilon=1e-2, num_nodes=300),
                           num_fragments=3, runtime="simulated")
        assert svc.status()["engine"] == engine
        before = svc.answer
        with pytest.raises(ProgramError, match=type(program).__name__):
            svc.ingest(UpdateBatch.of((9999, 0)))
        # nothing staged: no lag, no new node in the graph or the partition
        assert (svc.lag, svc.accepted, svc.epoch) == (0, 0, 0)
        assert not svc.graph.has_node(9999)
        assert 9999 not in svc.pg.owner
        # and reads keep being served from the untouched answer
        res = svc.query(0)
        assert res.served and res.value == before[0]
        assert svc.snapshot().value == before
