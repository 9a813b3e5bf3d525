"""Regression tests for the streaming correctness fixes, held on the live
service that keeps a computation across updates.

Four bugs, four tests (plus cross-process determinism):

1. ownership used the per-process-salted builtin ``hash``;
2. applying a batch mutated the graph before validating all of it;
3. a per-batch engine rebuild aliased program scratch across engines
   (the rebuild is gone: the service grows one engine in place, and what
   is left to hold is that a rejected batch touches no context);
4. ``UpdateBatch`` accepted within-batch duplicate edges.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.errors import ProgramError
from repro.graph import analysis, generators
from repro.graph.graph import Graph
from repro.graph.stable import canonical_bytes, owner, stable_hash
from repro.serve import GraphService
from repro.streaming import UpdateBatch, validate_batch

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.graph.stable import owner, stable_hash
nodes = ["alpha", "beta", "v-17", ("t", 1), 42, 3.5, None, True, b"raw"]
print(json.dumps([[repr(v), stable_hash(v), owner(v, 4)]
                  for v in nodes]))
"""


def _probe_with_hashseed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    out = subprocess.run([sys.executable, "-c", _PROBE, SRC_DIR],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


class TestStableOwnership:
    def test_cross_seed_determinism(self):
        """Two interpreters with different hash salts agree on placement."""
        assert _probe_with_hashseed(1) == _probe_with_hashseed(2)

    def test_type_tagged_no_collisions(self):
        distinct = [0, 0.5, "0", b"0", (0,), ("0",), frozenset({0}),
                    None, False]
        blobs = [canonical_bytes(v) for v in distinct]
        assert len(set(blobs)) == len(blobs)

    def test_session_uses_stable_owner(self):
        g = Graph(directed=False)
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            g.add_edge(u, v, 1.0)
        svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=3,
                           runtime="simulated")
        assert svc.pg.owner == {v: owner(v, 3) for v in g.nodes}
        svc.ingest(UpdateBatch.of(("d", "e")))
        svc.flush()
        assert svc.pg.owner["e"] == owner("e", 3)


class TestAtomicApply:
    def test_failed_batch_leaves_session_untouched(self):
        g = generators.path_graph(8, weighted=True, seed=0)
        svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                           num_fragments=3, runtime="simulated")
        before_edges = sorted(svc.graph.edges())
        before_owner = dict(svc.pg.owner)
        before_answer = svc.answer
        engine_before = svc.engine
        # the first insertion is fine, the second duplicates an existing
        # edge: nothing from the batch may stick
        bad = UpdateBatch.of((20, 21, 1.0), (0, 1, 9.9))
        with pytest.raises(ProgramError):
            svc.ingest(bad)
        assert sorted(svc.graph.edges()) == before_edges
        assert svc.pg.owner == before_owner
        assert svc.engine is engine_before
        assert (svc.lag, svc.accepted, svc.epoch) == (0, 0, 0)
        assert svc.answer == before_answer
        assert svc.engine.assemble() == before_answer
        # the service is still live: a valid batch converges to the
        # full-recompute answer on the grown graph
        svc.ingest(UpdateBatch.of((7, 30, 0.5), (30, 0, 0.25)))
        svc.flush()
        ref = analysis.dijkstra(svc.graph, 0)
        assert svc.answer == ref

    def test_self_loop_rejected_atomically(self):
        g = generators.path_graph(5, weighted=True, seed=0)
        svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=2,
                           runtime="simulated")
        batch = UpdateBatch.of((0, 9, 1.0))
        object.__setattr__(batch, "insertions", ((0, 9, 1.0), (3, 3, 1.0)))
        with pytest.raises(ProgramError):
            svc.ingest(batch)
        assert svc.lag == 0
        assert not svc.graph.has_node(9)

    def test_validate_batch_sees_staged_edges(self):
        g = generators.path_graph(4, weighted=True, seed=0)
        staged = set()
        validate_batch(g, UpdateBatch.of((0, 9)), staged=staged)
        staged.add(frozenset((0, 9)))
        with pytest.raises(ProgramError):
            validate_batch(g, UpdateBatch.of((0, 9)), staged=staged)


class TestScratchIsolation:
    def test_rejected_batch_leaves_scratch_untouched(self):
        g = generators.path_graph(6, weighted=True, seed=0)
        g.add_edge(10, 11, 1.0)  # a second component to merge later
        svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=3,
                           runtime="simulated")
        engine = svc.engine
        assert engine.vectorized  # the dense engine: state is its arrays
        snap = [ctx.array.copy() for ctx in engine.contexts]
        # the bridge is fine, the second edge already exists
        with pytest.raises(ProgramError):
            svc.ingest(UpdateBatch.of((5, 10, 1.0), (0, 1, 2.0)))
        assert svc.engine is engine
        assert all(np.array_equal(ctx.array, before)
                   for ctx, before in zip(engine.contexts, snap))
        # and an accepted one moves that same engine's arrays in place
        svc.ingest(UpdateBatch.of((5, 10, 1.0)))
        svc.flush()
        assert svc.engine is engine
        assert not all(np.array_equal(ctx.array, before)
                       for ctx, before in zip(engine.contexts, snap))
        assert set(svc.answer.values()) == {0}


class TestDuplicateInsertions:
    def test_within_batch_duplicate_rejected(self):
        with pytest.raises(ProgramError):
            UpdateBatch.of((1, 2), (1, 2, 3.0))

    def test_self_loop_rejected(self):
        with pytest.raises(ProgramError):
            UpdateBatch.of((4, 4))

    def test_distinct_edges_accepted(self):
        batch = UpdateBatch.of((1, 2), (2, 3), (2, 1))
        assert len(batch) == 3
