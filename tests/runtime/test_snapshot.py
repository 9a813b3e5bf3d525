"""Tests for Chandy-Lamport snapshots and checkpoint recovery.

The mechanics and recovery classes run once per engine: the generic one
records ``node -> value`` dicts, their ``Dense`` subclasses the dense
engine's status arrays.
"""

import numpy as np
import pytest

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.errors import ProgramError, SnapshotError
from repro.graph import analysis
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import FragmentCSR
from repro.runtime.costmodel import CostModel
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.snapshot import ChandyLamportCoordinator, GlobalSnapshot
from repro.runtime.threaded import ThreadedRuntime


@pytest.fixture
def pg(small_powerlaw):
    return HashPartitioner().partition(small_powerlaw, 4)


def checkpointed_run(engine_factory, policy_factory, checkpoint_time,
                     cost_model_factory=None):
    """Run to completion, cutting a checkpoint at ``checkpoint_time``:
    ``(result, snapshot)``."""
    coord = ChandyLamportCoordinator()
    cm = cost_model_factory() if cost_model_factory else None
    runtime = SimulatedRuntime(engine_factory(), policy_factory(),
                               cost_model=cm, snapshot_coordinator=coord)
    coord.request_at(runtime, time=checkpoint_time)
    result = runtime.run()
    return result, coord.finalize()


def recover(engine_factory, policy_factory, snapshot,
            cost_model_factory=None):
    """Restore a fresh runtime from ``snapshot`` and run to fixpoint."""
    cm = cost_model_factory() if cost_model_factory else None
    runtime = SimulatedRuntime(engine_factory(), policy_factory(),
                               cost_model=cm)
    runtime.seed_from_snapshot(snapshot)
    return runtime.run()


def crash_and_recover(engine_factory, policy_factory, checkpoint_time,
                      cost_model_factory=None):
    """Checkpoint mid-run, discard what followed (as a crash would) and
    complete from the checkpoint: the recovered run's result."""
    _, snapshot = checkpointed_run(engine_factory, policy_factory,
                                   checkpoint_time, cost_model_factory)
    return recover(engine_factory, policy_factory, snapshot,
                   cost_model_factory)


class EngineKind:
    """Builds the engines of one kind: generic unless ``vectorized``."""

    vectorized = False

    def make(self, pg, program, query):
        engine = Engine(program, pg, query, vectorized=self.vectorized)
        assert engine.vectorized is self.vectorized
        return engine


class TestSnapshotMechanics(EngineKind):
    def test_all_workers_recorded(self, pg):
        _, snapshot = checkpointed_run(
            lambda: self.make(pg, CCProgram(), CCQuery()),
            lambda: make_policy("AP"), checkpoint_time=1.0)
        assert snapshot.num_workers_recorded == 4
        assert snapshot.complete

    def test_snapshot_does_not_change_answer(self, pg, small_powerlaw):
        result, _ = checkpointed_run(
            lambda: self.make(pg, CCProgram(), CCQuery()),
            lambda: make_policy("AAP"), checkpoint_time=2.0)
        assert result.answer == analysis.connected_components(
            small_powerlaw)

    def test_finalize_without_initiation(self):
        with pytest.raises(SnapshotError):
            ChandyLamportCoordinator().finalize()

    def test_token_stamping(self, pg):
        coord = ChandyLamportCoordinator(token=7)
        engine = self.make(pg, SSSPProgram(), SSSPQuery(source=0))
        runtime = SimulatedRuntime(engine, make_policy("AP"),
                                   snapshot_coordinator=coord)
        coord.request_at(runtime, time=0.5)
        runtime.run()
        snap = coord.finalize()
        # every message recorded in channel state lacks the token
        for msgs in snap.channel_messages.values():
            assert all(m.token != 7 for m in msgs)


class TestRecovery(EngineKind):
    @pytest.mark.parametrize("checkpoint_time", [0.5, 2.0, 10.0])
    def test_cc_recovers_to_same_answer(self, pg, small_powerlaw,
                                        checkpoint_time):
        result = crash_and_recover(
            lambda: self.make(pg, CCProgram(), CCQuery()),
            lambda: make_policy("AAP"), checkpoint_time=checkpoint_time)
        assert result.answer == analysis.connected_components(
            small_powerlaw)

    def test_sssp_recovers(self, pg, small_powerlaw):
        ref = analysis.dijkstra(small_powerlaw, 0)
        result = crash_and_recover(
            lambda: self.make(pg, SSSPProgram(), SSSPQuery(source=0)),
            lambda: make_policy("AP"), checkpoint_time=1.0,
            cost_model_factory=lambda: CostModel(seed=2))
        assert all(result.answer[v] == pytest.approx(ref[v])
                   for v in ref)

    def test_pagerank_recovers_within_tolerance(self, pg, small_powerlaw):
        ref = analysis.pagerank(small_powerlaw, epsilon=1e-10)
        result = crash_and_recover(
            lambda: self.make(pg, PageRankProgram(),
                              PageRankQuery(epsilon=1e-4)),
            lambda: make_policy("AAP"), checkpoint_time=3.0)
        for v in ref:
            assert result.answer[v] == pytest.approx(ref[v], abs=2e-3)

    def test_recover_from_empty_snapshot_rejected(self, pg):
        with pytest.raises(SnapshotError):
            recover(lambda: self.make(pg, CCProgram(), CCQuery()),
                    lambda: make_policy("AAP"), GlobalSnapshot(token=1))

    def test_late_checkpoint_snapshots_fixpoint(self, pg, small_powerlaw):
        # checkpoint far after convergence: recovery starts quiescent and
        # still assembles the right answer
        result = crash_and_recover(
            lambda: self.make(pg, CCProgram(), CCQuery()),
            lambda: make_policy("BSP"), checkpoint_time=10_000.0)
        assert result.answer == analysis.connected_components(
            small_powerlaw)

    def test_request_past_drain_yields_empty_complete_snapshot(self, pg):
        # request_at lands after the event queue has fully drained: every
        # worker records at quiescence, so the cut has all worker states,
        # no in-channel messages, and is still marked complete
        _, snap = checkpointed_run(
            lambda: self.make(pg, CCProgram(), CCQuery()),
            lambda: make_policy("AAP"), checkpoint_time=50_000.0)
        assert snap.complete
        assert snap.num_workers_recorded == 4
        assert snap.num_channel_messages == 0
        assert all(not msgs for msgs in snap.channel_messages.values())

    def test_recover_from_snapshot_under_aap(self, pg, small_powerlaw):
        # seed_from_snapshot with the adaptive policy: seed a fresh
        # runtime from a mid-run AAP cut and run to fixpoint
        _, snapshot = checkpointed_run(
            lambda: self.make(pg, CCProgram(), CCQuery()),
            lambda: make_policy("AAP"), checkpoint_time=1.0)
        result = recover(
            lambda: self.make(pg, CCProgram(), CCQuery()),
            lambda: make_policy("AAP"), snapshot)
        assert result.answer == analysis.connected_components(
            small_powerlaw)


class TestSnapshotMechanicsDense(TestSnapshotMechanics):
    vectorized = True


class TestRecoveryDense(TestRecovery):
    vectorized = True


CASES = {"sssp": (SSSPProgram, lambda: SSSPQuery(source=0),
                  lambda g: analysis.dijkstra(g, 0)),
         "cc": (CCProgram, CCQuery, analysis.connected_components)}


def dense_snapshot(pg, algorithm, checkpoint_time=1.0):
    """A mid-run checkpoint of a dense simulated run."""
    program_cls, query, _ = CASES[algorithm]
    _, snapshot = checkpointed_run(
        lambda: Engine(program_cls(), pg, query(), vectorized=True),
        lambda: make_policy("AAP"), checkpoint_time=checkpoint_time)
    return snapshot


def assert_answer(answer, algorithm, graph):
    reference = CASES[algorithm][2](graph)
    assert answer.keys() == reference.keys()
    assert all(answer[v] == pytest.approx(reference[v]) for v in reference)


class TestDenseCheckpoints:
    """A dense context records its status array, and that array seeds a
    dense engine on every runtime."""

    def test_checkpoint_records_arrays_and_builds_no_lookup(
            self, pg, small_powerlaw, monkeypatch):
        reads = []
        for name in ("nodes", "lid_of"):
            monkeypatch.setattr(FragmentCSR, name, property(
                lambda view, name=name: reads.append(name)))
        snapshot = dense_snapshot(pg, "sssp")
        assert reads == []
        for wid, frag in enumerate(pg):
            state = snapshot.worker_states[wid].values
            assert isinstance(state, np.ndarray)
            assert state.shape == (len(frag.compact()),)
        result = recover(
            lambda: Engine(SSSPProgram(), pg, SSSPQuery(source=0),
                           vectorized=True),
            lambda: make_policy("AAP"), snapshot)
        assert reads == []
        assert_answer(result.answer, "sssp", small_powerlaw)

    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_seeds_a_threaded_run(self, pg, small_powerlaw, algorithm):
        snapshot = dense_snapshot(pg, algorithm)
        program_cls, query, _ = CASES[algorithm]
        runtime = ThreadedRuntime(
            Engine(program_cls(), pg, query(), vectorized=True),
            make_policy("AAP"), timeout=60)
        runtime.seed_from_snapshot(snapshot)
        assert_answer(runtime.run().answer, algorithm, small_powerlaw)

    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_seeds_a_multiprocess_run(self, pg, small_powerlaw, algorithm):
        snapshot = dense_snapshot(pg, algorithm)
        program_cls, query, _ = CASES[algorithm]
        runtime = MultiprocessRuntime(
            program_cls(), pg, query(), mode="AAP", timeout=60,
            vectorized=True)
        runtime.seed_from_snapshot(snapshot)
        assert_answer(runtime.run().answer, algorithm, small_powerlaw)

    def test_a_generic_state_does_not_seed_a_dense_engine(self, pg):
        _, generic = checkpointed_run(
            lambda: Engine(CCProgram(), pg, CCQuery()),
            lambda: make_policy("AAP"), checkpoint_time=1.0)
        runtime = SimulatedRuntime(
            Engine(CCProgram(), pg, CCQuery(), vectorized=True),
            make_policy("AAP"))
        with pytest.raises(ProgramError, match="does not match"):
            runtime.seed_from_snapshot(generic)
