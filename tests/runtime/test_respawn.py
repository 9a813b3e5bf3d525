"""Surgical worker recovery: in-place respawn, fragment takeover, ladder.

Covers the rung-1 respawn path of both live runtimes (the master respawns
a dead worker in place instead of restarting the whole run; the budget
gate and the records are one :class:`~repro.runtime.recovery.RespawnRung`
for both), the supporting machinery (incarnation-keyed failure
detection, surgical fault re-arming, ring generations, per-fragment
snapshot extraction) and the degradation ladder wiring in
:mod:`repro.runtime.recovery`.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

from repro.algorithms import PageRankProgram, PageRankQuery, SSSPProgram, \
    SSSPQuery
from repro.core.messages import MessageBatch
from repro.core.modes import MODES
from repro.errors import RuntimeConfigError, SnapshotError, TransportError, \
    WorkerCrashedError, WorkerFailureError
from repro.fuzz import Cell, compare, run_cell, tolerance
from repro.graph import generators
from repro.obs import Observer
from repro.obs import events as obs_events
from repro.partition.edge_cut import HashPartitioner
from repro.runtime import slab
from repro.runtime.detection import FailureDetector
from repro.runtime.faultplan import CrashFault, DropFault, FaultPlan
from repro.runtime.recovery import RetryPolicy, run_with_recovery
from repro.runtime.slab import SlabArena, SlabRing, channel_name, new_run_id
from repro.runtime.snapshot import GlobalSnapshot, LiveCheckpointer, \
    WorkerSnapshot


@pytest.fixture(scope="module")
def grid():
    return generators.grid2d(12, 12)


@pytest.fixture(scope="module")
def pg(grid):
    return HashPartitioner().partition(grid, 4)


def chaos(*faults, observer=None, **kw):
    """One armed live cell: SSSP from node 0 on the 12x12 grid, four
    fragments, under these fault specs (none: the fault-tolerance
    machinery on, nothing injected); checkpoints every 10 ms, heartbeats
    every 5 ms, dead after 250 ms, 60 s timeout."""
    kw.setdefault("checkpoint_interval", 0.01)
    kw.setdefault("heartbeat_interval", 0.005)
    kw.setdefault("heartbeat_timeout", 0.25)
    cell = Cell(graph_params={"rows": 12, "cols": 12}, faults=faults, **kw)
    return run_cell(cell, observer=observer)


# ----------------------------------------------------------------------
# rung 1: multiprocess in-place respawn
# ----------------------------------------------------------------------

class TestMultiprocessRespawn:
    def test_aap_crash_respawns_without_restart(self):
        # the acceptance scenario: one mid-run crash, shm transport, AAP;
        # the run completes via a single in-place respawn, no rollback
        observer = Observer()
        report = chaos("crash:1:2", fault_seed=7, runtime="multiprocess",
                       mode="AAP", respawn_budget=1, observer=observer)
        assert report.ok
        assert report.respawns == 1
        assert report.takeovers == 1
        assert report.recoveries == 0
        assert report.attempts == 1
        assert report.rung == 1
        entry = report.respawn_log[0]
        assert entry["wid"] == 1 and entry["incarnation"] == 1

        types = observer.log.types()
        assert obs_events.WORKER_RESPAWN in types
        assert obs_events.FRAGMENT_TAKEOVER in types
        assert obs_events.DEGRADE not in types

    def test_survivors_never_stop(self):
        # surviving workers' obs streams show no IncEval gap: every round
        # index is present — nobody was paused or restarted mid-sequence
        observer = Observer()
        report = chaos("crash:1:2", fault_seed=7, runtime="multiprocess",
                       mode="AAP", respawn_budget=1, observer=observer)
        assert report.ok and report.respawns == 1
        for survivor in (0, 2, 3):
            rounds = sorted(e.round for e in observer.log.filter(
                type=obs_events.ROUND_END, wid=survivor))
            assert rounds, f"worker {survivor} emitted no rounds"
            assert rounds == list(range(rounds[0], rounds[0] + len(rounds)))

    def test_bsp_respawn(self):
        report = chaos("crash:2:2", fault_seed=3, runtime="multiprocess",
                       mode="BSP", respawn_budget=1)
        assert report.ok
        assert report.respawns == 1 and report.recoveries == 0

    def test_two_crashes_two_respawns(self):
        report = chaos("crash:1:2", "crash:3:3", fault_seed=5,
                       runtime="multiprocess", mode="AAP", respawn_budget=1)
        assert report.ok
        assert report.respawns == 2 and report.recoveries == 0
        assert sorted(r["wid"] for r in report.respawn_log) == [1, 3]

    def test_cascading_crash_during_takeover(self):
        # adjacent-round crashes on neighbouring workers: the second
        # death frequently fires *while* the first takeover is pumping
        # for quarantine acks.  The dead survivor can never ack, so the
        # master must drop it from the expected set and give it its own
        # takeover — not time out and degrade to rollback.
        report = chaos("crash:1:2", "crash:2:3", fault_seed=7,
                       runtime="multiprocess", mode="AAP", respawn_budget=1)
        assert report.ok
        assert report.respawns == 2 and report.recoveries == 0
        assert report.rung == 1
        assert sorted(r["wid"] for r in report.respawn_log) == [1, 2]

    def test_queue_transport_respawn(self, grid, pg):
        # the takeover protocol must work without the shm data plane
        from repro.graph import analysis
        from repro.runtime.multiprocess import MultiprocessRuntime
        plan = FaultPlan(seed=2, faults=(CrashFault(wid=1, at_round=2),))
        rt = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP",
            transport="queue", fault_plan=plan, respawn_budget=1,
            checkpoint_interval=0.01, heartbeat_interval=0.005,
            heartbeat_timeout=0.25, timeout=60.0)
        result = rt.run()
        assert len(rt.respawns) == 1
        assert result.answer == analysis.dijkstra(grid, 0)

    def test_budget_zero_rolls_back(self):
        # rung 2 still fires when rung 1 is disarmed
        report = chaos("crash:1:2", fault_seed=7, runtime="multiprocess",
                       mode="AAP", respawn_budget=0)
        assert report.ok
        assert report.respawns == 0
        assert report.recoveries == 1
        assert report.rung == 2

    def test_accumulative_program_degrades(self):
        # Sum aggregation is not idempotent under border re-ship, so the
        # runtime refuses the takeover and the supervisor rolls back
        observer = Observer()
        report = chaos("crash:1:2", fault_seed=4, algorithm="pagerank",
                       runtime="multiprocess", mode="AAP", respawn_budget=1,
                       observer=observer)
        assert report.ok
        assert report.respawns == 0 and report.recoveries == 1
        assert report.tolerance > 0.0
        degrades = observer.log.filter(type=obs_events.DEGRADE)
        assert degrades
        assert degrades[0].payload["frm"] == "respawn"
        assert degrades[0].payload["to"] == "rollback"


# ----------------------------------------------------------------------
# rung 1: threaded in-place respawn
# ----------------------------------------------------------------------

class TestThreadedRespawn:
    def test_crash_resumes_in_place(self):
        observer = Observer()
        report = chaos("crash:1:2", fault_seed=7, runtime="threaded",
                       mode="AAP", respawn_budget=1, observer=observer)
        assert report.ok
        assert report.respawns == 1 and report.recoveries == 0
        # threads share the address space: the replacement resumes the
        # surviving fragment, it does not rebuild it -> not a takeover
        assert report.takeovers == 0
        assert report.rung == 1
        assert obs_events.WORKER_RESPAWN in observer.log.types()

    def test_pre_peval_crash(self):
        # death before the first heartbeat/round: the replacement must
        # run PEval itself instead of resuming a round that never ran
        report = chaos("crash:1:0", fault_seed=1, runtime="threaded",
                       mode="AAP", respawn_budget=1)
        assert report.ok
        assert report.respawns == 1 and report.recoveries == 0

    def test_bsp_respawn(self):
        report = chaos("crash:2:2", fault_seed=3, runtime="threaded",
                       mode="BSP", respawn_budget=1)
        assert report.ok
        assert report.respawns == 1 and report.recoveries == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_chaos_runs_the_named_mode(self, mode):
        report = chaos(runtime="threaded", mode=mode)
        assert report.ok
        assert report.mode == f"{mode}-threaded"

    def test_ladder_bottoms_out_structured(self):
        # rung 3: no respawn budget, no retries -> WorkerFailureError,
        # surfaced as a structured failure report
        report = chaos("crash:1:2", fault_seed=6, runtime="threaded",
                       respawn_budget=0, retry={"max_retries": 0})
        assert not report.ok
        assert report.rung == 3
        assert report.failures


# ----------------------------------------------------------------------
# rung 1 on either runtime: the budget gate
# ----------------------------------------------------------------------

class TestRespawnRung:
    @pytest.mark.parametrize("runtime", ["threaded", "multiprocess"])
    def test_spent_budget_degrades_to_rollback(self, runtime):
        # the slot's second crash finds its one respawn spent: the rung
        # degrades it, once, and the supervisor rolls the run back
        observer = Observer()
        report = chaos("crash:1:2", "crash:1:4", fault_seed=7,
                       runtime=runtime, mode="AAP", respawn_budget=1,
                       observer=observer)
        assert report.ok
        assert report.rung == 2 and report.recoveries == 1
        assert [e.payload["reason"] for e in observer.log.filter(
            type=obs_events.DEGRADE)] == ["respawn budget exhausted"]


# ----------------------------------------------------------------------
# failure-detector edge cases (incarnation-keyed heartbeats)
# ----------------------------------------------------------------------

class TestFailureDetectorEdgeCases:
    def test_death_before_first_heartbeat(self):
        # a worker that dies before ever beating is detected from its
        # construction timestamp, not silently trusted forever
        det = FailureDetector(2, interval=0.01, timeout=0.05, now=0.0)
        verdicts = det.check(0.06)
        assert {s.wid for s in verdicts} == {0, 1}
        assert all(s.fatal and s.kind == "heartbeat_timeout"
                   for s in verdicts)

    def test_dead_process_beats_timeout(self):
        # process death fails immediately even with a fresh heartbeat
        det = FailureDetector(2, interval=0.01, timeout=1.0, now=0.0)
        det.beat(0, 0.01)
        (s,) = det.check(0.02, alive=lambda w: w != 0)
        assert s.wid == 0 and s.kind == "worker_dead" and s.fatal

    def test_resurrection_beat_ignored(self):
        # a late beat from a worker already declared dead cannot undo the
        # declaration (the master may already be mid-takeover)
        det = FailureDetector(1, interval=0.01, timeout=0.05, now=0.0)
        (s,) = det.check(0.1)
        assert s.fatal and det.is_failed(0)
        det.beat(0, 0.11)
        assert det.is_failed(0)
        assert det.last_beat(0) == 0.0
        assert det.check(0.2) == []  # declared once, not re-reported

    def test_incarnation_keyed_beats_across_respawn(self):
        det = FailureDetector(1, interval=0.01, timeout=0.05, now=0.0)
        det.check(0.1)
        gen = det.respawn(0, 0.1)
        assert gen == 1 and not det.is_failed(0)
        # the dead incarnation's backlog drains after the respawn: its
        # beats carry incarnation 0 and must not vouch for the new worker
        det.beat(0, 0.12, incarnation=0)
        assert det.last_beat(0) == 0.1
        det.beat(0, 0.13, incarnation=1)
        assert det.last_beat(0) == 0.13
        # without genuine beats the replacement is re-declared dead
        (s,) = det.check(0.3)
        assert s.fatal
        assert det.respawn(0, 0.3) == 2

    def test_respawn_clears_miss_throttle(self):
        det = FailureDetector(1, interval=0.01, timeout=1.0, now=0.0)
        (miss,) = det.check(0.05)
        assert not miss.fatal and miss.kind == "heartbeat_miss"
        det.respawn(0, 0.05)
        assert det.check(0.055) == []  # fresh incarnation, fresh clock


# ----------------------------------------------------------------------
# satellite: surgical fault-plan re-arm
# ----------------------------------------------------------------------

class TestFaultPlanSurgical:
    def test_without_crash_removes_only_the_fired_one(self):
        plan = FaultPlan(seed=0, faults=(
            CrashFault(wid=1, at_round=2), CrashFault(wid=1, at_round=5),
            CrashFault(wid=2, at_round=3), DropFault(rate=0.1)))
        pruned = plan.without_crash(1)
        assert CrashFault(wid=1, at_round=2) not in pruned.faults
        assert CrashFault(wid=1, at_round=5) in pruned.faults
        assert CrashFault(wid=2, at_round=3) in pruned.faults
        assert any(isinstance(f, DropFault) for f in pruned.faults)

    def test_without_crash_by_round(self):
        plan = FaultPlan(seed=0, faults=(
            CrashFault(wid=1, at_round=2), CrashFault(wid=1, at_round=5)))
        pruned = plan.without_crash(1, at_round=5)
        assert pruned.crash_faults == (CrashFault(wid=1, at_round=2),)

    def test_without_crash_no_match_is_identity(self):
        plan = FaultPlan(seed=0, faults=(CrashFault(wid=1, at_round=2),))
        assert plan.without_crash(9) is plan

    def test_injector_reset_rearms_next_scheduled_crash(self):
        plan = FaultPlan(seed=0, faults=(
            CrashFault(wid=1, at_round=2), CrashFault(wid=1, at_round=5)))
        inj = plan.injector()
        assert not inj.crash_due(1, 1)
        assert inj.crash_due(1, 2)
        # latched dead: the second scheduled crash cannot fire yet
        assert not inj.crash_due(1, 5)
        inj.reset_worker(1)
        assert not inj.crash_due(1, 4)
        assert inj.crash_due(1, 5)
        inj.reset_worker(1)
        assert not inj.crash_due(1, 99)  # schedule exhausted


# ----------------------------------------------------------------------
# satellite: retry deadline + seeded jitter
# ----------------------------------------------------------------------

def _crash(wid=0, t=0.0):
    return WorkerCrashedError(wid=wid, reason="worker_dead", detected_at=t)


class TestRetryPolicyDeadlineJitter:
    def test_deadline_degrades_to_structured_failure(self):
        # backoff 1.0 overruns the 0.5s budget: no second attempt is made
        calls = []

        def factory(snapshot, attempt, crash):
            calls.append(attempt)
            return types.SimpleNamespace(
                run=lambda: (_ for _ in ()).throw(_crash()))

        clock_t = [0.0]
        with pytest.raises(WorkerFailureError) as exc_info:
            run_with_recovery(
                factory,
                retry=RetryPolicy(max_retries=10, backoff=1.0,
                                  deadline=0.5),
                sleep=lambda s: None, clock=lambda: clock_t[0])
        assert calls == [0]
        assert exc_info.value.attempts == 1

    def test_deadline_allows_retries_that_fit(self):
        attempts = []

        def factory(snapshot, attempt, crash):
            attempts.append(attempt)
            if attempt < 2:
                return types.SimpleNamespace(
                    run=lambda: (_ for _ in ()).throw(_crash()))
            return types.SimpleNamespace(
                run=lambda: types.SimpleNamespace(extras={}, respawns=[]))

        result = run_with_recovery(
            factory, retry=RetryPolicy(max_retries=5, backoff=0.01,
                                       deadline=30.0),
            sleep=lambda s: None)
        assert attempts == [0, 1, 2]
        assert result.extras["recovery"]["rung"] == 2

    def test_jitter_is_seeded_and_bounded(self):
        a = RetryPolicy(backoff=0.1, factor=1.0, jitter=0.5, seed=3)
        b = RetryPolicy(backoff=0.1, factor=1.0, jitter=0.5, seed=3)
        c = RetryPolicy(backoff=0.1, factor=1.0, jitter=0.5, seed=4)
        delays_a = [a.delay(i) for i in range(1, 9)]
        assert delays_a == [b.delay(i) for i in range(1, 9)]
        assert delays_a != [c.delay(i) for i in range(1, 9)]
        assert all(0.05 <= d <= 0.15 for d in delays_a)
        assert len(set(delays_a)) > 1  # actually jittered

    def test_zero_jitter_is_exact(self):
        rp = RetryPolicy(backoff=0.1, factor=2.0, max_backoff=0.3)
        assert [rp.delay(i) for i in (1, 2, 3, 4)] == \
               pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_invalid_deadline_and_jitter_rejected(self):
        with pytest.raises(RuntimeConfigError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(RuntimeConfigError):
            RetryPolicy(jitter=1.5)

    def test_factory_receives_the_crash(self):
        seen = []

        def factory(snapshot, attempt, crash):
            seen.append(crash)
            if attempt == 0:
                return types.SimpleNamespace(
                    run=lambda: (_ for _ in ()).throw(_crash(wid=7)))
            return types.SimpleNamespace(
                run=lambda: types.SimpleNamespace(extras={}, respawns=[]))

        run_with_recovery(factory, retry=RetryPolicy(backoff=0.0),
                          sleep=lambda s: None)
        assert seen[0] is None
        assert isinstance(seen[1], WorkerCrashedError)
        assert seen[1].wid == 7


# ----------------------------------------------------------------------
# the one compare function and the one tolerance of repro.fuzz
# ----------------------------------------------------------------------

class TestAnswerComparison:
    def test_exact_mode(self):
        assert compare({"a": 1.0}, {"a": 1.0}, 0.0) == (True, 0.0)
        ok, diff = compare({"a": 1.0}, {"a": 1.0001}, 0.0)
        assert not ok

    def test_infinities_match_exactly(self):
        inf = math.inf
        ok, diff = compare({"a": inf}, {"a": inf}, 0.0)
        assert ok and diff == 0.0

    def test_within_and_outside_tolerance(self):
        ok, diff = compare({"a": 1.0, "b": 2.0},
                                  {"a": 1.0005, "b": 2.0}, 1e-3)
        assert ok and diff == pytest.approx(5e-4)
        ok, _ = compare({"a": 1.0}, {"a": 1.01}, 1e-3)
        assert not ok

    def test_key_mismatch_never_matches(self):
        ok, diff = compare({"a": 1.0}, {"b": 1.0}, 10.0)
        assert not ok and diff == math.inf

    def test_non_numeric_values(self):
        assert compare({"a": "x"}, {"a": "x"}, 0.5)[0]
        assert not compare({"a": "x"}, {"a": "y"}, 0.5)[0]

    def test_inferred_tolerance_idempotent_is_exact(self, grid):
        assert tolerance(SSSPProgram(), grid, SSSPQuery(source=0)) == 0.0

    def test_inferred_tolerance_accumulative_is_positive(self, grid):
        n = grid.num_nodes
        tol = tolerance(PageRankProgram(), grid,
                        PageRankQuery(epsilon=5e-4 * n, num_nodes=n))
        # 2 * eps_node * (1 + max_indeg): positive but still tight
        assert 0.0 < tol < 0.1


# ----------------------------------------------------------------------
# ring generations (transport side of the takeover handshake)
# ----------------------------------------------------------------------

pytestmark_shm = pytest.mark.skipif(
    slab._shm_mod is None, reason="multiprocessing.shared_memory missing")


def _batch(n, src=0, dst=1):
    return MessageBatch(src=src, dst=dst, round=1,
                        ids=np.arange(n, dtype=np.int64),
                        payloads=(np.arange(n) * 0.5))


@pytestmark_shm
class TestRingGenerations:
    @pytest.fixture
    def ring_pair(self):
        name = channel_name(new_run_id(), 0, 1)
        producer = SlabRing(name, capacity=4096, create=True)
        consumer = SlabRing(name)
        yield producer, consumer
        consumer.close()
        producer.close()
        seg = slab._shm_mod.SharedMemory(name=name)
        seg.close()
        seg.unlink()

    def test_reset_bumps_generation_and_stales_peers(self, ring_pair):
        producer, consumer = ring_pair
        assert producer.try_write(_batch(3))
        assert len(consumer.poll(0, 1)) == 1
        gen = producer.reset()
        assert gen == 1
        # the consumer's cursors predate the reset: writing or parsing
        # through them would corrupt the replacement's window
        assert consumer.stale
        with pytest.raises(TransportError):
            consumer.poll(0, 1)

    def test_stale_producer_falls_back_instead_of_writing(self, ring_pair):
        producer, consumer = ring_pair
        consumer.reset()
        assert producer.stale
        assert not producer.try_write(_batch(2))

    def test_rebind_resumes_cleanly(self, ring_pair):
        producer, consumer = ring_pair
        assert producer.try_write(_batch(3))
        producer.reset()
        consumer.rebind()
        producer.rebind()
        assert not consumer.stale and not producer.stale
        assert producer.try_write(_batch(5))
        (got,) = consumer.poll(0, 1)
        assert len(got) == 5

    def test_rebind_reads_what_the_new_incarnation_wrote_first(
            self, ring_pair):
        # a replacement (or the next run's peer) may publish before this
        # endpoint rebinds: its records must be read, not skipped
        producer, consumer = ring_pair
        assert producer.try_write(_batch(3))
        assert len(consumer.poll(0, 1)) == 1
        producer.reset()
        assert producer.try_write(_batch(4))
        consumer.rebind()
        (got,) = consumer.poll(0, 1)
        assert len(got) == 4

    def test_arena_reset_worker_touches_only_its_channels(self):
        arena = SlabArena(3, 1 << 16)
        try:
            gen = arena.reset_worker(1)
            assert gen == 1
            for src in range(3):
                for dst in range(3):
                    if src == dst:
                        continue
                    expected = 1 if 1 in (src, dst) else 0
                    assert arena.ring(src, dst).generation == expected
        finally:
            arena.unlink_all()


# ----------------------------------------------------------------------
# per-fragment snapshot extraction + epoch abort
# ----------------------------------------------------------------------

class TestSnapshotSurgical:
    def test_fragment_state_extraction(self):
        snap = GlobalSnapshot(token=3, worker_states={
            0: WorkerSnapshot(wid=0, values={1: 2.0}, scratch={})})
        state = snap.fragment_state(0)
        assert state.values == {1: 2.0}

    def test_fragment_state_missing_worker_raises(self):
        snap = GlobalSnapshot(token=3, worker_states={
            0: WorkerSnapshot(wid=0, values={}, scratch={})})
        with pytest.raises(SnapshotError, match="no state for worker 2"):
            snap.fragment_state(2)

    def test_abort_current_drops_open_epoch(self):
        ckpt = LiveCheckpointer(interval=0.01, num_workers=2)
        assert not ckpt.abort_current(0.0)  # nothing open yet
        coord = ckpt.maybe_start(1.0)
        assert coord is not None
        assert ckpt.abort_current(1.5)
        assert ckpt.current is None
        # the epoch clock restarted: no new epoch before a full interval
        assert ckpt.maybe_start(1.505) is None
        assert ckpt.maybe_start(1.52) is not None
