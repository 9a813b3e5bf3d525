"""End-to-end fault tolerance: injection, detection, live recovery.

Covers the live runtimes (threaded and multiprocess): a seeded crash is
detected via heartbeats, the run rolls back to the last Chandy-Lamport
checkpoint, and for monotone programs the recovered answer equals the
fault-free one (Theorem 2).  Exhausted retry budgets must surface a
structured :class:`WorkerFailureError` instead of hanging.
"""

import pytest

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.delay import AAPPolicy
from repro.core.engine import Engine
from repro.errors import (RuntimeConfigError, TerminationError,
                          WorkerFailureError)
from repro.fuzz import Cell, run_cell
from repro.graph import analysis, generators
from repro.obs import Observer
from repro.obs.events import FAULT_INJECTED
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.faultplan import CrashFault, FaultPlan
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.recovery import RetryPolicy
from repro.runtime.threaded import ThreadedRuntime


@pytest.fixture
def grid():
    return generators.grid2d(12, 12)


@pytest.fixture
def pg(grid):
    return HashPartitioner().partition(grid, 4)


def chaos(*faults, observer=None, **kw):
    """One armed live cell: SSSP from node 0 (or CC) on the 12x12 grid,
    four fragments, under these fault specs (none: the fault-tolerance
    machinery on, nothing injected), no in-place respawn (crashes roll
    back); checkpoints every 10 ms, heartbeats every 5 ms, dead after
    250 ms."""
    kw.setdefault("checkpoint_interval", 0.01)
    kw.setdefault("heartbeat_interval", 0.005)
    kw.setdefault("heartbeat_timeout", 0.25)
    return run_cell(Cell(graph_params={"rows": 12, "cols": 12},
                         faults=faults, **kw), observer=observer)


class TestThreadedRecovery:
    def test_crash_detected_and_recovered(self):
        report = chaos("crash:1:3", fault_seed=1, runtime="threaded")
        assert report.ok
        assert report.recoveries == 1
        assert report.failures[0].kind == "worker_dead"
        assert report.failures[0].wid == 1

    def test_detection_beats_global_timeout(self):
        # heartbeat detection must fire in O(heartbeat timeout), far below
        # the runtime's global timeout
        report = chaos("crash:0:2", fault_seed=1, runtime="threaded",
                       timeout=60.0)
        assert report.ok
        assert report.detection_latencies
        assert all(lat < 5.0 for lat in report.detection_latencies)

    def test_resumes_from_checkpoint(self):
        # crash late enough that a periodic checkpoint completed first
        report = chaos("crash:2:8", "slow:1:2.0", fault_seed=2,
                       runtime="threaded", checkpoint_interval=0.005)
        assert report.ok

    def test_message_faults_preserve_answer(self):
        # duplicates and delays are safe for idempotent monotone programs;
        # termination still holds because accounting stays balanced
        report = chaos("duplicate:0.2", "delay:0.2:0.005", fault_seed=3,
                       runtime="threaded", algorithm="cc")
        assert report.ok
        assert report.recoveries == 0

    def test_drops_do_not_hang_termination(self):
        # dropped messages never enter the in-flight ledger, so the
        # termination protocol still reaches unanimity (the answer may be
        # stale -- drops violate the paper's reliable-channel assumption)
        report = chaos("drop:0.15", fault_seed=4, runtime="threaded",
                       timeout=30.0)
        assert report.answer is not None
        assert report.oracles <= {"differential"}

    def test_retries_exhausted_raises_structured_error(self, pg):
        program, query = SSSPProgram(), SSSPQuery(source=0)
        plan = FaultPlan(seed=5, faults=(CrashFault(wid=0, at_round=2),))

        def factory(snapshot, attempt, crash):
            engine = Engine(program, pg, query)
            rt = ThreadedRuntime(
                engine, AAPPolicy(), timeout=30.0, fault_plan=plan,
                checkpoint_interval=0.01, heartbeat_interval=0.005,
                heartbeat_timeout=0.25)
            if snapshot is not None:
                rt.seed_from_snapshot(snapshot)
            return rt

        from repro.runtime.recovery import run_with_recovery
        with pytest.raises(WorkerFailureError) as exc_info:
            run_with_recovery(factory,
                              retry=RetryPolicy(max_retries=1, backoff=0.0))
        err = exc_info.value
        assert err.attempts == 2
        assert err.failures  # the failure log rides on the exception
        assert all(f.wid == 0 for f in err.failures)

    def test_chaos_reports_exhaustion(self):
        # with retry budget 0 the first crash ends the ladder: the cell
        # reports a structured failure (rung 3), not a hang
        report = chaos("crash:1:2", fault_seed=6, runtime="threaded",
                       retry={"max_retries": 0})
        assert not report.ok
        assert "crash" in report.oracles
        assert report.attempts == 1
        assert report.failures

    def test_no_fault_plan_unchanged(self):
        report = chaos(runtime="threaded")
        assert report.ok
        assert report.recoveries == 0
        assert not report.resumed_from_checkpoint


class TestMultiprocessRecovery:
    def test_crash_detected_and_recovered(self):
        report = chaos("crash:0:4", fault_seed=1, runtime="multiprocess",
                       heartbeat_timeout=0.5, timeout=60.0)
        assert report.ok
        assert report.recoveries >= 1
        assert report.detection_latencies
        assert all(lat < 10.0 for lat in report.detection_latencies)

    def test_worker_traceback_surfaced(self, grid):
        # a Python exception in IncEval is a program bug, not a failure:
        # the worker ships its formatted traceback in the error control
        # message and the master embeds it in the raised TerminationError
        class Exploding(SSSPProgram):
            def inceval(self, frag, ctx, activated, query):
                raise ValueError("kaboom in inceval")

        pg = HashPartitioner().partition(grid, 2)
        from repro.runtime.multiprocess import MultiprocessRuntime
        rt = MultiprocessRuntime(Exploding(), pg, SSSPQuery(source=0),
                                 timeout=30.0)
        with pytest.raises(TerminationError) as exc_info:
            rt.run()
        text = str(exc_info.value)
        assert "worker traceback" in text
        assert "kaboom in inceval" in text


def fault_log(*faults):
    """What the seed decides: the injected crashes and the deaths they
    cause.  Not the heartbeat misses: how many wall-clock beats a loaded
    box misses is its own affair."""
    observer = Observer()
    report = chaos(*faults, fault_seed=9, runtime="threaded",
                   observer=observer)
    assert report.ok
    deaths = [(f.kind, f.wid) for f in report.failures
              if f.kind != "heartbeat_miss"]
    crashes = [(e.wid, e.payload["detail"])
               for e in observer.log.filter(type=FAULT_INJECTED)
               if e.payload["fault"] == "crash"]
    return deaths, crashes


class TestDeterministicInjection:
    def test_same_seed_same_fault_log(self):
        assert fault_log("crash:1:3") == fault_log("crash:1:3")

    def test_another_crash_another_fault_log(self):
        assert fault_log("crash:2:3") != fault_log("crash:1:3")


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        rp = RetryPolicy(max_retries=5, backoff=0.1, factor=2.0,
                         max_backoff=0.3)
        assert rp.delay(1) == pytest.approx(0.1)
        assert rp.delay(2) == pytest.approx(0.2)
        assert rp.delay(3) == pytest.approx(0.3)  # capped
        assert rp.delay(10) == pytest.approx(0.3)

    def test_invalid_parameters_rejected(self):
        from repro.errors import RuntimeConfigError
        with pytest.raises(RuntimeConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(RuntimeConfigError):
            RetryPolicy(factor=0.5)


class TestRecoveryResultAnswer:
    def test_sssp_answer_equals_dijkstra(self, grid):
        verdict = chaos("crash:3:3", fault_seed=11, runtime="threaded")
        assert verdict.ok
        assert verdict.answer == analysis.dijkstra(grid, 0)


@pytest.mark.parametrize("runtime", ["threaded", "multiprocess"])
@pytest.mark.parametrize("knobs, error", [
    ({"timeout": 0}, "timeout must be positive, got 0"),
    ({"timeout": -5.0}, "timeout must be positive, got -5.0"),
    ({"respawn_budget": -2}, "respawn_budget must be >= 0, got -2"),
    ({"checkpoint_interval": -1.0},
     "checkpoint interval must be positive, got -1.0")])
def test_both_constructors_refuse_the_same_knobs(pg, runtime, knobs, error):
    """A deadline already passed used to read as a hung run, and a
    negative budget as rung 1 switched off: both runtimes refuse them
    when built, in the same words, before anything runs."""
    program, query = SSSPProgram(), SSSPQuery(source=0)
    with pytest.raises(RuntimeConfigError) as exc_info:
        if runtime == "threaded":
            ThreadedRuntime(Engine(program, pg, query), AAPPolicy(), **knobs)
        else:
            MultiprocessRuntime(program, pg, query, mode="AAP", **knobs)
    assert str(exc_info.value) == error
