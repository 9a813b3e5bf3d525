"""Tests for the real threaded runtime (correctness under real races)."""

import pytest

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.core.engine import Engine
from repro.core.master import OPEN
from repro.core.modes import make_policy
from repro.graph import analysis, generators
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.threaded import ThreadedRuntime


def run_threaded(graph, program, query, mode, m=4):
    pg = HashPartitioner().partition(graph, m)
    rt = ThreadedRuntime(Engine(program, pg, query), make_policy(mode),
                         timeout=60.0)
    return rt.run()


@pytest.mark.parametrize("mode", ["AP", "BSP", "AAP", "SSP"])
class TestCorrectnessUnderRaces:
    def test_cc(self, small_powerlaw, mode):
        result = run_threaded(small_powerlaw, CCProgram(), CCQuery(), mode)
        assert result.answer == analysis.connected_components(small_powerlaw)

    def test_sssp(self, small_grid, mode):
        result = run_threaded(small_grid, SSSPProgram(),
                              SSSPQuery(source=0), mode)
        ref = analysis.dijkstra(small_grid, 0)
        assert all(result.answer[v] == pytest.approx(ref[v]) for v in ref)


class TestSuperstepBarrier:
    def test_eight_workers_under_a_short_switch_interval(self):
        """The master opens each superstep while worker threads read it:
        with four times more workers than cores and a thread switch
        every few microseconds, a superstep opened early, or a worker
        woken late or never, shows as a schedule off the strict one (or
        a run that times out)."""
        import sys
        from repro.fuzz.cell import bsp_schedule
        pg = HashPartitioner().partition(generators.grid2d(10, 10), 8)
        query = PageRankQuery(epsilon=1e-3, num_nodes=100)
        pinned = bsp_schedule(PageRankProgram, pg, query, False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                result = ThreadedRuntime(
                    Engine(PageRankProgram(), pg, query),
                    make_policy("BSP"), timeout=30.0).run()
                m = result.metrics
                assert (tuple(result.rounds), m.total_messages,
                        m.total_bytes) == pinned
        finally:
            sys.setswitchinterval(interval)

    def test_a_barrier_between_the_due_check_and_the_flag(self):
        """Force the race a worker going inactive has with the barrier:
        once the worker found no due mail, and everyone else is inactive
        and nothing flies, the master opens the next superstep just
        before the worker's flag lands.  Mail the worker held for that
        superstep is due by then, so the flag must be refused: a worker
        the master counts inactive while it holds due mail lets the
        master merge two supersteps, or end the run before it sends."""
        from repro.fuzz.cell import bsp_schedule
        graph = generators.grid2d(8, 8)
        pg = HashPartitioner().partition(graph, 4)
        query = SSSPQuery(source=0)
        pinned = bsp_schedule(SSSPProgram, pg, query, False)
        ref = analysis.dijkstra(graph, 0)
        raced, flagged_with_due_mail = [], []
        for _ in range(3):
            rt = ThreadedRuntime(Engine(SSSPProgram(), pg, query),
                                 make_policy("BSP"), timeout=30.0)
            book, flag = rt.book, rt.book.set_inactive

            def barrier_first(wid, *args, _rt=rt, _book=book, _flag=flag,
                              **kwargs):
                # the worker's flag (it brings ``unless``; the barrier's
                # own re-flags of workers with nothing due do not)
                step, racing = _rt.steps[wid], "unless" in kwargs
                with _rt._master:
                    flags = _book.inactive
                    if (racing and step.state.buffer and not step.due()
                            and _book.in_flight() == 0
                            and all(flags[:wid] + flags[wid + 1:])):
                        # the flag it raised on its previous turn lets
                        # the barrier close before this one lands
                        _flag(wid)
                        if _rt._ask_book() == OPEN and step.due():
                            raced.append(wid)
                    flagged = _flag(wid, *args, **kwargs)
                    if racing and _book.inactive[wid] and step.due():
                        flagged_with_due_mail.append(wid)
                return flagged

            book.set_inactive = barrier_first
            result = rt.run()
            m = result.metrics
            assert (tuple(result.rounds), m.total_messages,
                    m.total_bytes) == pinned
            assert result.answer == pytest.approx(ref)
        assert raced  # the interleaving happened
        assert flagged_with_due_mail == []


class TestPageRankThreaded:
    def test_pagerank_within_tolerance(self, small_powerlaw):
        result = run_threaded(small_powerlaw, PageRankProgram(),
                              PageRankQuery(epsilon=1e-4), "AP")
        ref = analysis.pagerank(small_powerlaw, epsilon=1e-10)
        for v in ref:
            assert result.answer[v] == pytest.approx(ref[v], abs=2e-3)


class TestThreadedMetrics:
    def test_metrics_populated(self, small_powerlaw):
        result = run_threaded(small_powerlaw, CCProgram(), CCQuery(), "AP")
        assert result.metrics.makespan > 0
        assert result.metrics.total_messages > 0
        assert result.mode.endswith("-threaded")
        assert all(r >= 1 for r in result.rounds)

    def test_repeated_runs_agree(self, small_powerlaw):
        # Church-Rosser under genuinely different interleavings
        ref = analysis.connected_components(small_powerlaw)
        for _ in range(3):
            result = run_threaded(small_powerlaw, CCProgram(), CCQuery(),
                                  "AAP")
            assert result.answer == ref


class _ExplodingCC(CCProgram):
    """CC program whose IncEval raises on one worker."""

    def __init__(self, bad_wid=0):
        super().__init__()
        self.bad_wid = bad_wid

    def inceval(self, frag, ctx, messages, query):
        if frag.fid == self.bad_wid:
            raise RuntimeError(f"inceval exploded on {frag.fid}")
        return super().inceval(frag, ctx, messages, query)


class _AllExplodeCC(CCProgram):
    """CC program that raises in PEval on every worker."""

    def peval(self, frag, ctx, query):
        raise RuntimeError(f"peval exploded on {frag.fid}")


class TestFailurePropagation:
    def test_worker_error_surfaces_promptly(self, small_powerlaw):
        # Regression: a raising worker used to hang the run until the
        # master timeout, then surface as TerminationError instead of
        # the original exception.
        import time

        pg = HashPartitioner().partition(small_powerlaw, 4)
        rt = ThreadedRuntime(Engine(_ExplodingCC(bad_wid=0), pg, CCQuery()),
                             make_policy("AP"), timeout=30.0)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="inceval exploded"):
            rt.run()
        assert time.monotonic() - started < 10.0, \
            "failure must abort the run, not wait out the master timeout"

    def test_concurrent_failures_keep_first_error(self, small_grid):
        pg = HashPartitioner().partition(small_grid, 4)
        rt = ThreadedRuntime(Engine(_AllExplodeCC(), pg, CCQuery()),
                             make_policy("AP"), timeout=30.0)
        with pytest.raises(RuntimeError, match="peval exploded"):
            rt.run()
        # every raising worker is on record; none overwrote the first
        assert len(rt.errors) >= 1
        assert all(isinstance(e, RuntimeError) for e in rt.errors)

    def test_abort_releases_other_workers(self, small_powerlaw):
        # the non-failing workers must exit their loops, not linger
        pg = HashPartitioner().partition(small_powerlaw, 4)
        rt = ThreadedRuntime(Engine(_ExplodingCC(bad_wid=1), pg, CCQuery()),
                             make_policy("AAP"), timeout=30.0)
        with pytest.raises(RuntimeError):
            rt.run()
        import threading as _threading
        lingering = [t.name for t in _threading.enumerate()
                     if t.name.startswith("grape-worker-")]
        assert not lingering


class TestInactiveStatusReset:
    def test_note_if_inactive_resets_status_atomically(self, small_grid):
        # Regression: the empty-buffer wait path reported inactive to the
        # master but left the worker's status at WAITING/RUNNING, so
        # status-based views lied about the fleet.
        from repro.core.worker import WorkerStatus

        pg = HashPartitioner().partition(small_grid, 2)
        rt = ThreadedRuntime(Engine(CCProgram(), pg, CCQuery()),
                             make_policy("AP"))
        w = rt.workers[0]
        w.status = WorkerStatus.WAITING
        assert rt._note_if_inactive(0) is True
        assert w.status is WorkerStatus.INACTIVE
        assert rt.book.inactive[0] is True

    def test_note_if_inactive_skips_nonempty_buffer(self, small_grid):
        from repro.core.messages import Message
        from repro.core.worker import WorkerStatus

        pg = HashPartitioner().partition(small_grid, 2)
        rt = ThreadedRuntime(Engine(CCProgram(), pg, CCQuery()),
                             make_policy("AP"))
        w = rt.workers[0]
        w.status = WorkerStatus.WAITING
        w.buffer.push(Message(src=1, dst=0, round=0,
                      entries=((0, 1.0),)))
        assert rt._note_if_inactive(0) is False
        assert w.status is WorkerStatus.WAITING
        assert rt.book.inactive[0] is False


class _BlockingCC(CCProgram):
    """CC program whose first IncEval on one worker waits for a gate."""

    def __init__(self, gate, entered, bad_wid=0):
        super().__init__()
        self.gate, self.entered, self.bad_wid = gate, entered, bad_wid

    def inceval(self, frag, ctx, messages, query):
        if frag.fid == self.bad_wid and not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(timeout=30.0)
        return super().inceval(frag, ctx, messages, query)


class TestLiveVisibility:
    def test_round_start_is_on_record_while_the_round_hangs(
            self, small_powerlaw):
        # Regression: round_start used to be emitted after the kernel (and
        # the straggler sleep) returned, so a hung round left no trace in
        # the live log until it was over.
        import threading

        from repro.obs import Observer
        from repro.obs.events import ROUND_END, ROUND_START

        gate, entered = threading.Event(), threading.Event()
        observer = Observer()
        pg = HashPartitioner().partition(small_powerlaw, 4)
        rt = ThreadedRuntime(
            Engine(_BlockingCC(gate, entered), pg, CCQuery()),
            make_policy("AP"), timeout=60.0, observer=observer)
        box = {}
        runner = threading.Thread(
            target=lambda: box.setdefault("result", rt.run()), daemon=True)
        runner.start()
        try:
            assert entered.wait(timeout=30.0), "IncEval never started"
            starts = [e for e in observer.log.filter(ROUND_START, wid=0)
                      if e.payload["kind"] == "inceval"]
            ends = [e for e in observer.log.filter(ROUND_END, wid=0)
                    if e.payload["kind"] == "inceval"]
            # the hung round is the one started and not yet ended
            assert len(starts) == len(ends) + 1
        finally:
            gate.set()
            runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert box["result"].answer == \
            analysis.connected_components(small_powerlaw)


class TestThreadedAccounting:
    def test_idle_and_suspended_time_are_reported(self):
        # Regression: the threaded runtime never closed an idle / suspended
        # segment, so idle_ratio was 0.0 on every threaded run.  With a
        # straggler, the other worker spends most of the run waiting.
        from repro.runtime.faultplan import FaultPlan, StragglerFault

        graph = generators.grid2d(12, 12, weighted=True, seed=2)
        pg = HashPartitioner().partition(graph, 2)
        rt = ThreadedRuntime(
            Engine(SSSPProgram(), pg, SSSPQuery(source=0)),
            make_policy("AP"), timeout=60.0,
            fault_plan=FaultPlan(faults=(StragglerFault(1, 40.0),)))
        metrics = rt.run().metrics
        assert metrics.workers[0].idle_time > 0.0
        assert metrics.idle_ratio > 0.0
        for w in metrics.workers:
            accounted = w.busy_time + w.idle_time + w.suspended_time
            assert accounted == pytest.approx(metrics.makespan, rel=0.10), \
                f"worker {w.wid}: {accounted} of {metrics.makespan}"

    def test_restored_run_accounts_from_the_runs_clock(self):
        # Regression: seed_from_snapshot() stamped the restored workers'
        # waits before run() had started the clock (absolute monotonic
        # seconds against run-relative ones), so a restored worker's first
        # idle segment was dropped and T_idle read 0 until its first round.
        from repro.runtime.faultplan import FaultPlan, StragglerFault
        from repro.runtime.simulator import SimulatedRuntime
        from repro.runtime.snapshot import ChandyLamportCoordinator

        graph = generators.grid2d(12, 12, weighted=True, seed=2)
        pg = HashPartitioner().partition(graph, 2)

        def engine():
            return Engine(SSSPProgram(), pg, SSSPQuery(source=0))

        full = SimulatedRuntime(engine(), make_policy("AP")).run()
        coord = ChandyLamportCoordinator()
        checkpointed = SimulatedRuntime(engine(), make_policy("AP"),
                                        snapshot_coordinator=coord)
        coord.request_at(checkpointed, time=0.2 * full.metrics.makespan)
        checkpointed.run()
        snapshot = coord.finalize()
        rt = ThreadedRuntime(
            engine(), make_policy("AP"), timeout=60.0,
            fault_plan=FaultPlan(faults=(StragglerFault(1, 40.0),)))
        rt.seed_from_snapshot(snapshot)
        result = rt.run()
        assert result.answer == full.answer
        metrics = result.metrics
        assert metrics.workers[0].idle_time > 0.0
        for w in metrics.workers:
            accounted = w.busy_time + w.idle_time + w.suspended_time
            assert accounted == pytest.approx(metrics.makespan, rel=0.10), \
                f"worker {w.wid}: {accounted} of {metrics.makespan}"
