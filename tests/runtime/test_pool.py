"""The multiprocess runtime's resident worker pool.

One pool of forked workers is bound to the partition a run forked it
for; later runs on that partition ship their spec over the command
lanes and run on the same processes.  These tests hold the pool to
that: the same pids across runs, a warm run's answer equal to a cold
run's, a fresh fork whenever the partition, its fragments or the
transport change, closure by any run that fails, and a ``close_pool``
that hands back every process, segment and descriptor (the conftest
census closes the pool before it counts, so a broken close must still
show there).
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from tests.conftest import leaks_since, session_state
from repro import api
from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.errors import TerminationError, WorkerCrashedError
from repro.graph import analysis, generators
from repro.partition.grow import grow_edge_cut
from repro.runtime import multiprocess
from repro.runtime.faultplan import CrashFault, FaultPlan
from repro.runtime.multiprocess import MultiprocessRuntime, close_pool
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.slab import residual_segments
from repro.runtime.snapshot import ChandyLamportCoordinator


def fresh_graph():
    return generators.grid2d(8, 8, weighted=True, seed=1)


@pytest.fixture
def graph():
    return fresh_graph()


@pytest.fixture
def pg(graph):
    return api.partition_graph(graph, 2)


def run(program, pg, query, **kw):
    kw.setdefault("timeout", 60.0)
    kw.setdefault("vectorized", True)
    return MultiprocessRuntime(program, pg, query, **kw).run()


def sssp(pg, **kw):
    return run(SSSPProgram(), pg, SSSPQuery(source=0), **kw)


def pids(result):
    return [w["pid"] for w in result.extras["workers"]]


def live_children():
    return {p.pid for p in multiprocessing.active_children()}


def my_segments():
    return residual_segments(f"{os.getpid()}-")


def assert_no_pool():
    """Nothing of a pool is left: no worker, no segment."""
    assert live_children() == set()
    assert my_segments() == []


class TestResidency:
    def test_the_same_workers_answer_every_run(self, graph, pg):
        reference = analysis.dijkstra(graph, 0)
        results = [sssp(pg, mode=mode) for mode in ("AAP", "BSP", "AP")]
        results.append(run(CCProgram(), pg, CCQuery(), mode="AAP"))
        assert len({tuple(pids(r)) for r in results}) == 1
        assert set(pids(results[0])) == live_children()
        for result in results[:3]:
            assert result.answer == reference

    def test_a_run_reports_what_each_worker_spent_on_it(self, pg):
        cold, warm = sssp(pg), sssp(pg)
        for result in (cold, warm):
            workers = result.extras["workers"]
            assert [w["wid"] for w in workers] == [0, 1]
            for w in workers:
                assert w["cpu_s"] >= 0 and w["minor_faults"] >= 0
                assert w["max_rss_mb"] > 0
        # a warm run's counters start at its run command, not the fork
        assert sum(w["minor_faults"] for w in warm.extras["workers"]) < \
            sum(w["minor_faults"] for w in cold.extras["workers"])

    def test_a_program_that_does_not_pickle_gets_a_fresh_fork(
            self, graph, pg):
        class LocalSSSP(SSSPProgram):  # defined here: pickles by no name
            pass

        first = sssp(pg)
        result = run(LocalSSSP(), pg, SSSPQuery(source=0))
        assert result.answer == analysis.dijkstra(graph, 0)
        assert set(pids(first)).isdisjoint(pids(result))
        assert set(pids(result)) == live_children()

    def test_concurrent_runs_each_get_workers(self, graph, pg):
        reference = analysis.dijkstra(graph, 0)
        answers = []

        def one():
            answers.append(sssp(pg).answer)

        threads = [threading.Thread(target=one) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert answers == [reference, reference]
        # the run that found the pool busy closed its own workers
        assert len(live_children()) <= 2


PROGRAMS = {
    "sssp": (SSSPProgram, lambda g: SSSPQuery(source=0)),
    "cc": (CCProgram, lambda g: CCQuery()),
    "pagerank": (PageRankProgram,
                 lambda g: PageRankQuery(epsilon=1e-3,
                                         num_nodes=g.num_nodes)),
}


@pytest.mark.parametrize("transport", ["shm", "queue"])
@pytest.mark.parametrize("mode", ["AAP", "BSP"])
@pytest.mark.parametrize("algorithm", sorted(PROGRAMS))
def test_a_warm_run_answers_as_a_cold_one(graph, pg, algorithm, mode,
                                          transport):
    program_cls, query = PROGRAMS[algorithm]
    close_pool()
    cold = run(program_cls(), pg, query(graph), mode=mode,
               transport=transport)
    # another program in between: the workers keep nothing of a run
    other = run(SSSPProgram() if algorithm != "sssp" else CCProgram(),
                pg, SSSPQuery(source=0) if algorithm != "sssp"
                else CCQuery(), mode=mode, transport=transport)
    warm = run(program_cls(), pg, query(graph), mode=mode,
               transport=transport)
    assert pids(cold) == pids(other) == pids(warm)
    assert warm.extras["transport"]["kind"] == transport
    if algorithm == "pagerank" and mode != "BSP":
        # AAP's schedule is the box's: within the residual of a run
        assert warm.answer.keys() == cold.answer.keys()
        assert all(warm.answer[v] == pytest.approx(cold.answer[v], abs=5e-3)
                   for v in cold.answer)
    else:  # exact programs, and BSP's schedule is the input's
        assert warm.answer == cold.answer
    if mode == "BSP":
        assert warm.rounds == cold.rounds


def test_a_snapshot_seeded_run_on_a_warm_pool(graph, pg):
    coord = ChandyLamportCoordinator()
    sim = SimulatedRuntime(
        Engine(SSSPProgram(), pg, SSSPQuery(source=0), vectorized=True),
        make_policy("AAP"), snapshot_coordinator=coord)
    coord.request_at(sim, time=1.0)
    sim.run()
    snapshot = coord.finalize()
    first = sssp(pg)
    rt = MultiprocessRuntime(SSSPProgram(), pg, SSSPQuery(source=0),
                             mode="AAP", timeout=60.0, vectorized=True)
    rt.seed_from_snapshot(snapshot)
    seeded = rt.run()
    assert pids(seeded) == pids(first)
    assert seeded.answer == analysis.dijkstra(graph, 0)
    # and the pool serves an unseeded run after it
    assert sssp(pg).answer == seeded.answer


class TestReplacement:
    def test_grown_fragments(self, graph, pg):
        before = sssp(pg)
        new = max(graph.nodes) + 1
        edges = [(0, new, 1.0), (new, 63, 0.5)]
        grow_edge_cut(pg, edges)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        after = sssp(pg)
        assert set(pids(before)).isdisjoint(pids(after))
        assert set(pids(after)) == live_children()
        assert after.answer == analysis.dijkstra(graph, 0)
        assert pids(sssp(pg)) == pids(after)

    def test_a_new_partition(self, graph, pg):
        before = sssp(pg)
        other = api.partition_graph(graph, 2)
        after = sssp(other)
        assert set(pids(before)).isdisjoint(pids(after))
        assert set(pids(after)) == live_children()
        assert after.answer == before.answer

    def test_another_transport(self, pg):
        shm = sssp(pg, transport="shm")
        queue = sssp(pg, transport="queue")
        assert set(pids(shm)).isdisjoint(pids(queue))
        assert queue.extras["transport"]["kind"] == "queue"
        assert pids(sssp(pg, transport="queue")) == pids(queue)
        assert my_segments() == []  # the shm pool's arena went with it

    def test_the_partition_s_collection_closes_it(self):
        pg = api.partition_graph(fresh_graph(), 2)
        sssp(pg)
        assert len(live_children()) == 2
        del pg  # no cycle holds a partition: freed by reference count
        assert_no_pool()


class FailingInceval(SSSPProgram):
    def inceval(self, *args, **kwargs):
        raise KeyError("injected inceval failure")


class SlowPeval(SSSPProgram):
    def peval(self, *args, **kwargs):
        time.sleep(1.0)
        return super().peval(*args, **kwargs)


class TestClosure:
    """A run that fails leaves no pool, and the next run forks anew."""

    def check_next_run_forks(self, graph, pg, warm):
        assert_no_pool()
        fresh = sssp(pg)
        assert set(pids(fresh)).isdisjoint(warm)
        assert fresh.answer == analysis.dijkstra(graph, 0)

    def test_a_run_that_raises(self, graph, pg):
        warm = pids(sssp(pg))
        with pytest.raises(TerminationError, match="injected inceval"):
            run(FailingInceval(), pg, SSSPQuery(source=0), mode="AP",
                vectorized=False)
        self.check_next_run_forks(graph, pg, warm)

    def test_a_run_that_times_out(self, graph, pg):
        warm = pids(sssp(pg))
        with pytest.raises(TerminationError, match="exceeded"):
            run(SlowPeval(), pg, SSSPQuery(source=0), mode="BSP",
                vectorized=False, timeout=0.2)
        self.check_next_run_forks(graph, pg, warm)

    def test_a_run_whose_worker_crashed_and_was_respawned(self, graph, pg):
        warm = pids(sssp(pg))
        rt = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP",
            fault_plan=FaultPlan(seed=2,
                                 faults=(CrashFault(wid=1, at_round=2),)),
            respawn_budget=1, checkpoint_interval=0.01,
            heartbeat_interval=0.005, heartbeat_timeout=0.25, timeout=60.0)
        result = rt.run()
        assert len(rt.respawns) == 1
        assert result.answer == analysis.dijkstra(graph, 0)
        self.check_next_run_forks(graph, pg, warm)

    def test_a_run_whose_worker_crashed(self, graph, pg):
        warm = pids(sssp(pg))
        with pytest.raises(WorkerCrashedError):
            MultiprocessRuntime(
                SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP",
                fault_plan=FaultPlan(
                    seed=2, faults=(CrashFault(wid=0, at_round=1),)),
                heartbeat_interval=0.005, heartbeat_timeout=0.25,
                timeout=60.0).run()
        self.check_next_run_forks(graph, pg, warm)


class TestClosePool:
    def test_hands_back_every_process_segment_and_descriptor(self, pg):
        before = session_state()
        sssp(pg)
        assert len(live_children()) == 2
        assert len(my_segments()) == 2
        close_pool()
        assert_no_pool()
        assert len(os.listdir("/proc/self/fd")) <= before["fds"]
        close_pool()  # idempotent

    def test_the_census_sees_a_pool_whose_close_is_broken(
            self, pg, monkeypatch):
        real = multiprocess._Pool._teardown
        monkeypatch.setattr(multiprocess._Pool, "_teardown",
                            staticmethod(lambda *args: None))
        before = session_state()
        sssp(pg)
        pool = multiprocess._POOL
        try:
            found = " ".join(leaks_since(before))  # closes it: no-op
            assert "shared-memory segments" in found
            assert "live child processes" in found
            assert "open descriptors" in found
        finally:
            real(os.getpid(), pool.procs, pool.control, pool.commands,
                 pool.lanes, pool.arena)
        gc.collect()
        assert leaks_since(before) == []

    def test_interpreter_exit_closes_it(self):
        script = textwrap.dedent("""
            from repro import api
            from repro.algorithms import SSSPProgram, SSSPQuery
            from repro.graph import generators
            from repro.runtime.multiprocess import MultiprocessRuntime
            pg = api.partition_graph(
                generators.grid2d(6, 6, weighted=True, seed=1), 2)
            result = MultiprocessRuntime(SSSPProgram(), pg,
                                         SSSPQuery(source=0)).run()
            import os
            print(os.getpid(), *(w["pid"] for w in result.extras["workers"]))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        parent, *workers = map(int, out.stdout.split())
        assert len(workers) == 2
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert residual_segments(f"{parent}-") == []
