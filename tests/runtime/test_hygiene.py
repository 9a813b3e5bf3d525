"""Session hygiene (ROADMAP 4c): a multiprocess run owns slabs, worker
processes and one pipe per lane and doorbell, and hands every one of
them back however it ends.

The checking is done by the autouse ``session_hygiene`` fixture in
``tests/conftest.py`` after each test; the tests here drive the four
ways a run can end and show that the oracle does see a leak.
"""

import multiprocessing as mp
import os
import time

import pytest

from tests.conftest import leaks_since, session_state
from repro import api
from repro.algorithms import SSSPProgram, SSSPQuery
from repro.errors import TerminationError
from repro.graph import analysis, generators
from repro.runtime.faultplan import CrashFault, FaultPlan
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.slab import SlabArena


@pytest.fixture(scope="module")
def grid():
    g = generators.grid2d(12, 12, weighted=True, seed=1)
    return g, api.partition_graph(g, 3), analysis.dijkstra(g, 0)


class FailingInceval(SSSPProgram):
    def inceval(self, *args, **kwargs):
        raise KeyError("injected inceval failure")


class SlowPeval(SSSPProgram):
    def peval(self, *args, **kwargs):
        time.sleep(1.0)
        return super().peval(*args, **kwargs)


class TestOracle:
    def test_sees_a_leaked_descriptor(self):
        before = session_state()
        r, w = os.pipe()
        try:
            assert any("descriptors" in leak for leak in leaks_since(before))
        finally:
            os.close(r)
            os.close(w)
        assert leaks_since(before) == []

    def test_sees_a_leaked_segment_and_child(self):
        before = session_state()
        arena = SlabArena(2, 1 << 12)
        child = mp.get_context("fork").Process(target=time.sleep,
                                               args=(60,))
        child.start()
        try:
            found = " ".join(leaks_since(before))
            assert "shared-memory segments" in found
            assert "live child processes" in found
        finally:
            child.terminate()
            child.join(10.0)
            child.close()
            arena.unlink_all()
        assert leaks_since(before) == []


class TestRunEndings:
    @pytest.mark.parametrize("transport", ["shm", "queue"])
    def test_clean_exit(self, grid, transport):
        g, pg, reference = grid
        result = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP",
            transport=transport, vectorized=True).run()
        assert result.answer == reference

    def test_worker_exception(self, grid):
        g, pg, _ = grid
        with pytest.raises(TerminationError, match="injected inceval"):
            MultiprocessRuntime(FailingInceval(), pg, SSSPQuery(source=0),
                                mode="AP", timeout=30.0).run()

    def test_takeover(self, grid):
        g, pg, reference = grid
        rt = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP",
            fault_plan=FaultPlan(seed=2,
                                 faults=(CrashFault(wid=1, at_round=2),)),
            respawn_budget=1, checkpoint_interval=0.01,
            heartbeat_interval=0.005, heartbeat_timeout=0.25, timeout=60.0)
        result = rt.run()
        assert len(rt.respawns) == 1  # fresh lanes, old process closed
        assert result.answer == reference

    def test_timeout(self, grid):
        g, pg, _ = grid
        with pytest.raises(TerminationError, match="exceeded"):
            MultiprocessRuntime(SlowPeval(), pg, SSSPQuery(source=0),
                                mode="BSP", timeout=0.2).run()


class TestNoReferenceCycles:
    """A finished run is freed by reference count.  The steps once held
    their runtime (``clock=lambda: self.now``, bound dispatch tables), so
    every run — engine contexts, event log and all — waited for a full
    pass of the cyclic collector, which then landed in whatever was being
    timed next (it read as a 10x slower ``core.delay_decide_us`` in the
    e2e benchmark's traced pass)."""

    @staticmethod
    def build(name, pg, **kw):
        from repro.core.engine import Engine
        from repro.core.modes import make_policy
        from repro.obs import Observer
        from repro.runtime.simulator import SimulatedRuntime
        from repro.runtime.threaded import ThreadedRuntime

        query = SSSPQuery(source=0)
        if name == "multiprocess":
            return MultiprocessRuntime(SSSPProgram(), pg, query, mode="AAP",
                                       observer=Observer(), timeout=60.0,
                                       **kw)
        cls = SimulatedRuntime if name == "simulated" else ThreadedRuntime
        return cls(Engine(SSSPProgram(), pg, query), make_policy("AAP"),
                   observer=Observer(), **kw)

    @staticmethod
    def run_and_free(rt, reference, respawns=0):
        """Run ``rt``, which no caller may hold, and drop the last
        reference to it with the cyclic collector off."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            result = rt.run()
            assert result.answer == pytest.approx(reference)
            assert len(getattr(rt, "respawns", ())) == respawns
            ref = weakref.ref(rt)
            del rt, result
            assert ref() is None, "the runtime is part of a cycle"
        finally:
            gc.enable()

    @pytest.mark.parametrize("runtime", ["simulated", "threaded",
                                         "multiprocess"])
    def test_runtime_dies_with_its_last_reference(self, grid, runtime):
        _, pg, reference = grid
        self.run_and_free(self.build(runtime, pg), reference)

    @pytest.mark.parametrize("crash", [False, True],
                             ids=["armed", "crashed"])
    @pytest.mark.parametrize("runtime", ["threaded", "multiprocess"])
    def test_an_armed_run_dies_with_its_last_reference(self, grid, runtime,
                                                       crash):
        # rung 1's wiring (detector, budget, checkpoints, a respawn)
        # holds nothing of the runtime either
        _, pg, reference = grid
        plan = FaultPlan(seed=2, faults=(
            (CrashFault(wid=1, at_round=2),) if crash else ()))
        self.run_and_free(self.build(
            runtime, pg, fault_plan=plan, respawn_budget=1,
            checkpoint_interval=0.01, heartbeat_interval=0.005,
            heartbeat_timeout=0.25), reference, respawns=int(crash))
