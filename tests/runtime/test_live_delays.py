"""Live delays in the worker's own seconds.

A live step measures ``t_i`` and ``s_i`` in seconds, so a finite delay
stretch ``DS_i`` holds a worker for ``DS_i`` seconds (up to the driver's
cap), and an injected straggler stalls by the CPU time its round took —
not by its wall time, which on threads includes the GIL waits the fast
peers cause.  Both are wall-clock tests: CI's chaos job runs this file
ten times over.
"""

import functools
import threading
import time
from types import SimpleNamespace

import pytest

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.delay import APPolicy, DelayPolicy
from repro.core.engine import Engine
from repro.core.step import WorkerStep
from repro.graph import generators
from repro.partition.builder import build_edge_cut
from repro.partition.edge_cut import HashPartitioner
from repro.runtime import faultplan
from repro.runtime.faultplan import FaultPlan, StragglerFault
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime

#: the finite delay stretch the holding policy asks for, seconds
HOLD = 0.005


def _burn(seconds: float) -> None:
    """Spin in Python for ``seconds`` of this thread's CPU time."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _spin(stop: threading.Event) -> None:
    """A CPU-burning peer: pure Python, so it takes the GIL in turns."""
    while not stop.is_set():
        pass


class TestStragglerStall:
    def test_the_stall_is_sized_by_the_rounds_cpu_time(self, monkeypatch):
        """``StragglerFault(0, 4.0)`` stalls 3x the round's CPU time while
        a CPU-burning peer thread holds the GIL half the round; sized by
        the round's wall time, it would stall about twice that."""
        graph = generators.grid2d(4, 4, weighted=True, seed=1)
        engine = Engine(SSSPProgram(), HashPartitioner().partition(graph, 2),
                        SSSPQuery(source=0))
        kernel, cpu = engine.run_peval, []

        def slow_peval(wid):
            started = time.thread_time()
            _burn(0.05)
            out = kernel(wid)
            cpu.append(time.thread_time() - started)
            return out

        engine.run_peval = slow_peval
        slept = []
        monkeypatch.setattr(faultplan, "time",
                            SimpleNamespace(sleep=slept.append))
        injector = FaultPlan(faults=(StragglerFault(0, 4.0),)).injector()
        step = WorkerStep(engine, 0, APPolicy(), clock=time.monotonic,
                          stretch=functools.partial(injector.stall, 0,
                                                    cap=10.0))
        stop = threading.Event()
        peer = threading.Thread(target=_spin, args=(stop,), daemon=True)
        peer.start()
        try:
            started = time.monotonic()
            out = step.begin()
            wall = time.monotonic() - started
            step.finish(out)
        finally:
            stop.set()
            peer.join(timeout=10.0)
        seen = f"{cpu[0]:.3f} s CPU, {wall:.3f} s wall"
        assert wall > 1.4 * cpu[0], f"the peer never took the GIL: {seen}"
        assert len(slept) == 1
        assert slept[0] == pytest.approx(3.0 * cpu[0], rel=0.1), \
            f"stalled {slept[0]:.3f} s after {seen}"


class HoldOnce(DelayPolicy):
    """Hold each worker ``HOLD`` seconds once per round, then release."""

    name = "hold-once"

    def __init__(self):
        self.asked = set()

    def delay(self, view):
        key = (view.wid, view.round)
        if key in self.asked:
            return 0.0
        self.asked.add(key)
        return HOLD


def _held_at_least(result):
    """Every worker was suspended for ``HOLD`` before each IncEval round
    (PEval asks nobody); returns the per-worker shortfall messages."""
    short = []
    for w in result.metrics.workers:
        want = 0.9 * HOLD * (w.rounds - 1)
        if w.suspended_time < want:
            short.append(f"worker {w.wid}: {w.rounds} rounds, suspended "
                         f"{w.suspended_time * 1e3:.2f} ms < {want * 1e3:.2f}")
    return short


class TestFiniteDelayIsSeconds:
    def test_processes_hold_for_ds_seconds(self, monkeypatch):
        monkeypatch.setattr(MultiprocessRuntime, "_worker_policy",
                            lambda self: HoldOnce())
        graph = generators.grid2d(8, 8, weighted=True, seed=1)
        pg = HashPartitioner().partition(graph, 2)
        result = MultiprocessRuntime(SSSPProgram(), pg, SSSPQuery(source=0),
                                     mode="AP", timeout=60.0).run()
        assert sum(result.rounds) > 4
        assert _held_at_least(result) == []

    def test_threads_hold_for_ds_seconds(self):
        """A path in contiguous chunks, dealt to two workers in turn:
        SSSP from one end crosses one chunk per round, so only one worker
        ever has work and no delivery can cut a hold short."""
        graph = generators.path_graph(40, weighted=True, seed=1)
        owner = {v: (v // 5) % 2 for v in graph.nodes}
        pg = build_edge_cut(graph, owner, 2)
        result = ThreadedRuntime(Engine(SSSPProgram(), pg,
                                        SSSPQuery(source=0)),
                                 HoldOnce(), timeout=60.0).run()
        assert sum(result.rounds) > 4
        assert _held_at_least(result) == []
