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
from repro.graph.graph import Graph
from repro.partition.builder import build_edge_cut
from repro.partition.edge_cut import HashPartitioner
from repro.runtime import faultplan
from repro.runtime import threaded as threaded_module
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


#: how long the lagging worker is held at its first ask, seconds
LAG = 0.3


class LagAndBound(DelayPolicy):
    """SSP with ``c = 0`` (a worker ahead of ``r_min`` is suspended), with
    worker 1 held ``LAG`` seconds at its first ask, so that it lags; the
    time of each ask and of each finished round, per worker."""

    name = "lag-and-bound"

    def __init__(self):
        self.asks, self.done, self.lagged = [], [], False

    def delay(self, view):
        self.asks.append((time.monotonic(), view.wid, view.round, view.rmin))
        if view.wid == 1 and not self.lagged:
            self.lagged = True
            return LAG
        return 0.0 if view.round <= view.rmin else float("inf")

    def on_round_complete(self, view, duration):
        self.done.append((time.monotonic(), view.wid))


class TestSuspendedWorkerWakesWhenRminMoves:
    def test_threads_wake_a_suspended_worker_when_rmin_moves(
            self, monkeypatch):
        """SSSP from node 0 over three fragments.  Worker 2's PEval mails
        workers 0 and 1; worker 1 is held, worker 0 runs, mails worker 2,
        which mails it back: worker 0, a round ahead of the held worker 1,
        is suspended by the bound.  Worker 1's round sends nothing (node 2
        has no out-edge), so no mail wakes worker 0; only ``r_min`` moves
        as that round ends.  With the cap on a wait raised to 3 s, the
        suspended worker asks again within 0.2 s of the move (it waited
        out the cap before)."""
        monkeypatch.setattr(threaded_module, "MAX_WAIT", 3.0)
        graph = Graph(directed=True)
        for u, v in ((0, 1), (0, 2), (1, 3), (3, 4)):
            graph.add_edge(u, v, 1.0)
        pg = build_edge_cut(graph, {0: 2, 1: 0, 2: 1, 3: 2, 4: 0}, 3)
        policy = LagAndBound()
        result = ThreadedRuntime(Engine(SSSPProgram(), pg,
                                        SSSPQuery(source=0)),
                                 policy, timeout=60.0).run()
        assert result.answer == {0: 0.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 3.0}
        suspended = [(t, r) for t, wid, r, rmin in policy.asks
                     if wid == 0 and r > rmin]
        assert len(suspended) == 1, policy.asks
        t_suspended, _ = suspended[0]
        moved = min(t for t, wid in policy.done
                    if wid == 1 and t > t_suspended)
        resumed = min(t for t, wid, _, _ in policy.asks
                      if wid == 0 and t > t_suspended)
        assert resumed - moved < 0.2, \
            f"asked again {resumed - moved:.3f} s after r_min moved"
