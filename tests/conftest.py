"""Shared fixtures for the test suite.

Also provides a per-test watchdog: fault-tolerance tests exercise live
threads and processes, where a protocol bug shows up as a hang rather than
a failure.  CI installs ``pytest-timeout`` (see ``.github/workflows`` and
the ``test`` extra); when that plugin is absent we fall back to a SIGALRM
alarm per test on Unix so a deadlock still fails loudly instead of
freezing the suite.
"""

import gc
import os
import signal

import pytest

from repro import api
from repro.graph import generators

_FALLBACK_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "180"))


def _supports_sigalrm():
    return hasattr(signal, "SIGALRM") and hasattr(signal, "alarm")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    have_plugin = item.config.pluginmanager.hasplugin("timeout")
    if have_plugin or not _supports_sigalrm() or _FALLBACK_TIMEOUT <= 0:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded fallback timeout of {_FALLBACK_TIMEOUT:.0f}s "
            f"(set REPRO_TEST_TIMEOUT to adjust)")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(int(_FALLBACK_TIMEOUT))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def session_state():
    """What a test must hand back as it found it: the ``/dev/shm``
    segments this process made (not a concurrent suite's or
    benchmark's), live ``multiprocessing`` children, open descriptors.

    The multiprocess runtime keeps its workers resident between runs;
    the census closes that pool first, so what it counts is what the
    pool's close did not give back."""
    import multiprocessing

    from repro.runtime.multiprocess import close_pool
    from repro.runtime.slab import residual_segments
    close_pool()
    return {"shm": set(residual_segments(f"{os.getpid()}-")),
            "children": {p.pid for p in multiprocessing.active_children()},
            "fds": len(os.listdir("/proc/self/fd"))
            if os.path.isdir("/proc/self/fd") else 0}


def leaks_since(before):
    """Human-readable differences between ``before`` and now (ROADMAP 4c)."""
    now = session_state()
    found = []
    if now["shm"] - before["shm"]:
        found.append(f"shared-memory segments: "
                     f"{sorted(now['shm'] - before['shm'])}")
    if now["children"] - before["children"]:
        found.append(f"live child processes: "
                     f"{sorted(now['children'] - before['children'])}")
    if now["fds"] > before["fds"]:
        found.append(f"open descriptors: {before['fds']} -> {now['fds']}")
    return found


@pytest.fixture(autouse=True)
def session_hygiene():
    """Every test leaves no segment, no child process and no descriptor.

    A multiprocess run's worker pool owns slabs, worker processes and
    one pipe per lane and doorbell; closing it gives all of them back
    after clean exits, worker exceptions, takeovers and timeouts alike
    (a failed run closes it itself, the census closes the rest).  Anything
    left here is a leaked lifetime path: fail the test that introduced
    it rather than let it pile up across the suite.
    """
    # the resource tracker's pipe is opened by the first shared-memory
    # segment of the session and kept on purpose; start it up front so
    # it is not charged to whichever test comes first
    from multiprocessing import resource_tracker
    resource_tracker.ensure_running()
    before = session_state()
    yield
    leaked = leaks_since(before)
    if leaked:
        gc.collect()  # what unreachable objects still own is not a leak
        leaked = leaks_since(before)
    assert not leaked, "test leaked " + "; ".join(leaked)


@pytest.fixture
def small_grid():
    """10x10 weighted grid (traffic-like), deterministic."""
    return generators.grid2d(10, 10, weighted=True, seed=1)


@pytest.fixture
def small_powerlaw():
    """300-node power-law graph (social-like), deterministic."""
    return generators.powerlaw(300, m=2, seed=3)


@pytest.fixture
def weighted_powerlaw():
    return generators.powerlaw(200, m=2, weighted=True, seed=5)


@pytest.fixture
def partitioned_grid(small_grid):
    return api.partition_graph(small_grid, 4)


@pytest.fixture
def partitioned_powerlaw(small_powerlaw):
    return api.partition_graph(small_powerlaw, 4)


def generic(program):
    """The same program without dense kernels: a service over it runs the
    generic engine (there is no other switch)."""
    return type(f"Generic{type(program).__name__}", (type(program),),
                {"dense_capable": False})()


def edge_set(graph):
    return sorted(((repr(u), repr(v), w) for u, v, w in graph.edges()))


def assert_partitions_equal(got, want):
    """Two edge-cut partitions hold the same thing: owner and placement
    maps, and per fragment the six node sets, the routing index and the
    local graph.  The comparison behind every grow-equals-rebuild test."""
    assert got.num_fragments == want.num_fragments
    assert got.owner == want.owner
    assert got.placement == want.placement
    for fg, fw in zip(got.fragments, want.fragments):
        assert fg.owned == fw.owned
        assert fg.mirrors == fw.mirrors
        assert fg.in_border == fw.in_border
        assert fg.out_border == fw.out_border
        assert fg.out_copies == fw.out_copies
        assert fg.in_copies == fw.in_copies
        assert fg._routing == fw._routing
        assert set(fg.graph.nodes) == set(fw.graph.nodes)
        assert edge_set(fg.graph) == edge_set(fw.graph)
