"""Tests for the rounds the event log records (``round_slices``) and the
ASCII Gantt drawn from them, on every runtime."""

import pytest

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.graph import generators
from repro.obs import Observer, ascii_gantt, round_slices
from repro.obs.events import MSG_DELIVER, ROUND_END, ROUND_START, EventLog
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime


def rounds_log(*rounds):
    """A log of ``(wid, start, end, kind, round)`` rounds, in time order."""
    log = EventLog()
    for wid, start, end, kind, round_no in rounds:
        log.emit(ROUND_START, start, wid=wid, round=round_no, kind=kind,
                 batches=0)
        log.emit(ROUND_END, end, wid=wid, round=round_no, kind=kind,
                 duration=end - start, messages=0)
    log.sort()
    return log


class TestRecorder:
    """The event log is the round recorder."""

    def test_records_intervals(self):
        log = rounds_log((0, 0.0, 2.0, "peval", 0),
                         (0, 3.0, 4.0, "inceval", 1))
        (rounds,) = round_slices(log).values()
        assert [(s.start, s.end, s.kind, s.round) for s in rounds] == [
            (0.0, 2.0, "peval", 0), (3.0, 4.0, "inceval", 1)]
        assert sum(s.end - s.start for s in rounds) == 3.0
        assert rounds[1].payload == {"kind": "inceval", "duration": 1.0,
                                     "messages": 0}

    def test_by_worker_sorted(self):
        log = rounds_log((1, 5.0, 6.0, "inceval", 1),
                         (0, 0.5, 2.0, "peval", 0),
                         (1, 0.0, 1.0, "peval", 0))
        per = round_slices(log)
        assert [s.start for s in per[1]] == [0.0, 5.0]
        assert [s.round for s in per[0]] == [0]

    def test_open_round_runs_to_last_record(self):
        log = rounds_log((0, 0.0, 1.0, "peval", 0))
        log.emit(ROUND_START, 2.0, wid=0, round=1, kind="inceval", batches=1)
        log.emit(MSG_DELIVER, 7.0, wid=1, round=0, src=0, bytes=8, seq=0,
                 depth=1)
        last = round_slices(log)[0][-1]
        assert (last.start, last.end, last.kind, last.round) == (
            2.0, 7.0, "inceval", 1)
        assert last.payload == {"unfinished": True}

    def test_end_without_start_goes_back_its_duration(self):
        # a bounded log may have let the round_start go
        log = EventLog()
        log.emit(ROUND_END, 5.0, wid=2, round=3, kind="inceval",
                 duration=1.5, messages=0)
        (s,) = round_slices(log)[2]
        assert (s.start, s.end) == (3.5, 5.0)


class TestGantt:
    def test_renders_all_workers(self):
        log = rounds_log((0, 0.0, 5.0, "peval", 0),
                         (1, 0.0, 10.0, "inceval", 0))
        art = ascii_gantt(log, width=40, label="demo")
        lines = art.splitlines()
        assert lines[0].startswith("demo")
        assert lines[1].startswith("P0")
        assert lines[2].startswith("P1")
        assert "P" in lines[1]
        assert "#" in lines[2]

    def test_empty_trace(self):
        assert "(empty trace)" in ascii_gantt(EventLog(), label="x")

    def test_width_respected(self):
        art = ascii_gantt(rounds_log((0, 0.0, 1.0, "peval", 0)), width=30)
        row = art.splitlines()[-1]
        assert len(row) == len("P0  |") + 30 + 1


@pytest.fixture(scope="module")
def sssp_grid():
    graph = generators.grid2d(6, 6, weighted=True, seed=1)
    return HashPartitioner().partition(graph, 3), SSSPQuery(source=0)


class TestLiveGantt:
    """A wall-clock run emits the same round pairs as the simulator, so
    its log draws the same diagram."""

    def check(self, result, log):
        slices = round_slices(log)
        assert {wid: len(s) for wid, s in slices.items()} == dict(
            enumerate(result.rounds))
        rows = ascii_gantt(log, width=40).splitlines()
        assert [row[:5] for row in rows] == [
            f"P{wid:<3d}|" for wid in range(len(result.rounds))]
        assert all(row[5:-1].strip() for row in rows)

    def test_threaded(self, sssp_grid):
        pg, query = sssp_grid
        obs = Observer()
        result = ThreadedRuntime(Engine(SSSPProgram(), pg, query),
                                 make_policy("AAP"), timeout=60.0,
                                 observer=obs).run()
        self.check(result, obs.log)

    def test_multiprocess(self, sssp_grid):
        pg, query = sssp_grid
        obs = Observer()
        result = MultiprocessRuntime(SSSPProgram(), pg, query, mode="AAP",
                                     timeout=90.0, observer=obs).run()
        self.check(result, obs.log)
