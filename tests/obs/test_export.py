"""Tests for the Chrome-trace and JSONL exporters."""

import json

from repro import api
from repro.algorithms import SSSPProgram, SSSPQuery
from repro.obs import Observer
from repro.obs.events import EventLog, ObsEvent
from repro.obs.export import (read_jsonl, round_slices, to_chrome_trace,
                              write_chrome_trace, write_jsonl)
from repro.runtime.costmodel import CostModel


def straggler_run(graph, observer):
    """The acceptance-criteria workload: SSSP with a 4x straggler."""
    return api.run(SSSPProgram(), graph, SSSPQuery(source=0),
                   num_fragments=4, mode="AAP",
                   cost_model=CostModel.with_straggler(0, factor=4.0),
                   observer=observer)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("round_start", 0.0, wid=0, round=0, kind="peval", batches=0)
        log.emit("msg_send", 1.0, wid=0, round=0, dst=1, bytes=8, seq=0)
        log.emit("barrier", 2.0, step=1)
        path = str(tmp_path / "ev.jsonl")
        write_jsonl(log, path)
        back = read_jsonl(path)
        assert [e.to_dict() for e in back] == [e.to_dict() for e in log]

    def test_round_trip_full_run(self, small_grid, tmp_path):
        obs = Observer()
        straggler_run(small_grid, obs)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(obs.log, path)
        back = read_jsonl(path)
        assert len(back) == len(obs.log)
        assert back.counts() == obs.log.counts()


class TestChromeTrace:
    def test_document_structure(self):
        log = EventLog()
        log.emit("round_start", 1.0, wid=0, round=0, kind="peval", batches=0)
        log.emit("round_end", 3.0, wid=0, round=0, kind="peval",
                 duration=2.0, messages=1)
        doc = to_chrome_trace(log)
        assert "traceEvents" in doc
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "M" in phases and "X" in phases
        (x,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x["ts"] == 1.0 * 1e6
        assert x["dur"] == 2.0 * 1e6
        assert x["name"] == "peval"

    def test_unfinished_round_closed_at_last_timestamp(self):
        log = EventLog()
        log.emit("round_start", 1.0, wid=0, round=2, kind="inceval",
                 batches=1)
        log.emit("msg_deliver", 5.0, wid=1, round=0, src=0, bytes=8, seq=0,
                 depth=1)
        doc = to_chrome_trace(log)
        (x,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x["args"]["unfinished"] is True
        assert x["ts"] == 1.0 * 1e6
        assert x["dur"] == 4.0 * 1e6

    def test_deliveries_become_counter_series(self):
        log = EventLog()
        log.emit("msg_deliver", 1.0, wid=2, round=0, src=0, bytes=8, seq=0,
                 depth=3)
        doc = to_chrome_trace(log)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters and counters[0]["name"] == "buffer_depth_w2"
        assert counters[0]["args"]["depth"] == 3

    def test_straggler_run_export_matches_gantt(self, small_grid, tmp_path):
        # Acceptance criterion: the Chrome-trace export of a straggler run
        # round-trips json.load and reproduces the ASCII-Gantt round counts
        # (one X slice per round slice of the log, per worker track).
        obs = Observer()
        result = straggler_run(small_grid, obs)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(obs.log, path)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        per_tid = {}
        for s in slices:
            per_tid[s["tid"]] = per_tid.get(s["tid"], 0) + 1
        by_worker = round_slices(obs.log)
        assert per_tid == {wid: len(s) for wid, s in by_worker.items()}
        assert {s["tid"] for s in slices} == set(range(4))
        assert per_tid == {wid: r for wid, r in enumerate(result.rounds)}
