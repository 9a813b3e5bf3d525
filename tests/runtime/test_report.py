"""Tests for JSON run reports (``repro.obs.export.run_report``; the file
keeps its place so the test ids do)."""

import json

from repro import api
from repro.algorithms import CCProgram, CCQuery
from repro.obs import Observer
from repro.obs.export import run_report, write_report


class TestResultToDict:
    def test_core_fields(self, small_powerlaw):
        r = api.run(CCProgram(), small_powerlaw, CCQuery(), num_fragments=3)
        doc = run_report(r)
        assert doc["mode"] == "AAP"
        assert doc["time"] == r.time
        assert doc["metrics"]["total_messages"] == r.metrics.total_messages
        assert len(doc["metrics"]["workers"]) == 3
        assert "trace" not in doc
        assert "answer" not in doc

    def test_trace_included(self, small_powerlaw):
        # a run with an observer carries its rounds, read off the log
        r = api.run(CCProgram(), small_powerlaw, CCQuery(), num_fragments=3,
                    observer=Observer())
        doc = run_report(r)
        assert len(doc["trace"]) == sum(r.rounds)
        iv = doc["trace"][0]
        assert set(iv) == {"wid", "start", "end", "kind", "round", "payload"}

    def test_answer_included(self, small_grid):
        r = api.run(CCProgram(), small_grid, CCQuery(), num_fragments=2)
        doc = run_report(r, include_answer=True)
        assert doc["answer"]["0"] == 0

    def test_json_serialisable(self, small_powerlaw):
        r = api.run(CCProgram(), small_powerlaw, CCQuery(), num_fragments=3,
                    observer=Observer())
        text = json.dumps(run_report(r, include_answer=True))
        assert "metrics" in text


class TestWriteReport:
    def test_roundtrip(self, small_grid, tmp_path):
        r = api.run(CCProgram(), small_grid, CCQuery(), num_fragments=2)
        path = tmp_path / "report.json"
        write_report(r, str(path), extra={"note": "test"})
        doc = json.loads(path.read_text())
        assert doc["context"]["note"] == "test"
        assert doc["metrics"]["makespan"] > 0


class TestCliReport:
    def test_run_with_report(self, tmp_path, capsys):
        from repro import cli
        path = tmp_path / "out.json"
        code = cli.main(["run", "-a", "cc", "--graph", "powerlaw:80",
                         "-m", "2", "--report", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["context"]["algorithm"] == "cc"
        assert doc["trace"]
