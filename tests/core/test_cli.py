"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.errors import ReproError


class TestParseGraph:
    def test_grid(self):
        g = cli.parse_graph("grid:4x6")
        assert g.num_nodes == 24

    def test_grid_square_shorthand(self):
        assert cli.parse_graph("grid:5").num_nodes == 25

    def test_powerlaw(self):
        assert cli.parse_graph("powerlaw:100").num_nodes == 100

    def test_er_with_p(self):
        g = cli.parse_graph("er:30:0.5", seed=1)
        assert g.num_nodes == 30
        assert g.num_edges > 50

    def test_path(self):
        assert cli.parse_graph("path:7").num_edges == 6

    def test_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# directed: false\n1 2\n2 3\n")
        g = cli.parse_graph(f"file:{p}")
        assert g.num_edges == 2

    def test_unknown(self):
        with pytest.raises(ReproError):
            cli.parse_graph("hypercube:4")


class TestCommands:
    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_run_cc(self, capsys):
        code, out = self.run_cli(capsys, "run", "-a", "cc",
                                 "--graph", "powerlaw:120", "-m", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["components"] == 1
        assert doc["mode"] == "AAP"

    def test_run_sssp_with_source(self, capsys):
        code, out = self.run_cli(capsys, "run", "-a", "sssp",
                                 "--graph", "grid:6x6", "--source", "0",
                                 "--mode", "BSP", "-m", "2")
        assert code == 0
        assert json.loads(out)["mode"] == "BSP"

    def test_compare(self, capsys):
        code, out = self.run_cli(capsys, "compare", "-a", "cc",
                                 "--graph", "powerlaw:100", "-m", "3")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"AAP", "BSP", "AP", "SSP", "Hsync"}

    def test_verify_ok(self, capsys):
        code, out = self.run_cli(capsys, "verify", "-a", "cc",
                                 "--graph", "powerlaw:80", "-m", "3",
                                 "--runs", "2")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_info(self, capsys):
        code, out = self.run_cli(capsys, "info", "--graph", "grid:5x5",
                                 "-m", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == 25
        part = doc["partition"]
        assert part["build_s"] >= 0 and part["compact_s"] >= 0
        # the quality summary beside them did not build a dict graph
        assert part["materialised"] == "0/2 fragments"

    def test_bench_modes_experiment(self, capsys):
        code, out = self.run_cli(capsys, "bench", "-e", "cc",
                                 "--graph", "powerlaw:100",
                                 "--straggler", "2.0")
        assert code == 0
        assert "cc vs workers" in out

    def test_error_exit_code(self, capsys):
        code = cli.main(["run", "--graph", "bogus:1"])
        assert code == 2

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_negative_admission_limit_is_a_clean_error(self, capsys,
                                                      command):
        code = cli.main([command, "-a", "sssp", "--graph", "grid:4x4",
                         "--source", "0", "--max-pending", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: admission limits must be >= 0")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_empty_batches_are_a_clean_error(self, capsys, command, size):
        """A batch of no edges streams nothing: refused, not reported as
        a successful run."""
        code = cli.main([command, "-a", "sssp", "--graph", "grid:4x4",
                         "--source", "0", "--runtime", "simulated",
                         "--batches", "2", "--batch-size", size])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: LoadGenerator needs batch_size >= 1, got {size}\n")

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_fewer_than_one_fragment_is_a_clean_error(self, capsys,
                                                      command):
        code = cli.main([command, "-a", "sssp", "--graph", "grid:4x4",
                         "--source", "0", "--runtime", "simulated",
                         "-m", "0"])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: num_fragments must be >= 1\n"

    def test_fuzz_with_no_cell_is_a_usage_error(self, capsys):
        """A conformance gate that ran no cell did not pass."""
        code = cli.main(["fuzz", "--seeds", "0", "--quiet"])
        captured = capsys.readouterr()
        assert code == 2 and "cells match" not in captured.out
        assert captured.err.startswith("error: no cells to run")
        assert len(captured.err.splitlines()) == 1

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "events.jsonl"
        code, out = self.run_cli(
            capsys, "trace", "-a", "sssp", "--graph", "grid:6x6",
            "--source", "0", "-m", "2", "--straggler", "4",
            "--out", str(out_path), "--jsonl", str(jsonl_path),
            "--explain", "0", "--explain-limit", "5")
        assert code == 0
        with open(out_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert jsonl_path.exists()
        assert "round_start" in out
        assert " P0 " in out  # the audit lines

    def test_chaos_runs_ssp(self, capsys):
        """SSP is one of the chaos grid's modes, so ``repro chaos`` takes
        it too: a crashed worker is absorbed and the answer is right."""
        code, out = self.run_cli(
            capsys, "chaos", "--mode", "SSP", "--runtime", "threaded",
            "--graph", "grid:8x8", "-m", "4", "--crash", "1:2")
        assert code == 0
        assert '"ok": true' in out

    @pytest.mark.parametrize("runtime", ["threaded", "multiprocess"])
    def test_chaos_runs_hsync(self, capsys, runtime):
        """Hsync is one of the chaos grid's modes too: its crashes are
        absorbed in place on both live runtimes."""
        code, out = self.run_cli(
            capsys, "chaos", "--mode", "Hsync", "--runtime", runtime,
            "--graph", "grid:8x8", "-m", "4", "--crash", "1:2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["respawns"] == 1 and doc["attempts"] == 1

    @pytest.mark.parametrize("runtime", ["threaded", "multiprocess"])
    @pytest.mark.parametrize("flag, value, error", [
        ("--retries", "-1", "max_retries must be >= 0"),
        ("--retry-jitter", "2", "jitter must be in [0, 1]"),
        ("--retry-deadline", "-1", "deadline must be positive"),
        ("--checkpoint-interval", "-1",
         "checkpoint interval must be positive"),
        ("--timeout", "0", "timeout must be positive"),
        ("--respawn-budget", "-2", "respawn_budget must be >= 0")])
    def test_chaos_refuses_a_configuration(self, capsys, runtime, flag,
                                           value, error):
        """A refused knob is a usage error, not a ``crash`` finding."""
        code = cli.main(["chaos", "--runtime", runtime, "--graph",
                         "grid:4x4", "-m", "2", "--crash", "1:2",
                         flag, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {error}")
        assert len(captured.err.splitlines()) == 1

    def test_trace_threaded_runtime(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out = self.run_cli(
            capsys, "trace", "-a", "cc", "--graph", "powerlaw:60",
            "-m", "2", "--runtime", "threaded", "--out", str(out_path))
        assert code == 0
        with open(out_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]
