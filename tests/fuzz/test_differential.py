"""Differential conformance: the full grid agrees with the fixpoint.

This is the acceptance grid from the issue: {BSP, AP, SSP, AAP, Hsync} x
{simulator, threaded, multiprocess} x {generic, vectorized} on SSSP, CC
and PageRank, every assembled answer identical (within the accumulative
tolerance) to the sequential fixpoint.
"""

from repro.bench.kernels import ALGORITHMS, RUNTIMES
from repro.core.modes import MODES
from repro.fuzz import differential, format_report, run_differential
from repro.fuzz.differential import PATHS
from repro.graph import generators


class TestFullGrid:
    def test_every_cell_matches_reference(self):
        graph = generators.grid2d(4, 4, weighted=True, seed=1)
        report = run_differential(graph, fragments=2)
        assert report.ok, format_report(report)
        expected = (len(ALGORITHMS) * len(MODES) * len(RUNTIMES)
                    * len(PATHS))
        assert len(report.cells) == expected
        assert {c.algorithm for c in report.cells} >= \
            {"sssp", "cc", "pagerank"}
        assert {c.mode for c in report.cells} == set(MODES)
        assert {c.runtime for c in report.cells} == set(RUNTIMES)
        assert {c.vectorized for c in report.cells} == {False, True}
        # BSP's schedule is pinned as well as its answer: the
        # multiprocess cell repeated the strict superstep schedule on
        # every run, and with two fragments (one sender per worker) the
        # simulator's delay-stretch BSP has that same schedule
        cells = {(c.algorithm, c.runtime, c.vectorized): c
                 for c in report.cells if c.mode == "BSP"}
        for algorithm in ALGORITHMS:
            for path in PATHS:
                live = cells[algorithm, "multiprocess", path].schedule
                assert live is not None
                assert live == cells[algorithm, "simulated", path].schedule


class TestReportShape:
    def test_failure_cells_surface_first(self):
        graph = generators.path_graph(6, weighted=True, seed=2)
        report = run_differential(
            graph, fragments=2, algorithms=("sssp",), modes=("AP",),
            runtimes=("simulated",), paths=(False,))
        assert len(report.cells) == 1
        assert report.cells[0].label == "sssp/AP/simulated/generic"
        text = format_report(report)
        assert "1/1 cells match" in text
        assert report.to_dict()["ok"] is True


class TestBspScheduleOracle:
    def test_wrong_schedule_fails_the_cell(self, monkeypatch):
        graph = generators.grid2d(4, 4, weighted=True, seed=1)
        real = differential.bsp_schedule

        def off_by_one(*args):
            rounds, messages, size = real(*args)
            return rounds, messages + 1, size

        monkeypatch.setattr(differential, "bsp_schedule", off_by_one)
        report = run_differential(
            graph, fragments=2, algorithms=("cc",), modes=("BSP",),
            runtimes=("simulated", "multiprocess"), paths=(True,))
        simulated, live = report.cells
        assert simulated.match  # only the live runtime is pinned
        assert not live.match
        assert "strict superstep schedule" in live.error
        assert "MISMATCH cc/BSP/multiprocess/vectorized" in \
            format_report(report)
