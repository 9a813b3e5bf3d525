"""Differential conformance: the full grid agrees with the fixpoint.

This is the acceptance grid: {BSP, AP, SSP, AAP, Hsync} x {simulator,
threaded, multiprocess} x {generic, vectorized} on SSSP, CC and PageRank,
every assembled answer identical (within the accumulative tolerance) to
the sequential fixpoint.
"""

from repro.core.modes import MODES
from repro.fuzz import (ALGORITHMS, GRIDS, RUNTIMES, Cell, format_report,
                        run_grid)
from repro.fuzz import cell as cell_module
from repro.fuzz.cell import PATHS

GRID4 = ("grid2d", {"rows": 4, "cols": 4, "weighted": True, "seed": 1})


class TestFullGrid:
    def test_every_cell_matches_reference(self):
        verdicts = run_grid(GRIDS["differential"](graph=GRID4, fragments=2))
        assert all(v.ok for v in verdicts), format_report(verdicts)
        expected = (len(ALGORITHMS) * len(MODES) * len(RUNTIMES)
                    * len(PATHS))
        assert len(verdicts) == expected == 90
        cells = [v.cell for v in verdicts]
        assert {c.algorithm for c in cells} >= {"sssp", "cc", "pagerank"}
        assert {c.mode for c in cells} == set(MODES)
        assert {c.runtime for c in cells} == set(RUNTIMES)
        assert {c.vectorized for c in cells} == {False, True}
        # BSP's schedule is pinned as well as its answer: the
        # multiprocess cell repeated the strict superstep schedule on
        # every run, and with two fragments (one sender per worker) the
        # simulator's delay-stretch BSP has that same schedule
        bsp = {(v.cell.algorithm, v.cell.runtime, v.cell.vectorized): v
               for v in verdicts if v.cell.mode == "BSP"}
        for algorithm in ALGORITHMS:
            for path in PATHS:
                live = bsp[algorithm, "multiprocess", path].schedule
                assert live is not None
                assert live == bsp[algorithm, "simulated", path].schedule


class TestReportShape:
    def test_failure_cells_surface_first(self):
        cell = Cell(algorithm="sssp", graph_kind="path",
                    graph_params={"n": 6, "weighted": True, "seed": 2},
                    fragments=2, mode="AP")
        verdicts = run_grid([cell])
        assert len(verdicts) == 1
        assert verdicts[0].cell.label == "sssp/AP/simulated/generic"
        text = format_report(verdicts)
        assert "1/1 cells match" in text
        assert verdicts[0].to_dict()["ok"] is True


class TestBspScheduleOracle:
    def test_wrong_schedule_fails_the_cell(self, monkeypatch):
        real = cell_module.bsp_schedule

        def off_by_one(*args):
            rounds, messages, size = real(*args)
            return rounds, messages + 1, size

        monkeypatch.setattr(cell_module, "bsp_schedule", off_by_one)
        simulated, live = run_grid(
            Cell(algorithm="cc", graph_kind=GRID4[0], graph_params=GRID4[1],
                 fragments=2, mode="BSP", runtime=runtime, vectorized=True)
            for runtime in ("simulated", "multiprocess"))
        assert simulated.ok  # only the live runtime is pinned
        assert not live.ok
        assert live.oracles == {"schedule"}
        assert "strict superstep schedule" in live.violations[0].message
        assert "MISMATCH cc/BSP/multiprocess/vectorized" in \
            format_report([simulated, live])
