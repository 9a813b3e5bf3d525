"""Differential conformance: the full grid agrees with the fixpoint.

This is the acceptance grid: {BSP, AP, SSP, AAP, Hsync} x {simulator,
threaded, multiprocess} x {generic, vectorized} on SSSP, CC and PageRank,
every assembled answer identical (within the accumulative tolerance) to
the sequential fixpoint.
"""

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.core.modes import MODES, make_policy
from repro.fuzz import (ALGORITHMS, GRIDS, RUNTIMES, Cell, format_report,
                        run_grid)
from repro.fuzz import cell as cell_module
from repro.fuzz.cell import PATHS
from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.costmodel import CostModel
from repro.runtime.faultplan import FaultPlan, StragglerFault
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.threaded import ThreadedRuntime

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
        # BSP's schedule is pinned as well as its answer: the simulator
        # and every live run kept the strict superstep schedule, so the
        # three runtimes' schedules are one
        bsp = {(v.cell.algorithm, v.cell.runtime, v.cell.vectorized): v
               for v in verdicts if v.cell.mode == "BSP"}
        for algorithm in ALGORITHMS:
            for path in PATHS:
                schedules = {bsp[algorithm, runtime, path].schedule
                             for runtime in RUNTIMES}
                assert len(schedules) == 1 and None not in schedules


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
        verdicts = run_grid(
            Cell(algorithm="cc", graph_kind=GRID4[0], graph_params=GRID4[1],
                 fragments=2, mode="BSP", runtime=runtime, vectorized=True)
            for runtime in RUNTIMES)
        report = format_report(verdicts)
        for runtime, verdict in zip(RUNTIMES, verdicts):
            assert verdict.oracles == {"schedule"}
            assert len(verdict.violations) == 1  # not one per repeat
            assert "strict superstep schedule" in \
                verdict.violations[0].message
            assert f"MISMATCH cc/BSP/{runtime}/vectorized" in report

    def test_a_straggler_leaves_the_superstep_schedule_alone(self):
        """SSSP on an 8x8 grid over four fragments, worker 0 four times
        slower: the simulator (cost model) and the threaded runtime
        (injected stall, and none) both run the strict superstep."""
        graph = generators.grid2d(8, 8)
        pg = HashPartitioner().partition(graph, 4)
        query = SSSPQuery(source=0)
        pinned = cell_module.bsp_schedule(SSSPProgram, pg, query, False)
        slow = FaultPlan(faults=(StragglerFault(0, 4.0),))
        runtimes = [
            SimulatedRuntime(Engine(SSSPProgram(), pg, query),
                             make_policy("BSP"),
                             cost_model=CostModel.with_straggler(0, 4.0)),
            ThreadedRuntime(Engine(SSSPProgram(), pg, query),
                            make_policy("BSP")),
            ThreadedRuntime(Engine(SSSPProgram(), pg, query),
                            make_policy("BSP"), fault_plan=slow)]
        for runtime in runtimes:
            result = runtime.run()
            m = result.metrics
            assert (tuple(result.rounds), m.total_messages,
                    m.total_bytes) == pinned
