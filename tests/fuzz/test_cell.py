"""One cell, one tolerance, one artifact: the pieces every grid shares."""

import dataclasses
import json

import pytest

from repro import cli
from repro.algorithms import PageRankProgram, PageRankQuery
from repro.errors import ReproError
from repro.fuzz import GRIDS, Cell, tolerance
from repro.fuzz.cell import fault_plan
from repro.graph import generators
from repro.runtime.faultplan import CrashFault, DelayFault, StragglerFault


class TestTolerance:
    def test_global_in_degree_bound_built_from_arrays(self):
        # every fragment holds a copy of each cut edge: summing in-degree
        # over the fragments' graphs counted those twice (and built every
        # fragment's dict graph to do it).  The bound reads the input
        # graph's degree arrays and builds no dict of it either.
        graph = generators.grid2d(12, 12)
        n = graph.num_nodes
        query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
        tol = tolerance(PageRankProgram(), graph, query)
        assert "_adj" not in vars(graph)
        max_indeg = max(graph.in_degree(v) for v in graph.nodes)
        assert max_indeg == 4
        eps_node = query.epsilon / n
        assert tol == pytest.approx(2.0 * eps_node * (1 + max_indeg)) \
            == pytest.approx(0.005)

    def test_directed_graph_counts_in_edges_only(self):
        graph = generators.rmat(6, seed=3)
        n = graph.num_nodes
        query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
        max_indeg = max(graph.in_degree(v) for v in graph.nodes)
        assert tolerance(PageRankProgram(), graph, query) == \
            2.0 * (query.epsilon / n) * (1 + max_indeg)


class TestFaultSpecs:
    def test_specs_spell_the_chaos_flags(self):
        cell = Cell(faults=("crash:1", "delay:0.2", "slow:2:3.5"),
                    fault_seed=4)
        plan = fault_plan(cell)
        assert plan.seed == 4
        assert plan.faults == (CrashFault(wid=1, at_round=1),
                               DelayFault(rate=0.2, delay=0.05),
                               StragglerFault(wid=2, factor=3.5))

    def test_unknown_fault_refused(self):
        with pytest.raises(ReproError, match="unknown fault"):
            fault_plan(Cell(faults=("meteor:1",)))


class TestGrids:
    def test_cell_counts(self):
        assert len(GRIDS["differential"]()) == 90
        chaos = GRIDS["chaos"]()
        assert len(chaos) == 32
        assert {(c.rung, c.respawn_budget) for c in chaos} == {(1, 1)}
        assert len({c.label for c in chaos}) == 32
        assert sum(c.vectorized for c in chaos) == 16
        assert {c.mode for c in chaos} == {"AAP", "BSP", "SSP", "Hsync"}


class TestLiveArtifact:
    def test_failing_live_cell_writes_an_artifact_that_replays(
            self, tmp_path, monkeypatch, capsys):
        # the chaos grid's rung-1 contract on PageRank: the runtime
        # refuses the takeover for an accumulative program, so the run
        # rolls back (rung 2) and the cell fails, every time
        base = next(c for c in GRIDS["chaos"]()
                    if c.runtime == "multiprocess")
        planted = dataclasses.replace(base, algorithm="pagerank")
        monkeypatch.setitem(GRIDS, "chaos", lambda **kw: [planted])
        out = tmp_path / "chaos-out"
        assert cli.main(["fuzz", "--grid", "chaos", "--artifact-dir",
                         str(out), "--quiet"]) == 1
        assert "0/1 cells match" in capsys.readouterr().out
        (path,) = out.glob("*.json")
        data = json.loads(path.read_text())
        assert data["version"] == 2
        assert Cell.from_dict(data["cell"]) == planted
        assert {v["oracle"] for v in data["violations"]} == {"rung"}
        assert data["rung"] == 2 and data["recoveries"] == 1
        assert data["shrink_trail"] == []  # live cells are not shrunk

        assert cli.main(["fuzz", "--replay", str(path)]) == 1
        replay = json.loads(capsys.readouterr().out)
        assert replay["reproduced"] is True


class TestChaosCommand:
    def test_fault_flags_become_one_cell(self, capsys):
        code = cli.main(["chaos", "-a", "sssp", "--graph", "grid:6x6",
                         "-m", "2", "--runtime", "threaded",
                         "--crash", "1:2", "--respawn-budget", "1",
                         "--checkpoint-interval", "0.01",
                         "--heartbeat-interval", "0.005",
                         "--heartbeat-timeout", "0.25"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["ok"]
        assert doc["cell"]["faults"] == ["crash:1:2"]
        assert doc["rung"] == 1 and doc["respawns"] == 1

    def test_only_conformance_workloads(self, capsys):
        # a chaos cell is judged against a fixpoint; CF has none
        with pytest.raises(SystemExit) as exc:
            cli.main(["chaos", "-a", "cf"])
        assert exc.value.code == 2
        assert "invalid choice: 'cf'" in capsys.readouterr().err
