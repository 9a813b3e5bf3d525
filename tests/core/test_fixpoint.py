"""Tests for the scheduled fixpoint executor (equations (2)/(3))."""

import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.core.fixpoint import (ScheduledExecutor, resume_to_fixpoint,
                                 run_sequential_fixpoint)
from repro.errors import TerminationError
from repro.graph import analysis, generators
from repro.partition.edge_cut import HashPartitioner
from repro.partition.grow import grow_edge_cut
from repro.serve.service import integrate_insertions


def make_engine(graph, program, query, m=4):
    pg = HashPartitioner().partition(graph, m)
    return Engine(program, pg, query)


class TestLifecycle:
    def test_step_before_start_rejected(self, small_grid):
        ex = ScheduledExecutor(make_engine(small_grid, CCProgram(), CCQuery()))
        with pytest.raises(TerminationError):
            ex.step(0)

    def test_double_start_rejected(self, small_grid):
        ex = ScheduledExecutor(make_engine(small_grid, CCProgram(), CCQuery()))
        ex.start()
        with pytest.raises(TerminationError):
            ex.start()

    def test_step_with_empty_buffer_is_noop(self, small_grid):
        ex = ScheduledExecutor(make_engine(small_grid, SSSPProgram(),
                                           SSSPQuery(source=0)))
        ex.start()
        # drain everything, then stepping is a no-op
        ex.drain()
        assert ex.step(0) is False


class TestResume:
    """A continuation: contexts hold a fixpoint, messages move it on."""

    def converged(self, graph):
        engine = make_engine(graph, SSSPProgram(), SSSPQuery(source=0), m=2)
        run_sequential_fixpoint(engine)
        return engine

    def test_resume_skips_peval_and_drains_the_messages(self, small_grid):
        engine = self.converged(small_grid)
        before = dict(engine.assemble())
        # a shortcut from the source to the farthest node, integrated
        # where it lands; the continuation carries the consequences
        far = max(before, key=before.get)
        report = grow_edge_cut(engine.pg, [(0, far, 0.5)])
        engine.extend_contexts(report)
        engine.refresh_routes(report)
        messages = integrate_insertions(engine, report)
        engine.program.peval = None  # a continuation never calls it
        assert resume_to_fixpoint(engine, messages) >= 1
        after = dict(engine.assemble())
        small_grid.add_edge(0, far, 0.5)
        ref = analysis.dijkstra(small_grid, 0)
        assert after[far] == 0.5 < before[far]
        assert all(after[v] == pytest.approx(ref[v]) for v in ref)

    def test_resume_after_start_rejected(self, small_grid):
        ex = ScheduledExecutor(self.converged(small_grid))
        ex.resume([])
        assert ex.quiescent and ex.rounds == [1, 1]
        with pytest.raises(TerminationError):
            ex.resume([])


class TestFixpoint:
    def test_drain_reaches_reference(self, small_grid):
        engine = make_engine(small_grid, SSSPProgram(), SSSPQuery(source=0))
        answer = run_sequential_fixpoint(engine)
        ref = analysis.dijkstra(small_grid, 0)
        assert all(answer[v] == pytest.approx(ref[v]) for v in ref)

    def test_quiescent_after_drain(self, small_powerlaw):
        engine = make_engine(small_powerlaw, CCProgram(), CCQuery())
        ex = ScheduledExecutor(engine)
        ex.start()
        ex.drain()
        assert ex.quiescent

    def test_run_schedule_partial_then_drain(self, small_powerlaw):
        engine = make_engine(small_powerlaw, CCProgram(), CCQuery())
        ex = ScheduledExecutor(engine)
        answer = ex.run_schedule([0, 1, 0, 2, 3, 1], then_drain=True)
        assert answer == analysis.connected_components(small_powerlaw)

    def test_round_counters_advance(self, small_powerlaw):
        engine = make_engine(small_powerlaw, CCProgram(), CCQuery())
        ex = ScheduledExecutor(engine)
        ex.start()
        assert all(r == 1 for r in ex.rounds)
        ex.drain()
        assert any(r > 1 for r in ex.rounds)


class TestSupersteps:
    def test_strict_supersteps_reach_reference(self, small_grid):
        engine = make_engine(small_grid, SSSPProgram(), SSSPQuery(source=0))
        ex = ScheduledExecutor(engine)
        ex.start()
        count = ex.run_supersteps()
        assert count > 0
        ref = analysis.dijkstra(small_grid, 0)
        answer = ex.assemble()
        assert all(answer[v] == pytest.approx(ref[v]) for v in ref)

    def test_superstep_count_tracks_propagation_depth(self):
        # a path split into m chunks needs ~m superstep waves
        g = generators.path_graph(40, weighted=False)
        from repro.partition.edge_cut import RangePartitioner
        pg = RangePartitioner().partition(g, 8)
        engine = Engine(SSSPProgram(), pg, SSSPQuery(source=0))
        ex = ScheduledExecutor(engine)
        ex.start()
        count = ex.run_supersteps()
        assert count >= 7

    def test_superstep_false_at_fixpoint(self, small_grid):
        engine = make_engine(small_grid, CCProgram(), CCQuery())
        ex = ScheduledExecutor(engine)
        ex.start()
        ex.run_supersteps()
        assert ex.superstep() is False
