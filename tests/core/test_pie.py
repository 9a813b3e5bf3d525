"""Tests for the PIE programming-model contracts."""

import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.core.aggregators import Min
from repro.core.pie import FragmentContext, PIEProgram
from repro.errors import ProgramError
from repro.partition.edge_cut import HashPartitioner


@pytest.fixture
def frag(small_grid):
    return HashPartitioner().partition(small_grid, 3).fragments[0]


@pytest.fixture
def ctx(frag):
    init = {v: v for v in frag.graph.nodes}
    return FragmentContext(frag, Min(), init)


class TestFragmentContext:
    def test_get_set(self, ctx, frag):
        v = next(iter(frag.owned))
        assert ctx.set(v, -1)
        assert ctx.get(v) == -1
        assert v in ctx.changed

    def test_set_same_value_not_changed(self, ctx, frag):
        v = next(iter(frag.owned))
        assert not ctx.set(v, ctx.get(v))
        assert v not in ctx.changed

    def test_update_aggregates(self, ctx, frag):
        v = next(iter(frag.owned))
        current = ctx.get(v)
        assert ctx.update(v, current + 5, current - 3)
        assert ctx.get(v) == current - 3

    def test_update_no_improvement(self, ctx, frag):
        v = next(iter(frag.owned))
        assert not ctx.update(v, ctx.get(v) + 10)

    def test_unknown_node(self, ctx):
        with pytest.raises(ProgramError):
            ctx.get("missing")
        with pytest.raises(ProgramError):
            ctx.set("missing", 1)
        with pytest.raises(ProgramError):
            ctx.set_silent("missing", 1)

    def test_set_silent_untracked(self, ctx, frag):
        v = next(iter(frag.owned))
        ctx.set_silent(v, -99)
        assert ctx.get(v) == -99
        assert v not in ctx.changed

    def test_take_changed_clears(self, ctx, frag):
        v = next(iter(frag.owned))
        ctx.set(v, -1)
        taken = ctx.take_changed()
        assert taken == {v}
        assert ctx.changed == set()

    def test_work_accounting(self, ctx):
        ctx.add_work(3)
        ctx.add_work()
        assert ctx.take_work() == 4
        assert ctx.take_work() == 0


class TestProgramDeclarations:
    def test_default_candidates_are_shared(self, frag):
        prog = SSSPProgram()
        assert prog.candidates(frag) == frag.shared_nodes

    def test_ship_set_only_nodes_with_locations(self, frag):
        prog = CCProgram()
        for v in prog.ship_set(frag):
            assert frag.locations(v)

    def test_ships_is_ship_set_per_node(self, small_grid):
        """The two forms of the ship declaration agree, on every program
        that spells one out and under both cuts."""
        from repro.algorithms import (CFProgram, PageRankProgram)
        from repro.graph import generators
        from repro.partition.vertex_cut import GreedyVertexCutPartitioner
        ratings, _, _ = generators.bipartite_ratings(12, 8, 4, seed=3)
        cases = [(SSSPProgram(), small_grid), (CCProgram(), small_grid),
                 (PageRankProgram(), small_grid), (CFProgram(), ratings)]
        for prog, graph in cases:
            for pg in (HashPartitioner().partition(graph, 3),
                       GreedyVertexCutPartitioner().partition(graph, 3)):
                for f in pg:
                    assert prog.ship_set(f) == {
                        v for v in f.graph.nodes if prog.ships(f, v)}, \
                        (prog.name, pg.cut)

    def test_ship_declarations_are_overridden_together(self):
        import repro.algorithms  # noqa: F401  (registers the subclasses)
        import repro.compat.mapreduce  # noqa: F401
        import repro.compat.pregel  # noqa: F401

        def walk(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from walk(sub)

        for cls in walk(PIEProgram):
            if cls.__module__.startswith("repro."):
                assert ("ship_set" in vars(cls)) == ("ships" in vars(cls)), \
                    cls.__name__

    def test_make_context_requires_full_init(self, frag):
        class Sloppy(SSSPProgram):
            def init_values(self, frag, query):
                values = super().init_values(frag, query)
                values.pop(next(iter(values)))
                return values

        with pytest.raises(ProgramError):
            Sloppy().make_context(frag, SSSPQuery(source=0))

    def test_leq_defaults_to_aggregator(self):
        prog = SSSPProgram()
        assert prog.leq(1.0, 2.0)
        assert not prog.leq(3.0, 2.0)

    def test_name(self):
        assert SSSPProgram().name == "SSSPProgram"

    def test_bounded_staleness_declarations(self):
        from repro.algorithms import CFProgram
        assert CFProgram().needs_bounded_staleness
        assert not SSSPProgram().needs_bounded_staleness
        assert not CCProgram().needs_bounded_staleness
