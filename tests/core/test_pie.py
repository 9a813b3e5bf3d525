"""Tests for the PIE programming-model contracts."""

import numpy as np
import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.core.aggregators import Min
from repro.core.pie import FragmentContext, PIEProgram
from repro.errors import ProgramError
from repro.partition.edge_cut import HashPartitioner


@pytest.fixture
def pg(small_grid):
    return HashPartitioner().partition(small_grid, 3)


@pytest.fixture
def frag(pg):
    return pg.fragments[0]


class Default(SSSPProgram):
    """A program that states no routing rule of its own."""

    routes = PIEProgram.routes


def shipped(program, pg, frag):
    """Per node the rule ships: the fragments it ships to."""
    routes, ship_mask = program.routes(pg, frag)
    nodes = frag._arrays.gids.tolist()
    return {nodes[lid]: {dst for dst, mask in routes.items() if mask[lid]}
            for lid in np.flatnonzero(ship_mask).tolist()}


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
    def test_default_candidates_are_shared(self, pg, frag):
        """The default rule ships exactly the shared nodes (on an
        edge-cut, every one resides somewhere else)."""
        assert set(shipped(Default(), pg, frag)) == frag.shared_nodes

    def test_ship_set_only_nodes_with_locations(self, pg, frag):
        """A rule ships a node only to fragments where it resides."""
        for program in (Default(), CCProgram()):
            rule = shipped(program, pg, frag)
            assert rule
            for v, dsts in rule.items():
                assert dsts and dsts <= set(frag.locations(v)), v

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
