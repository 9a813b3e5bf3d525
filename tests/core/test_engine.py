"""Tests for the engine mechanics (diff shipping, message application)."""

import numpy as np
import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.core.messages import Message
from repro.errors import ProgramError
from repro.graph.graph import Graph
from repro.partition.edge_cut import RangePartitioner


@pytest.fixture
def chain_engine():
    """Path a-b-c-d split into two fragments: {a,b} and {c,d}."""
    g = Graph(directed=False)
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 1.0)
    g.add_edge("c", "d", 1.0)
    pg = RangePartitioner().partition(g, 2)
    return Engine(SSSPProgram(), pg, SSSPQuery(source="a"))


class TestPeval:
    def test_produces_border_messages(self, chain_engine):
        pg = chain_engine.pg
        src_frag = pg.fragment_of("a").fid
        out = chain_engine.run_peval(src_frag)
        assert out.round == 0
        assert out.work > 0
        assert out.messages, "source fragment must ship border distances"
        msg = out.messages[0]
        assert msg.dst != src_frag
        shipped_nodes = {v for v, _ in msg.entries}
        assert shipped_nodes <= set(
            pg.fragments[src_frag].mirrors | pg.fragments[src_frag].owned)

    def test_non_source_fragment_ships_nothing_useful(self, chain_engine):
        pg = chain_engine.pg
        other = 1 - pg.fragment_of("a").fid
        out = chain_engine.run_peval(other)
        # all distances are inf there; nothing changed, nothing to ship
        assert out.messages == []


class TestInceval:
    def test_applies_and_propagates(self, chain_engine):
        pg = chain_engine.pg
        fa = pg.fragment_of("a").fid
        fb = 1 - fa
        out_a = chain_engine.run_peval(fa)
        chain_engine.run_peval(fb)
        batches = [m for m in out_a.messages if m.dst == fb]
        out_b = chain_engine.run_inceval(fb, batches, round_no=1)
        assert out_b.activated > 0
        assert chain_engine.contexts[fb].values["d"] == 3.0

    def test_stale_messages_no_reexecution(self, chain_engine):
        pg = chain_engine.pg
        fa = pg.fragment_of("a").fid
        fb = 1 - fa
        out_a = chain_engine.run_peval(fa)
        chain_engine.run_peval(fb)
        batches = [m for m in out_a.messages if m.dst == fb]
        chain_engine.run_inceval(fb, batches, round_no=1)
        # delivering the identical (now stale) values again changes nothing
        out = chain_engine.run_inceval(fb, batches, round_no=2)
        assert out.activated == 0
        assert out.messages == []

    def test_rejects_nonlocal_node(self, chain_engine):
        bogus = Message(src=0, dst=1, round=0, entries=(("zz", 1.0),))
        with pytest.raises(ProgramError):
            chain_engine.run_inceval(1, [bogus], round_no=1)


class TestDiffShipping:
    def test_only_changed_values_ship(self, chain_engine):
        pg = chain_engine.pg
        fa = pg.fragment_of("a").fid
        out = chain_engine.run_peval(fa)
        total_entries = sum(len(m) for m in out.messages)
        # only the mirror copy of the neighbouring fragment changed
        assert total_entries <= 2

    def test_changed_cleared_after_derive(self, chain_engine):
        fa = chain_engine.pg.fragment_of("a").fid
        chain_engine.run_peval(fa)
        assert chain_engine.contexts[fa].changed == set()


class TestAssemble:
    def test_collects_partial_results(self, chain_engine):
        for wid in (0, 1):
            chain_engine.run_peval(wid)
        answer = chain_engine.assemble()
        assert set(answer) == {"a", "b", "c", "d"}


class TestShipSetValidation:
    def test_ship_set_must_have_locations(self, small_grid):
        class Broken(CCProgram):
            def routes(self, pg, frag, lids=None):
                routes, ship_mask = super().routes(pg, frag, lids)
                return routes, np.ones_like(ship_mask)  # interior too

        pg = RangePartitioner().partition(small_grid, 2)
        for vectorized in (False, True):
            with pytest.raises(ProgramError, match="resides nowhere else"):
                Engine(Broken(), pg, CCQuery(), vectorized=vectorized)

    def test_growth_revalidates_the_nodes_it_names(self, small_grid):
        """``refresh_routes`` keeps the check, for the re-decided nodes,
        and refuses before it patches anything."""
        from repro.partition.grow import grow_edge_cut

        class Greedy(CCProgram):
            def routes(self, pg, frag, lids=None):
                if lids is None:
                    return super().routes(pg, frag)
                # also the interior node growth adds
                return {}, [True] * len(lids)

        pg = RangePartitioner().partition(small_grid, 2)
        engine = Engine(Greedy(), pg, CCQuery())
        before = [mask.tolist() for mask in engine._ship_masks]
        anchor = next(v for v in pg.fragments[0].owned
                      if not pg.fragments[0].locations(v))
        report = grow_edge_cut(pg, [(anchor, 999, 1.0)],
                               assign=lambda v, m: 0)
        with pytest.raises(ProgramError, match="resides nowhere else"):
            engine.refresh_routes(report)
        assert [mask.tolist() for mask in engine._ship_masks] == before
