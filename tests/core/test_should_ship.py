"""Tests for the should_ship hook and held-back change semantics."""

from repro.algorithms import CCProgram, CCQuery, PageRankProgram, \
    PageRankQuery
from repro.core.engine import Engine
from repro.graph import generators
from repro.partition.edge_cut import RangePartitioner


def shipped(program, pg):
    """The nodes of fragment 0 whose changes the program's rule ships."""
    frag = pg.fragments[0]
    _, ship_mask = program.routes(pg, frag)
    return set(frag._arrays.gids[ship_mask].tolist())


class TestHoldBack:
    def test_held_nodes_stay_marked(self, small_grid):
        """A program that refuses to ship keeps the change marked so a
        later round can reconsider it."""

        class Stingy(CCProgram):
            def should_ship(self, frag, ctx, v):
                return False

        pg = RangePartitioner().partition(small_grid, 2)
        engine = Engine(Stingy(), pg, CCQuery())
        out = engine.run_peval(0)
        assert out.messages == []
        ctx = engine.contexts[0]
        # the shippable changes were put back
        assert ctx.changed & shipped(Stingy(), pg)

    def test_default_ships_everything(self, small_grid):
        pg = RangePartitioner().partition(small_grid, 2)
        engine = Engine(CCProgram(), pg, CCQuery())
        out = engine.run_peval(0)
        assert out.messages
        assert not engine.contexts[0].changed & shipped(CCProgram(), pg)

    def test_pagerank_thresholds_tiny_deltas(self):
        """PageRank's should_ship suppresses sub-threshold mirror deltas,
        reducing messages with a bounded accuracy cost."""
        g = generators.powerlaw(200, m=2, seed=9)
        from repro import api
        coarse = api.run(PageRankProgram(), g,
                         PageRankQuery(epsilon=1.0, num_nodes=200),
                         num_fragments=4)
        fine = api.run(PageRankProgram(), g,
                       PageRankQuery(epsilon=1e-3, num_nodes=200),
                       num_fragments=4)
        assert coarse.metrics.total_messages < fine.metrics.total_messages
