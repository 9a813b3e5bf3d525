"""Tests for the dense (vectorized) fragment state and packed messages."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms import (CFProgram, CFQuery, SSSPProgram, SSSPQuery)
from repro.core.dense import DenseContext, supports_dense
from repro.core.engine import Engine
from repro.core.messages import (ENVELOPE_BYTES, Message, MessageBatch,
                                 entry_count, group_entries)
from repro.errors import ProgramError
from repro.graph import generators
from repro.graph.graph import Graph


@pytest.fixture
def pg(small_grid):
    return api.partition_graph(small_grid, 3)


@pytest.fixture
def dense_ctx(pg):
    program = SSSPProgram()
    return program.make_dense_context(pg.fragments[0],
                                      SSSPQuery(source=0))


class TestSupportsDense:
    def test_sssp_on_int_ids(self, pg):
        assert supports_dense(SSSPProgram(), pg)

    def test_mapping_reads_use_fragment(self, pg):
        frag = pg.fragments[0]
        ctx = SSSPProgram().make_dense_context(frag, SSSPQuery(source=0))
        by_node = dict(zip(ctx.view.gids.tolist(), ctx.array.tolist()))
        assert set(by_node) == set(frag.graph.nodes)
        assert len(ctx.array) == len(by_node)

    def test_cf_not_dense_capable(self, pg):
        assert not supports_dense(CFProgram(), pg)

    def test_string_ids_fall_back(self):
        g = Graph(directed=False)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 2.0)
        pg = api.partition_graph(g, 2)
        assert not supports_dense(SSSPProgram(), pg)

    def test_engine_falls_back_silently(self):
        g = Graph(directed=False)
        g.add_edge("a", "b", 1.0)
        pg = api.partition_graph(g, 1)
        eng = Engine(SSSPProgram(), pg, SSSPQuery(source="a"),
                     vectorized=True)
        assert not eng.vectorized

    def test_fallback_answer_matches_generic(self):
        g = Graph(directed=False)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 2.0)
        r_gen = api.run(SSSPProgram(), g, SSSPQuery(source="a"),
                        num_fragments=2)
        r_vec = api.run(SSSPProgram(), g, SSSPQuery(source="a"),
                        num_fragments=2, vectorized=True)
        assert r_gen.answer == r_vec.answer

    def test_cf_vectorized_flag_is_noop(self):
        g, _, _ = generators.bipartite_ratings(12, 8, 4, rank=3, seed=3)
        query = CFQuery(rank=3, epochs=2)
        r_gen = api.run(CFProgram(), g, query, num_fragments=2)
        r_vec = api.run(CFProgram(), g, query, num_fragments=2,
                        vectorized=True)
        assert r_gen.answer == r_vec.answer


class TestDenseScalarAccess:
    def test_scalar_access_is_generic_only(self, dense_ctx):
        """A dense context has no ``values`` / ``changed``: node-keyed
        reads and writes are the generic context's alone."""
        v = int(dense_ctx.view.gids[0])
        for op in (lambda: dense_ctx.get(v),
                   lambda: dense_ctx.set(v, 1.0),
                   lambda: dense_ctx.set_silent(v, 1.0),
                   lambda: dense_ctx.update(v, 1.0),
                   lambda: dense_ctx.take_changed(),
                   lambda: dense_ctx.values,
                   lambda: dense_ctx.changed):
            with pytest.raises(AttributeError):
                op()

    def test_unknown_node_raises(self, dense_ctx):
        with pytest.raises(ProgramError, match="no status variable"):
            dense_ctx.load_values({"ghost": 1.0})

    def test_init_values_seeded(self, pg):
        frag = next(f for f in pg.fragments if f.graph.has_node(0))
        ctx = SSSPProgram().make_dense_context(frag, SSSPQuery(source=0))
        dist = dict(zip(ctx.view.gids.tolist(), ctx.array.tolist()))
        assert dist.pop(0) == 0.0
        assert all(d == math.inf for d in dist.values())

    def test_is_fragment_context_subclass(self, dense_ctx):
        from repro.core.pie import FragmentContext
        assert isinstance(dense_ctx, FragmentContext)
        assert isinstance(dense_ctx, DenseContext)


class TestRecordedState:
    """``export_state`` / ``import_state``: the one way a context's state
    is recorded and restored, for either kind."""

    def test_dense_state_is_an_owned_copy_of_the_array(self, dense_ctx):
        state = dense_ctx.export_state()
        assert isinstance(state, np.ndarray)
        assert np.array_equal(state, dense_ctx.array)
        dense_ctx.array[0] = -123.0
        assert state[0] != -123.0

    def test_dense_import_copies_and_clears_the_mask(self, dense_ctx):
        state = np.arange(len(dense_ctx.array), dtype=float)
        dense_ctx.mask[:] = True
        dense_ctx.import_state(state)
        assert np.array_equal(dense_ctx.array, state)
        assert not dense_ctx.mask.any()
        state[0] = -1.0  # loaded, not aliased
        assert dense_ctx.array[0] == 0.0

    def test_dense_import_refuses_another_shape(self, dense_ctx, pg):
        with pytest.raises(ProgramError, match="does not match"):
            dense_ctx.import_state(np.zeros(len(dense_ctx.array) + 1))
        generic = SSSPProgram().make_context(pg.fragments[0],
                                             SSSPQuery(source=0))
        with pytest.raises(ProgramError, match="does not match"):
            dense_ctx.import_state(generic.export_state())

    def test_generic_round_trip_copies_deeply(self, pg):
        ctx = SSSPProgram().make_context(pg.fragments[0],
                                         SSSPQuery(source=0))
        u, v = list(ctx.values)[:2]
        ctx.set_silent(u, [1.0])  # a mutable status variable
        state = ctx.export_state()
        assert state == ctx.values and state[u] is not ctx.values[u]
        ctx.set(v, -1.0)
        assert ctx.changed == {v} and state[v] != -1.0
        ctx.import_state(state)
        assert ctx.values == state and ctx.changed == set()
        assert ctx.values[u] is not state[u]


class TestMessageBatch:
    def _batch(self, n=4, **kw):
        return MessageBatch(src=0, dst=1, round=2,
                            ids=np.arange(n, dtype=np.int64),
                            payloads=np.linspace(0.0, 1.0, n), **kw)

    def test_len_is_entry_count(self):
        assert len(self._batch(5)) == 5
        assert entry_count([self._batch(3), self._batch(2)]) == 5

    def test_entries_property_unpacks(self):
        b = self._batch(3)
        assert b.entries == ((0, 0.0), (1, 0.5), (2, 1.0))

    def test_size_bytes_is_packed(self):
        b = self._batch(100)
        assert b.size_bytes == ENVELOPE_BYTES + b.ids.nbytes \
            + b.payloads.nbytes
        # packing amortises the envelope vs 100 unpacked messages
        unpacked = sum(
            Message(src=0, dst=1, round=2, entries=((i, 0.0),)).size_bytes
            for i in range(100))
        assert b.size_bytes < unpacked

    def test_group_entries_accepts_batches(self):
        grouped = group_entries([self._batch(3)])
        assert grouped == {0: [0.0], 1: [0.5], 2: [1.0]}

    def test_mixed_entry_count(self):
        m = Message(src=0, dst=1, round=0, entries=((7, 1.0),))
        assert entry_count([m, self._batch(2)]) == 3


@st.composite
def id_layouts(draw):
    """Node ids (dense, or reaching 10**12), fragments, the ids growth
    appends (inside the span or beyond it) and the ids to look up."""
    n = draw(st.integers(2, 30))
    dense = draw(st.booleans())
    top = 3 * n if dense else 10 ** 12
    ids = draw(st.lists(st.integers(0, top), min_size=n, max_size=n,
                        unique=True))
    if not dense:
        ids.append(10 ** 12 + 1)  # so the span is sparse for sure
    low, high = min(ids), max(ids)
    fresh = st.integers(0, high + 5).filter(lambda v: v not in ids)
    grown = draw(st.lists(st.one_of(fresh, st.integers(high + 1, 10 ** 13)),
                          max_size=12, unique=True))
    probes = [low - 1, high + 1, -1, -(10 ** 12), 2 ** 62]
    probes += draw(st.lists(st.integers(-5, high + 5), min_size=20,
                            max_size=40))
    return ids, draw(st.integers(1, 3)), grown, probes


class TestLidLookup:
    """Global id -> lid: a table indexed by id where the ids are dense,
    ``searchsorted`` where they are not, so nothing is sized by an id
    beyond :data:`LID_TABLE_SPAN` per node; the ``lid_of`` dict is the
    scalar facade's alone."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(id_layouts())
    def test_lookups_equal_a_dict(self, layout):
        """``lids_for`` (an array of more than ``FEW_LOOKUPS`` ids) and
        ``lid`` agree with ``{id: lid}`` read off the node table: on the
        built fragment, after growth appended ids inside and outside its
        span, and after ``merge()`` folded them in."""
        from repro.partition.edge_cut import HashPartitioner
        from repro.graph.csr import LID_TABLE_SPAN
        from repro.partition.fragment import FEW_LOOKUPS
        from repro.partition.grow import grow_edge_cut
        ids, m, grown, probes = layout
        g = Graph(directed=False)
        for u, v in zip(ids, ids[1:]):
            g.add_edge(u, v, 1.0)
        pg = HashPartitioner().partition(g, m)

        def check():
            for frag in pg:
                view = frag.compact()
                oracle = dict(zip(view.gids.tolist(), range(len(view))))
                asked = np.array(probes + list(oracle) + grown,
                                 dtype=np.int64)
                assert asked.size > FEW_LOOKUPS
                want = [oracle.get(v, -1) for v in asked.tolist()]
                assert view.lids_for(asked).tolist() == want
                assert [-1 if view.lid(v) is None else view.lid(v)
                        for v in asked.tolist()] == want
                if view._lid_table is not None:
                    assert view._lid_table[1].size \
                        <= LID_TABLE_SPAN * len(view)

        check()
        grow_edge_cut(pg, [(ids[k % len(ids)], v, 1.0)
                           for k, v in enumerate(grown)])
        check()
        for frag in pg:
            frag.compact().merge()
        check()

    def sparse_path(self):
        # ids a table indexed by id cannot hold: 10**12 slots of int64
        ids = [0, 1, 2, 3] + [10 ** 12 + i for i in range(4)]
        g = Graph(directed=False)
        for u, v in zip(ids, ids[1:]):
            g.add_edge(u, v, 1.5)
        return g

    def test_sparse_ids_run_on_the_dense_path(self):
        """Regression: the first message used to die with ``MemoryError:
        Unable to allocate 7.28 TiB`` inside ``lids_for``."""
        from repro.core.fixpoint import run_sequential_fixpoint
        from repro.core.modes import make_policy
        from repro.partition.edge_cut import HashPartitioner
        from repro.runtime.threaded import ThreadedRuntime
        g = self.sparse_path()
        pg = HashPartitioner().partition(g, 2)
        query = SSSPQuery(0)
        generic = run_sequential_fixpoint(Engine(SSSPProgram(), pg, query))
        assert generic[10 ** 12 + 3] == 7 * 1.5
        engine = Engine(SSSPProgram(), pg, query, vectorized=True)
        assert engine.vectorized
        assert run_sequential_fixpoint(engine) == generic
        threaded = ThreadedRuntime(
            Engine(SSSPProgram(), pg, query, vectorized=True),
            make_policy("AAP"), timeout=60).run()
        assert threaded.answer == generic

    def test_lids_for_marks_non_local_ids(self, pg):
        view = pg.fragments[0].compact()
        local = view.gids[[0, len(view) - 1, len(view) // 2]]
        missing = sorted(set(range(-2, int(view.gids[-1]) + 3))
                         - set(view.gids.tolist()))
        asked = np.concatenate([local, np.asarray(missing, dtype=np.int64)])
        got = view.lids_for(asked)
        assert got[:3].tolist() == [0, len(view) - 1, len(view) // 2]
        assert (got[3:] == -1).all()
        assert view.lids_for(np.empty(0, dtype=np.int64)).size == 0

    def test_non_local_update_is_still_a_program_error(self, pg):
        engine = Engine(SSSPProgram(), pg, SSSPQuery(source=0),
                        vectorized=True)
        stranger = int(max(pg.owner)) + 5
        batch = MessageBatch(src=1, dst=0, round=1,
                             ids=np.asarray([stranger], dtype=np.int64),
                             payloads=np.asarray([1.0]))
        with pytest.raises(ProgramError,
                           match=f"non-local node {stranger}"):
            engine.run_inceval(0, [batch], round_no=1)

    def test_single_node_lookup_matches_the_dict(self, pg):
        view = pg.fragments[1].compact()
        for v in (*view.gids.tolist(), -1, 10 ** 15, 2.0, 2.5, "a", None,
                  (1, 2), np.int64(int(view.gids[0]))):
            assert view.lid(v) == view.lid_of.get(v), repr(v)

    def test_seeding_sssp_builds_no_dict(self, pg):
        ctx = SSSPProgram().make_dense_context(pg.fragments[0],
                                               SSSPQuery(source=0))
        assert ctx.array.min() == 0.0 or 0 not in ctx.view.gids
        assert not ctx.view.built
        assert ctx.view.lid_of[int(ctx.view.gids[0])] == 0  # a node lookup
        assert ctx.view.built
