"""Tests for batched wire transport under fault injection.

The contract: packing entries into a :class:`MessageBatch` must not change
what a chaos plan injects.  Each batch entry consumes one channel index
and receives the same drop/duplicate/delay verdict as the equivalent
unpacked :class:`Message` stream, and the live runtimes terminate cleanly
because the ledger counts logical entries on both sides.
"""

import numpy as np
import pytest

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.messages import Message, MessageBatch, entry_count
from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.faultplan import (DelayFault, DropFault, DuplicateFault,
                                     FaultPlan)


def make_batch(n, src=0, dst=1, round_no=3):
    return MessageBatch(src=src, dst=dst, round=round_no,
                        ids=np.arange(n, dtype=np.int64),
                        payloads=np.arange(n, dtype=np.float64) * 0.5)


def delivered_entries(deliveries):
    """Flatten injector output to sorted (id, payload, delay) triples."""
    out = []
    for msg, delay in deliveries:
        for node, value in msg.entries:
            out.append((node, value, delay))
    return sorted(out)


class TestInjectorBatchUnits:
    def test_no_message_faults_passthrough(self):
        inj = FaultPlan(seed=1).injector()
        batch = make_batch(5)
        assert inj.on_send(batch) == [(batch, 0.0)]

    def test_drop_all(self):
        inj = FaultPlan(seed=1, faults=(DropFault(rate=1.0),)).injector()
        assert inj.on_send(make_batch(6)) == []
        assert sum(1 for r in inj.records if r.kind == "drop") == 6

    def test_partial_drop_preserves_entry_accounting(self):
        inj = FaultPlan(seed=7, faults=(DropFault(rate=0.4),)).injector()
        batch = make_batch(50)
        survived = entry_count(m for m, _ in inj.on_send(batch))
        dropped = sum(1 for r in inj.records if r.kind == "drop")
        assert survived + dropped == 50
        assert 0 < dropped < 50  # statistically certain at rate 0.4, n=50

    def test_duplicate_all_makes_two_wire_batches(self):
        inj = FaultPlan(seed=2,
                        faults=(DuplicateFault(rate=1.0),)).injector()
        out = inj.on_send(make_batch(4))
        assert len(out) == 2
        assert all(len(m) == 4 for m, _ in out)
        assert out[0][0].entries == out[1][0].entries

    def test_delay_groups_by_extra_delay(self):
        inj = FaultPlan(seed=3, faults=(
            DelayFault(rate=0.5, delay=0.05),)).injector()
        out = inj.on_send(make_batch(40))
        delays = sorted({d for _, d in out})
        assert delays == [0.0, 0.05]
        assert entry_count(m for m, _ in out) == 40

    def test_empty_batch_passthrough(self):
        inj = FaultPlan(seed=1, faults=(DropFault(rate=1.0),)).injector()
        batch = make_batch(0)
        assert inj.on_send(batch) == [(batch, 0.0)]

    def test_subbatches_keep_token_and_entry_bytes(self):
        inj = FaultPlan(seed=5, faults=(DropFault(rate=0.5),)).injector()
        batch = MessageBatch(src=0, dst=1, round=1,
                             ids=np.arange(20, dtype=np.int64),
                             payloads=np.zeros(20), token="snap-1",
                             entry_bytes=24)
        for msg, _ in inj.on_send(batch):
            assert msg.token == "snap-1"
            assert msg.entry_bytes == 24
            assert msg.src == 0 and msg.dst == 1 and msg.round == 1


class TestBatchScalarParity:
    """A packed batch gets the identical per-entry verdicts as the same
    entries sent as individual messages on the same channel."""

    PLAN = dict(seed=11, faults=(DropFault(rate=0.3),
                                 DuplicateFault(rate=0.3),
                                 DelayFault(rate=0.3, delay=0.02)))

    def test_entry_fates_match_scalar_path(self):
        n = 60
        batch_out = FaultPlan(**self.PLAN).injector().on_send(
            make_batch(n))
        scalar_inj = FaultPlan(**self.PLAN).injector()
        scalar_out = []
        for node, value in make_batch(n).entries:
            scalar_out.extend(scalar_inj.on_send(
                Message(src=0, dst=1, round=3,
                        entries=((node, value),))))
        assert delivered_entries(batch_out) \
            == delivered_entries(scalar_out)

    def test_same_plan_is_deterministic(self):
        a = FaultPlan(**self.PLAN).injector()
        b = FaultPlan(**self.PLAN).injector()
        assert delivered_entries(a.on_send(make_batch(30))) \
            == delivered_entries(b.on_send(make_batch(30)))
        assert a.records == b.records

    def test_channel_counter_advances_across_batches(self):
        inj = FaultPlan(seed=4, faults=(DropFault(rate=0.5),)).injector()
        first = delivered_entries(inj.on_send(make_batch(20)))
        second = delivered_entries(inj.on_send(make_batch(20)))
        # same ids, different channel indices -> different verdicts
        assert first != second


class TestLiveRuntimeChaos:
    """Vectorized e2e under message chaos: same answer, clean shutdown."""

    PLAN = dict(seed=11, faults=(DuplicateFault(rate=0.3),
                                 DelayFault(rate=0.2, delay=0.01)))

    def _workload(self):
        g = generators.powerlaw(200, m=2, weighted=True, seed=6)
        pg = HashPartitioner().partition(g, 4)
        return g, pg

    def _clean_answer(self, pg):
        from repro import api
        return api.run(SSSPProgram(), pg, SSSPQuery(source=0),
                       mode="AP").answer

    def test_threaded_vectorized_chaos(self):
        from repro.core.engine import Engine
        from repro.core.modes import make_policy
        from repro.runtime.threaded import ThreadedRuntime
        _, pg = self._workload()
        eng = Engine(SSSPProgram(), pg, SSSPQuery(source=0),
                     vectorized=True)
        assert eng.vectorized
        result = ThreadedRuntime(eng, make_policy("AP"),
                                 fault_plan=FaultPlan(**self.PLAN)).run()
        assert result.answer == self._clean_answer(pg)

    def test_multiprocess_vectorized_chaos(self):
        from repro.runtime.multiprocess import MultiprocessRuntime
        _, pg = self._workload()
        rt = MultiprocessRuntime(SSSPProgram(), pg, SSSPQuery(source=0),
                                 mode="AP", vectorized=True,
                                 fault_plan=FaultPlan(**self.PLAN))
        result = rt.run()
        assert result.answer == self._clean_answer(pg)

    def test_multiprocess_stats_count_batches_and_entries(self):
        from repro.runtime.multiprocess import MultiprocessRuntime
        _, pg = self._workload()
        result = MultiprocessRuntime(SSSPProgram(), pg,
                                     SSSPQuery(source=0), mode="AP",
                                     vectorized=True).run()
        # batching: fewer physical messages than logical entries shipped
        assert result.metrics.total_messages > 0
        assert result.metrics.total_bytes > 0


@pytest.mark.parametrize("vectorized", [False, True])
def test_bytes_accounting_is_positive(vectorized):
    """stats['bytes'] stays accurate whichever transport shape is used."""
    from repro.runtime.multiprocess import MultiprocessRuntime
    g = generators.grid2d(8, 8, weighted=True, seed=2)
    pg = HashPartitioner().partition(g, 2)
    result = MultiprocessRuntime(SSSPProgram(), pg, SSSPQuery(source=0),
                                 mode="BSP",
                                 vectorized=vectorized).run()
    assert result.metrics.total_bytes > 0
    assert result.metrics.total_messages > 0
