"""Tests for the zero-copy shared-memory data plane (repro.runtime.slab).

Three layers: ring-level unit tests (wire format, wrap/PAD handling,
torn-read hardening, release discipline), pool/arena lifecycle (fallback
accounting, shutdown hygiene), and end-to-end equivalence — the shm and
queue transports must produce identical answers across every parallel
model, under chaos, and through crash/checkpoint recovery.
"""

import os
import pickle

import numpy as np
import pytest

from repro import api
from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.messages import Message, MessageBatch
from repro.errors import RuntimeConfigError, TransportError
from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner
from repro.runtime import slab
from repro.runtime.faultplan import DelayFault, DuplicateFault, FaultPlan
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.slab import (SlabArena, SlabPool, SlabRing,
                                ShmMessageBatch, channel_name, new_run_id,
                                residual_segments)

pytestmark = pytest.mark.skipif(
    slab._shm_mod is None, reason="multiprocessing.shared_memory missing")


def make_batch(n, src=0, dst=1, round_no=3, token=None, dtype=np.float64):
    return MessageBatch(src=src, dst=dst, round=round_no,
                        ids=np.arange(n, dtype=np.int64),
                        payloads=(np.arange(n) * 0.5).astype(dtype),
                        token=token)


@pytest.fixture
def ring_pair():
    """One channel: producer and consumer endpoints over a small slab."""
    run_id = new_run_id()
    name = channel_name(run_id, 0, 1)
    producer = SlabRing(name, capacity=4096, create=True)
    consumer = SlabRing(name)
    yield producer, consumer
    consumer.close()
    producer.close()
    seg = slab._shm_mod.SharedMemory(name=name)
    seg.close()
    seg.unlink()


class TestRingWireFormat:
    def test_roundtrip_preserves_everything(self, ring_pair):
        producer, consumer = ring_pair
        msg = make_batch(10, token=4)
        assert producer.try_write(msg)
        (got,) = consumer.poll(0, 1)
        assert isinstance(got, ShmMessageBatch)
        np.testing.assert_array_equal(got.ids, msg.ids)
        np.testing.assert_array_equal(got.payloads, msg.payloads)
        assert got.payloads.dtype == msg.payloads.dtype
        assert (got.src, got.dst, got.round) == (0, 1, 3)
        assert got.seq == msg.seq
        assert got.token == 4
        assert got.entry_bytes == msg.entry_bytes

    def test_none_token_roundtrips_as_none(self, ring_pair):
        producer, consumer = ring_pair
        assert producer.try_write(make_batch(3, token=None))
        (got,) = consumer.poll(0, 1)
        assert got.token is None

    def test_fifo_across_multiple_records(self, ring_pair):
        producer, consumer = ring_pair
        for n in (2, 5, 9):
            assert producer.try_write(make_batch(n))
        got = consumer.poll(0, 1)
        assert [len(b) for b in got] == [2, 5, 9]
        assert consumer.drained

    def test_empty_batch_is_writable(self, ring_pair):
        producer, consumer = ring_pair
        assert producer.try_write(make_batch(0))
        (got,) = consumer.poll(0, 1)
        assert len(got) == 0

    @pytest.mark.parametrize("dtype", ["float32", "int64", "int32",
                                       "bool", "uint8"])
    def test_supported_payload_dtypes(self, ring_pair, dtype):
        producer, consumer = ring_pair
        msg = MessageBatch(src=0, dst=1, round=1,
                           ids=np.arange(4, dtype=np.int64),
                           payloads=np.ones(4, dtype=np.dtype(dtype)))
        assert producer.try_write(msg)
        (got,) = consumer.poll(0, 1)
        assert got.payloads.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got.payloads, msg.payloads)

    def test_wrap_inserts_pad_and_preserves_data(self, ring_pair):
        """Records never straddle the ring end: a PAD skips the slack."""
        producer, consumer = ring_pair
        seen = 0
        for i in range(50):  # 50 x ~320B records through a 4KiB ring
            msg = make_batch(16, round_no=i)
            assert producer.try_write(msg), f"ring full at record {i}"
            (got,) = consumer.poll(0, 1)
            assert got.round == i
            np.testing.assert_array_equal(got.ids, msg.ids)
            np.testing.assert_array_equal(got.payloads, msg.payloads)
            consumer.release(got.release_end)
            seen += 1
        assert seen == 50
        assert producer.head > producer.capacity  # really wrapped


#: the bytes one fixed batch puts on the wire (native 64-bit words, as
#: the module docstring lays them out): the 64-byte record header
#: (kind, rec_seq, count, round, seq, token+1, dtype_code, entry_bytes),
#: the int64 ids, the float64 payloads
GOLDEN_RECORD = bytes.fromhex(
    "dac04552000000000000000000000000"  # kind REC_DATA, rec_seq 0
    "03000000000000000700000000000000"  # count 3, round 7
    "2a000000000000000600000000000000"  # seq 42, token 5 + 1
    "01000000000000000c00000000000000"  # float64, entry_bytes 12
    "0b000000000000001600000000000000"  # ids 11, 22
    "2100000000000000000000000000f83f"  # id 33, payload 1.5
    "00000000000004c00000000000c05740")  # payloads -2.5, 95.0


@pytest.mark.skipif(np.little_endian is False,
                    reason="the golden bytes are little-endian")
class TestGoldenRecord:
    """The wire bytes of a ring record, pinned: a change to how the header
    is read or written must leave every byte where it was."""

    def batch(self, round_no=7, seq=42, n=3):
        ids = np.array([11, 22, 33, 44, 55][:n], dtype=np.int64)
        payloads = np.array([1.5, -2.5, 95.0, 0.0, 1.0][:n])
        return MessageBatch(src=0, dst=1, round=round_no, ids=ids,
                            payloads=payloads, seq=seq, token=5,
                            entry_bytes=12)

    def test_one_record_header_and_payload(self, ring_pair):
        producer, consumer = ring_pair
        assert producer.try_write(self.batch())
        at = slab.HEADER_BYTES
        assert bytes(producer._shm.buf[at:at + len(GOLDEN_RECORD)]) \
            == GOLDEN_RECORD
        # 64 + 3 * 8 + 3 * 8 bytes, rounded up to the 64-byte alignment
        assert producer.head == 128
        (got,) = consumer.poll(0, 1)
        assert (got.round, got.seq, got.token, got.entry_bytes,
                got.release_end) == (7, 42, 5, 12, 128)

    def test_pad_record_words(self, ring_pair):
        """At the ring's end a PAD record writes its kind and length; the
        record after it starts the buffer again with the next rec_seq."""
        producer, consumer = ring_pair
        for i in range(21):  # 21 records of 192 bytes in a 4,096-byte ring
            assert producer.try_write(self.batch(round_no=i, seq=i, n=5))
            consumer.release(consumer.poll(0, 1)[0].release_end)
        assert producer.try_write(self.batch(round_no=99, seq=43, n=5))
        words = np.frombuffer(bytes(producer._shm.buf), dtype=np.uint64)
        pad = (slab.HEADER_BYTES + 21 * 192) // 8
        assert (words[pad].item(), words[pad + 2].item()) \
            == (slab.REC_PAD, 4096 - 21 * 192)
        first = slab.HEADER_BYTES // 8
        assert words[first:first + 8].tolist() == [
            slab.REC_DATA, 21, 5, 99, 43, 6, 1, 12]
        assert producer.head == 4096 + 192
        (got,) = consumer.poll(0, 1)
        assert (got.round, got.seq) == (99, 43)


class TestRingFallbacks:
    def test_full_ring_returns_false_not_blocks(self, ring_pair):
        producer, _ = ring_pair
        wrote = 0
        while producer.try_write(make_batch(16)):
            wrote += 1
            assert wrote < 100  # 4 KiB ring must fill well before this
        assert wrote > 0
        assert not producer.try_write(make_batch(16))

    def test_oversized_batch_returns_false(self, ring_pair):
        producer, _ = ring_pair
        assert not producer.try_write(make_batch(4096))

    def test_exotic_dtype_returns_false(self, ring_pair):
        producer, _ = ring_pair
        msg = MessageBatch(src=0, dst=1, round=1,
                           ids=np.arange(3, dtype=np.int64),
                           payloads=np.ones(3, dtype=np.complex128))
        assert not producer.try_write(msg)

    def test_non_native_byte_order_arrives_with_its_values(self, ring_pair):
        """A big-endian ``>f8`` payload is not the wire's native float64:
        the ring refuses it, so the pickled lane carries it, values and
        all (read as native float64 they were denormal garbage)."""
        producer, consumer = ring_pair
        values = np.array([1.5, 2.25, 3.0], dtype=">f8")
        msg = MessageBatch(src=0, dst=1, round=1,
                           ids=np.arange(3, dtype=np.int64), payloads=values)
        got = consumer.poll(0, 1)[0] if producer.try_write(msg) \
            else pickle.loads(pickle.dumps(msg))
        assert got.payloads.tolist() == [1.5, 2.25, 3.0]
        assert producer.head == 0

    def test_non_integer_token_returns_false(self, ring_pair):
        producer, _ = ring_pair
        assert not producer.try_write(make_batch(3, token="snap-1"))

    def test_rejected_write_leaves_ring_intact(self, ring_pair):
        producer, consumer = ring_pair
        head_before = producer.head
        assert not producer.try_write(make_batch(3, token="snap-1"))
        assert producer.head == head_before
        assert consumer.poll(0, 1) == []


class TestTornReadHardening:
    def test_released_position_raises_typed_error(self, ring_pair):
        """A stale descriptor pointing below the tail must not produce a
        garbage view — the regression this hardening exists for."""
        producer, consumer = ring_pair
        producer.try_write(make_batch(8))
        (got,) = consumer.poll(0, 1)
        consumer.release(got.release_end)
        with pytest.raises(TransportError, match="stale slab descriptor"):
            consumer.open(0, 0, 1)

    def test_position_past_head_raises(self, ring_pair):
        _, consumer = ring_pair
        with pytest.raises(TransportError, match="stale slab descriptor"):
            consumer.open(0, 0, 1)

    def test_corrupt_record_magic_raises(self, ring_pair):
        producer, consumer = ring_pair
        producer.try_write(make_batch(4))
        # stomp the record's kind word as a crashed writer might
        hdr = np.frombuffer(producer._shm.buf, dtype=np.uint64, count=8,
                            offset=slab.HEADER_BYTES)
        hdr[0] = 0xDEAD
        with pytest.raises(TransportError, match="record magic"):
            consumer.poll(0, 1)

    def test_unknown_dtype_code_raises(self, ring_pair):
        producer, consumer = ring_pair
        producer.try_write(make_batch(4))
        hdr = np.frombuffer(producer._shm.buf, dtype=np.uint64, count=8,
                            offset=slab.HEADER_BYTES)
        hdr[6] = 250  # dtype_code field: no such encoding
        with pytest.raises(TransportError, match="dtype code"):
            consumer.poll(0, 1)

    def test_record_generation_mismatch_raises(self, ring_pair):
        producer, consumer = ring_pair
        producer.try_write(make_batch(4))
        with pytest.raises(TransportError, match="generation mismatch"):
            consumer.open(0, 0, 1, rec_seq=7)

    def test_attach_to_uninitialised_segment_raises(self):
        seg = slab._shm_mod.SharedMemory(
            name=f"reproshm_test_{new_run_id()}", create=True, size=1024)
        try:
            with pytest.raises(TransportError, match="bad magic"):
                SlabRing(seg.name)
        finally:
            seg.close()
            seg.unlink()


class TestReleaseDiscipline:
    def test_release_beyond_cursor_raises(self, ring_pair):
        producer, consumer = ring_pair
        producer.try_write(make_batch(4))
        with pytest.raises(TransportError, match="beyond read cursor"):
            consumer.release(producer.head)

    def test_stale_release_does_not_rewind_tail(self, ring_pair):
        producer, consumer = ring_pair
        for _ in range(2):
            producer.try_write(make_batch(4))
        first, second = consumer.poll(0, 1)
        consumer.release(second.release_end)
        tail = consumer.tail
        consumer.release(first.release_end)  # stale: must be a no-op
        assert consumer.tail == tail


class TestShmBatchSemantics:
    def test_pickle_materialises_owned_plain_batch(self, ring_pair):
        """Checkpoint state shipped to the master must not dangle into a
        slab the master never mapped."""
        producer, consumer = ring_pair
        producer.try_write(make_batch(6, token=2))
        (got,) = consumer.poll(0, 1)
        clone = pickle.loads(pickle.dumps(got))
        assert type(clone) is MessageBatch  # not the shm subclass
        np.testing.assert_array_equal(clone.ids, got.ids)
        np.testing.assert_array_equal(clone.payloads, got.payloads)
        assert clone.token == 2 and clone.seq == got.seq
        # the clone owns its arrays: releasing the ring can't corrupt it
        before = clone.ids.copy()
        consumer.release(got.release_end)
        producer.try_write(make_batch(6, round_no=99))
        np.testing.assert_array_equal(clone.ids, before)

    def test_len_counts_logical_entries(self, ring_pair):
        producer, consumer = ring_pair
        producer.try_write(make_batch(7))
        (got,) = consumer.poll(0, 1)
        assert len(got) == 7  # the termination ledger's currency
        assert got.entries == make_batch(7).entries


class TestPoolAndArena:
    def test_generic_message_falls_back_to_queue_plane(self):
        arena = SlabArena(2, 1 << 16)
        try:
            pool = SlabPool(arena.run_id, 0, 2)
            msg = Message(src=0, dst=1, round=1, entries=((5, 1.0),))
            assert not pool.try_send(msg)
            assert pool.fallbacks == 1
            assert pool.sent_batches == 0
            pool.close()
        finally:
            arena.unlink_all()

    def test_pool_counters_track_sent_traffic(self):
        arena = SlabArena(2, 1 << 16)
        try:
            sender = SlabPool(arena.run_id, 0, 2)
            receiver = SlabPool(arena.run_id, 1, 2)
            msg = make_batch(5)
            assert sender.try_send(msg)
            assert sender.sent_batches == 1
            assert sender.sent_bytes == msg.size_bytes
            (got,) = receiver.poll()
            assert len(got) == 5
            assert receiver.drained
            receiver.release([got])
            del got  # a live view would keep the mapping open
            sender.close()
            receiver.close()
        finally:
            arena.unlink_all()

    def test_unlink_all_sweeps_every_segment(self):
        arena = SlabArena(4, 1 << 16)
        assert len(residual_segments(arena.run_id)) == 12  # 4x3 mesh
        removed = arena.unlink_all()
        assert removed == 12
        assert residual_segments(arena.run_id) == []

    def test_unlink_all_is_idempotent(self):
        arena = SlabArena(2, 1 << 16)
        assert arena.unlink_all() == 2
        assert arena.unlink_all() == 0


class TestTransportConfig:
    def test_unknown_transport_rejected(self, partitioned_grid):
        with pytest.raises(RuntimeConfigError, match="transport"):
            MultiprocessRuntime(SSSPProgram(), partitioned_grid,
                                SSSPQuery(source=0), transport="carrier")

    def test_queue_transport_reports_zero_shm_traffic(self):
        g = generators.grid2d(8, 8, weighted=True, seed=2)
        pg = HashPartitioner().partition(g, 2)
        result = MultiprocessRuntime(SSSPProgram(), pg,
                                     SSSPQuery(source=0), mode="AP",
                                     vectorized=True,
                                     transport="queue").run()
        t = result.extras["transport"]
        assert t["kind"] == "queue"
        assert t["shm_batches"] == 0 and t["shm_bytes"] == 0

    def test_shm_transport_carries_the_vectorized_traffic(self):
        g = generators.powerlaw(200, m=2, weighted=True, seed=6)
        pg = HashPartitioner().partition(g, 4)
        result = MultiprocessRuntime(SSSPProgram(), pg,
                                     SSSPQuery(source=0), mode="AP",
                                     vectorized=True,
                                     transport="shm").run()
        t = result.extras["transport"]
        assert t["kind"] == "shm"
        assert t["shm_batches"] > 0
        assert t["shm_bytes"] > 0


class TestTransportEquivalence:
    """Same answer on both planes, across every parallel model."""

    @pytest.fixture(scope="class")
    def workload(self):
        g = generators.powerlaw(200, m=2, weighted=True, seed=6)
        pg = HashPartitioner().partition(g, 4)
        ref = api.run(SSSPProgram(), pg, SSSPQuery(source=0),
                      mode="AP").answer
        return pg, ref

    @pytest.mark.parametrize("mode", ["BSP", "AP", "SSP", "AAP", "Hsync"])
    def test_shm_matches_queue_answer(self, workload, mode):
        pg, ref = workload
        for transport in ("shm", "queue"):
            result = MultiprocessRuntime(
                SSSPProgram(), pg, SSSPQuery(source=0), mode=mode,
                vectorized=True, transport=transport, timeout=60.0).run()
            assert result.answer == ref, (mode, transport)

    def test_generic_path_rides_queue_plane_unchanged(self, workload):
        pg, ref = workload
        result = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AP",
            vectorized=False, transport="shm", timeout=60.0).run()
        assert result.answer == ref


class TestShmChaos:
    """Chaos + recovery parity: the fault-injection seam sits above both
    planes, so a chaos plan injects the same events either way."""

    PLAN = dict(seed=11, faults=(DuplicateFault(rate=0.3),
                                 DelayFault(rate=0.2, delay=0.01)))

    def _workload(self):
        g = generators.powerlaw(200, m=2, weighted=True, seed=6)
        pg = HashPartitioner().partition(g, 4)
        ref = api.run(SSSPProgram(), pg, SSSPQuery(source=0),
                      mode="AP").answer
        return pg, ref

    def test_message_chaos_preserves_answer_on_shm(self):
        pg, ref = self._workload()
        result = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AP",
            vectorized=True, transport="shm",
            fault_plan=FaultPlan(**self.PLAN), timeout=60.0).run()
        assert result.answer == ref

    def test_crash_recovery_under_shm_leaves_no_segments(self):
        from repro.fuzz import Cell, run_cell
        verdict = run_cell(Cell(
            graph_params={"rows": 12, "cols": 12}, runtime="multiprocess",
            faults=("crash:0:4",), fault_seed=1, checkpoint_interval=0.01,
            heartbeat_interval=0.005, heartbeat_timeout=0.5))
        assert verdict.ok
        assert verdict.recoveries >= 1
        # the crashed attempt's arena must have been swept too
        assert residual_segments(f"{os.getpid()}-") == []


class TestStatsAudit:
    """Each logical entry is counted exactly once on the send side,
    whichever plane carried it, and send events match deliver events."""

    def test_send_deliver_counts_match_under_shm(self):
        from repro.obs import Observer
        from repro.obs import events as obs_events
        g = generators.powerlaw(200, m=2, weighted=True, seed=6)
        pg = HashPartitioner().partition(g, 4)
        obs = Observer()
        MultiprocessRuntime(SSSPProgram(), pg, SSSPQuery(source=0),
                            mode="AP", vectorized=True, transport="shm",
                            observer=obs, timeout=60.0).run()
        records = obs.log.events
        sends = [r for r in records if r.type == obs_events.MSG_SEND]
        delivers = [r for r in records
                    if r.type == obs_events.MSG_DELIVER]
        assert len(sends) > 0
        assert len(sends) == len(delivers)
        sent_bytes = sum(r.payload["bytes"] for r in sends)
        dlv_bytes = sum(r.payload["bytes"] for r in delivers)
        assert sent_bytes == dlv_bytes

    def test_duplicate_fates_increment_sent_entries(self):
        from repro.obs import Observer
        from repro.obs import events as obs_events
        g = generators.powerlaw(200, m=2, weighted=True, seed=6)
        pg = HashPartitioner().partition(g, 4)
        plain = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AP",
            vectorized=True, transport="shm", timeout=60.0).run()
        obs = Observer()
        dup = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AP",
            vectorized=True, transport="shm", observer=obs,
            fault_plan=FaultPlan(seed=3,
                                 faults=(DuplicateFault(rate=1.0),)),
            timeout=60.0).run()
        # rate=1.0 duplicates every logical wire message exactly once:
        # one fault_injected event and two MSG_SEND events per logical
        # message, however many rounds this particular schedule took
        # (cross-run traffic totals are schedule-dependent; this 2:1
        # relationship is not)
        records = obs.log.events
        dups = [r for r in records
                if r.type == obs_events.FAULT_INJECTED
                and r.payload["fault"] == "duplicate"]
        sends = [r for r in records if r.type == obs_events.MSG_SEND]
        assert len(dups) > 0
        assert len(sends) == 2 * len(dups)
        assert dup.answer == plain.answer
