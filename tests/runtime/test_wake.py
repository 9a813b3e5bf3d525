"""Wake-up semantics of the multiprocess runtime, by counts not clocks.

Three layers: the ring doorbell contract (a hint, never the truth — no
batch lost or delivered twice whatever the bell does), the pipe lanes
(framing survives partial writes, torn tails and full pipes), and the
protocol (no barrier / probe / stop decision on an idle timeout, O(1)
empty wake-ups per round, busy/idle seconds reported).
"""

import fcntl
import multiprocessing as mp
import os
import select
import threading

import numpy as np
import pytest

from repro import api
from repro.algorithms import (CCProgram, CCQuery, SSSPProgram,
                              SSSPQuery)
from repro.core.messages import MessageBatch
from repro.graph import analysis, generators
from repro.obs import Observer
from repro.runtime.lane import Lane
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.slab import SlabArena

#: generous: a wait that needs this long has hung, and fails on its
#: return value (what woke it), never on how long it took
LONG = 30.0


def batch(n, src=0, dst=1, seq=0):
    return MessageBatch(src=src, dst=dst, round=1, seq=seq,
                        ids=np.arange(n, dtype=np.int64),
                        payloads=np.full(n, float(seq)))


@pytest.fixture
def pools():
    """Sender (worker 0) and receiver (worker 1) over one arena."""
    arena = SlabArena(2, 1 << 16)
    made = [arena.pool(0), arena.pool(1)]
    try:
        yield (*made, arena)
    finally:
        for pool in made:
            pool.close()
        arena.unlink_all()


def rang(pool, timeout):
    ready, _ = pool.wait(timeout)
    return pool.bell in ready


class TestDoorbellContract:
    def test_bell_before_wait(self, pools):
        sender, receiver, _ = pools
        assert sender.try_send(batch(4))
        assert rang(receiver, LONG)
        assert [len(b) for b in receiver.poll()] == [4]
        assert receiver.poll() == []  # not delivered twice
        assert not rang(receiver, 0)  # the bell was emptied

    def test_bell_during_wait(self, pools):
        sender, receiver, _ = pools
        waiting = threading.Event()

        def late_sender():
            waiting.wait(LONG)
            sender.try_send(batch(3))

        t = threading.Thread(target=late_sender)
        t.start()
        waiting.set()
        assert rang(receiver, LONG)
        t.join(LONG)
        assert not t.is_alive()
        assert [len(b) for b in receiver.poll()] == [3]

    def test_coalesced_bells_deliver_every_batch_once(self, pools):
        sender, receiver, _ = pools
        for seq in range(5):
            assert sender.try_send(batch(2, seq=seq))
        assert rang(receiver, LONG)  # five bytes, one wake-up
        assert [b.seq for b in receiver.poll()] == [0, 1, 2, 3, 4]
        assert not rang(receiver, 0)
        assert receiver.poll() == []

    def test_full_bell_pipe_neither_blocks_nor_loses(self, pools):
        sender, receiver, arena = pools
        bell_w = arena.doorbells[1][1]
        with pytest.raises(BlockingIOError):
            while True:
                os.write(bell_w, b"\0" * 4096)
        assert sender.try_send(batch(6))  # the byte is dropped, not the batch
        assert rang(receiver, LONG)
        assert [len(b) for b in receiver.poll()] == [6]

    def test_lost_bell_delays_but_does_not_lose(self, pools):
        sender, receiver, _ = pools
        sender._peer_bells = {}  # a sender whose bell never arrives
        assert sender.try_send(batch(5))
        assert not rang(receiver, 0.01)  # the wait times out ...
        assert [len(b) for b in receiver.poll()] == [5]  # ... head is truth

    def test_bell_with_nothing_published(self, pools):
        _, receiver, arena = pools
        os.write(arena.doorbells[1][1], b"\0")
        assert rang(receiver, LONG)
        assert receiver.poll() == []
        assert not rang(receiver, 0)

    def test_replacement_inherits_stale_bytes(self, pools):
        sender, receiver, arena = pools
        # the dead incarnation left its bell ringing and its rings dirty
        assert sender.try_send(batch(9))
        arena.reset_worker(1)
        replacement = arena.pool(1)
        try:
            assert rang(replacement, LONG)  # stale byte: one empty poll
            assert replacement.poll() == []
            assert not rang(replacement, 0)
            sender.rejoin_peer(1)
            assert sender.try_send(batch(2, seq=7))
            assert rang(replacement, LONG)
            assert [(len(b), b.seq)
                    for b in replacement.poll()] == [(2, 7)]
            assert replacement.poll() == []
        finally:
            replacement.close()

    def test_wait_also_watches_the_callers_pipes(self, pools):
        _, receiver, _ = pools
        lane = Lane()
        try:
            lane.send("cmd")
            ready, _ = receiver.wait(LONG, [lane])
            assert ready == [lane]
            assert lane.get_all() == ["cmd"]
        finally:
            lane.close()


@pytest.fixture
def lane():
    made = Lane()
    yield made
    made.close()


class TestLane:
    def test_round_trip_keeps_order(self, lane):
        for i in range(100):
            lane.put(("evt", i))
        assert lane.get_all() == []  # nothing before the flush
        assert lane.flush()
        assert lane.get_all() == [("evt", i) for i in range(100)]
        assert lane.get_all() == []
        assert lane.empty()

    def test_message_larger_than_the_pipe(self, lane):
        big = np.arange(200_000, dtype=np.int64)  # 1.6 MB >> 64 KB pipe
        lane.put(("big", big))
        got = []
        while not got:
            lane.flush(block=False)
            assert lane.backlog or not lane.empty()
            got = lane.get_all()
        assert not lane.backlog
        assert got[0][0] == "big" and np.array_equal(got[0][1], big)

    @pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"),
                        reason="pipe sizes are Linux's")
    def test_send_writes_a_report_sized_frame_in_one_go(self, lane):
        """A frame larger than the pipe (a worker's final report) leaves
        ``send`` without anybody reading: the pipe grew to hold it.  Small
        frames, and the data lanes' ``put`` / ``flush``, leave the pipe's
        size alone."""
        size = fcntl.fcntl(lane.wfd, fcntl.F_GETPIPE_SZ)
        lane.send("small")
        lane.put(("data", np.arange(25_000, dtype=np.int64)))
        lane.flush(block=False)
        assert fcntl.fcntl(lane.wfd, fcntl.F_GETPIPE_SZ) == size
        got = []
        while len(got) < 2:
            got += lane.get_all()
            lane.flush(block=False)
        report = np.arange(25_000, dtype=np.int64)  # 200 KB
        sender = threading.Thread(target=lane.send, args=(("done", report),))
        sender.start()
        sender.join(timeout=LONG)
        whole = not sender.is_alive()
        while len(got) < 3:  # lets a sender still waiting finish
            got += lane.get_all()
        sender.join(timeout=LONG)
        assert whole
        assert fcntl.fcntl(lane.wfd, fcntl.F_GETPIPE_SZ) >= report.nbytes
        assert got[0] == "small" and got[2][0] == "done"
        assert np.array_equal(got[2][1], report)

    def test_torn_tail_is_discarded_and_framing_resumes(self, lane):
        lane.send("whole")
        lane.put("torn" * 1000)
        os.write(lane.wfd, bytes(lane._out[:100]))  # producer died here
        lane._out.clear()
        assert lane.get_all() == ["whole"]
        lane.discard()
        assert lane.empty()
        lane.send("after")
        assert lane.get_all() == ["after"]

    def test_discard_forgets_unsent_and_unread(self, lane):
        lane.send("unread")
        lane.put("unsent")
        lane.discard()
        assert not lane.backlog and lane.empty()
        assert lane.get_all() == []

    def test_send_or_drop_on_a_full_pipe(self, lane):
        with pytest.raises(BlockingIOError):
            while True:
                os.write(lane.wfd, b"\0" * 4096)
        lane.send_or_drop(("fleet", {}))
        assert not lane.backlog  # dropped whole, framing intact
        os.read(lane.rfd, 1 << 20)
        lane.send_or_drop(("fleet", {"rmin": 3}))
        assert lane.get_all() == [("fleet", {"rmin": 3})]

    def test_is_selectable(self, lane):
        assert select.select([lane], [], [], 0)[0] == []
        lane.send(1)
        assert select.select([lane], [], [], LONG)[0] == [lane]

    def test_two_processes_exchanging_oversized_frames(self):
        """The deadlock blocking pipes have: both peers mid-send of a
        frame larger than the pipe, neither reading.  Lanes never block
        on a peer, so both sides finish (more processes than cores)."""
        n, frames = 4, 6
        lanes = {(s, d): Lane() for s in range(n) for d in range(n)
                 if s != d}
        results = Lane()

        def peer(me):
            outs = [lanes[(me, d)] for d in range(n) if d != me]
            ins = [lanes[(s, me)] for s in range(n) if s != me]
            for out in outs:
                for k in range(frames):
                    out.put((me, k, bytes(100_000)))
            got = []
            while len(got) < frames * (n - 1):
                stuck = {o.wfd: o for o in outs if o.backlog}
                _, writable, _ = select.select(ins, list(stuck), [], LONG)
                for fd in writable:
                    stuck[fd].flush(block=False)
                for lane_in in ins:
                    got.extend(m[:2] for m in lane_in.get_all())
            while any(not o.flush(block=False) for o in outs):
                select.select([], [o.wfd for o in outs if o.backlog], [],
                              LONG)
            results.send((me, sorted(got)))
            os._exit(0)

        ctx = mp.get_context("fork")
        procs = [ctx.Process(target=peer, args=(i,)) for i in range(n)]
        try:
            for p in procs:
                p.start()
            seen = {}
            while len(seen) < n:
                assert select.select([results], [], [], LONG)[0], "deadlock"
                seen.update(dict(results.get_all()))
            for me in range(n):
                assert seen[me] == sorted(
                    (s, k) for s in range(n) if s != me
                    for k in range(frames))
        finally:
            for p in procs:
                p.join(LONG)
                if p.is_alive():
                    p.terminate()
                    p.join(LONG)
                p.close()
            for made in [*lanes.values(), results]:
                made.close()


class TestProtocolWakeCounts:
    @pytest.fixture(scope="class")
    def grid(self):
        g = generators.grid2d(16, 16, weighted=True, seed=1)
        return g, api.partition_graph(g, 2), analysis.dijkstra(g, 0)

    @pytest.mark.parametrize("mode", ["BSP", "AAP"])
    @pytest.mark.parametrize("transport", ["shm", "queue"])
    def test_decisions_follow_events_not_timeouts(self, grid, mode,
                                                  transport):
        g, pg, reference = grid
        result = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode=mode,
            vectorized=True, transport=transport, timeout=60.0).run()
        assert result.answer == reference
        wake = result.extras["wake"]
        rounds = sum(result.rounds)
        # every superstep / probe / stop was triggered by an event read
        # from a control lane, never by the wait running out
        assert wake["decisions"] >= 2
        assert wake["timeout_decisions"] == 0
        # a bell can outlive the batch it announced (the batch was picked
        # up by an earlier poll): at most one empty wake-up per message
        # round, however long the run
        assert wake["empty_wakeups"] <= rounds

    @pytest.mark.parametrize("mode", ["BSP", "AP"])
    def test_frames_larger_than_the_pipe_on_the_data_lanes(self, mode):
        # PEval ships ~half of 40k labels to the other fragment: several
        # hundred KB per frame through a 64 KB pipe, in both directions
        # at once — the unsent tails must drain from inside the wait
        g = generators.powerlaw(40_000, m=2, seed=3)
        result = MultiprocessRuntime(
            CCProgram(), api.partition_graph(g, 2), CCQuery(), mode=mode,
            vectorized=True, transport="queue", timeout=60.0).run()
        assert result.metrics.total_bytes > 4 * (1 << 16)
        assert result.answer == analysis.connected_components(g)
        assert result.extras["wake"]["timeout_decisions"] == 0

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("mode", ["BSP", "AAP"])
    def test_busy_and_idle_seconds_are_reported(self, grid, mode, observed):
        g, pg, reference = grid
        observer = Observer() if observed else None
        result = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode=mode,
            vectorized=True, timeout=60.0, observer=observer).run()
        metrics = result.metrics
        if observed:  # the registry is the same source
            assert observer.metrics.get("idle_time", 0).value == \
                metrics.workers[0].idle_time
        assert all(w.busy_time > 0.0 for w in metrics.workers)
        assert metrics.total_idle > 0.0
        assert 0.0 < metrics.idle_ratio < 1.0
        # a worker is in exactly one of the three states at a time
        for w in metrics.workers:
            assert (w.busy_time + w.idle_time + w.suspended_time
                    <= metrics.makespan)
