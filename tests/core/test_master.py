"""Tests for the master: the book every runtime decides by (termination,
the BSP barrier, the channel ledger, the fleet) and the threaded runtime's
blocking half of it (the wait loop, abort)."""

import threading

import pytest

from repro.algorithms import CCProgram, CCQuery
from repro.core.engine import Engine
from repro.core.master import (NONE, OPEN, PROBE, STOP, MasterBook, fleet_of,
                               local_fleet)
from repro.core.messages import Message
from repro.core.modes import make_policy
from repro.core.worker import WorkerState, WorkerStatus
from repro.errors import TerminationError
from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.threaded import ThreadedRuntime


def play(book, script):
    """Apply ``script`` to ``book``: ``("decide", expected)`` checks a
    decision, any other ``(method, *args)`` is a report."""
    for name, *args in script:
        if name == "decide":
            assert book.decide() == args[0], script
        else:
            getattr(book, name)(*args)


#: (m, BSP?, script); every step a report or a checked decision
SCRIPTS = {
    "async quiescence": (2, False, [
        ("set_inactive", 0), ("decide", NONE),
        ("set_inactive", 1), ("decide", PROBE),
        ("answer", 0, True, 1), ("decide", NONE),
        ("answer", 1, True, 1), ("decide", STOP)]),
    "a probe answered wait resumes, then probes again": (2, False, [
        ("set_inactive", 0), ("set_inactive", 1), ("decide", PROBE),
        ("set_active", 1),  # mail raced in: as good as wait
        ("answer", 0, True, 1), ("answer", 1, False, 1), ("decide", NONE),
        ("set_inactive", 1), ("decide", PROBE),
        ("answer", 0, True, 2), ("answer", 1, True, 2), ("decide", STOP)]),
    "a stale wait with every slot inactive probes at once": (2, False, [
        ("set_inactive", 0), ("set_inactive", 1), ("decide", PROBE),
        ("answer", 0, True, 1), ("answer", 1, False, 1), ("decide", PROBE)]),
    "nothing stops while entries fly": (2, False, [
        ("announce", 0, {1: 3}), ("set_inactive", 0), ("set_inactive", 1),
        ("decide", NONE), ("credit", 1, {0: 2}), ("decide", NONE),
        ("credit", 1, {0: 1}), ("decide", PROBE)]),
    "entries landing during the probe keep it from stopping": (2, False, [
        ("set_inactive", 0), ("set_inactive", 1), ("decide", PROBE),
        ("announce", 0, {1: 1}), ("answer", 0, True, 1),
        ("answer", 1, True, 1), ("decide", NONE)]),
    "BSP: a barrier after work opens the next superstep": (2, True, [
        ("set_inactive", 0, True), ("decide", NONE),
        ("set_inactive", 1), ("decide", OPEN),
        ("decide", NONE),  # every flag cleared: all must report again
        ("set_inactive", 0), ("set_inactive", 1), ("decide", PROBE),
        ("answer", 0, True, 1), ("answer", 1, True, 1), ("decide", STOP)]),
    "BSP: work opens the barrier with entries still on the wire": (2, True, [
        ("announce", 0, {1: 4}), ("set_inactive", 0, True),
        ("set_inactive", 1), ("decide", OPEN)]),
    "BSP: a quiet barrier probes, and a wait opens the next": (2, True, [
        ("set_inactive", 0), ("set_inactive", 1), ("decide", PROBE),
        ("answer", 0, False, 1), ("answer", 1, True, 1), ("decide", OPEN)]),
    "an answer with no probe open is dropped": (1, False, [
        ("answer", 0, False, 0), ("set_inactive", 0), ("decide", PROBE),
        ("answer", 0, True, 1), ("decide", STOP)]),
    "a rejoin abandons the open probe": (2, False, [
        ("set_inactive", 0), ("set_inactive", 1), ("decide", PROBE),
        ("answer", 0, True, 1), ("rejoin", 1, 1), ("answer", 1, True, 1),
        ("decide", NONE), ("set_inactive", 1), ("decide", PROBE)]),
    "a late answer to an abandoned probe does not count": (2, False, [
        ("set_inactive", 0), ("set_inactive", 1), ("decide", PROBE),
        ("rejoin", 1, 1), ("set_inactive", 1), ("decide", PROBE),
        ("answer", 1, True, 1),  # slot 1's ack to the first probe, late
        ("answer", 0, True, 2), ("decide", NONE),  # still waits for 1
        ("answer", 1, True, 2), ("decide", STOP)]),
}


class TestDecide:
    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_script(self, name):
        m, bsp, script = SCRIPTS[name]
        play(MasterBook(m, bsp=bsp), script)

    def test_superstep_counts_the_barriers(self):
        book = MasterBook(2, bsp=True)
        assert book.superstep == 0  # PEval is the 0th
        for s in (1, 2):
            book.set_inactive(0, worked=True)
            book.set_inactive(1)
            assert book.decide() == OPEN and book.superstep == s
        assert MasterBook(2).superstep is None

    @pytest.mark.parametrize("bsp, held, expected", [
        (False, [False, False], STOP), (False, [False, True], NONE),
        (True, [False, False], STOP), (True, [True, False], OPEN)])
    def test_a_probe_answered_on_the_spot(self, bsp, held, expected):
        # threads and the simulator see every buffer: a worker waits iff
        # it holds mail, and the driver never sees PROBE
        book = MasterBook(2, bsp=bsp)
        book.set_inactive(0)
        book.set_inactive(1)
        assert book.decide(holds=held.__getitem__) == expected
        assert not book.probing

    def test_the_barrier_and_probe_are_recorded(self):
        seen = []
        book = MasterBook(2, bsp=True,
                          emit=lambda type_, **kw: seen.append((type_, kw)))
        book.set_inactive(0, worked=True)
        book.set_inactive(1)
        book.decide()
        book.set_inactive(0)
        book.set_inactive(1)
        book.decide(holds=lambda w: False)
        assert seen == [("barrier", {"step": 1}),
                        ("terminate_probe", {"result": "ack"})]


class TestLedger:
    def test_a_report_from_a_stale_era_is_dropped(self):
        book = MasterBook(2)
        book.rejoin(0, 1)
        book.announce(0, {1: 5}, 0)  # the dead incarnation's, read late
        book.credit(0, {1: 2}, 0)
        assert book.in_flight() == 0
        book.announce(0, {1: 5}, 1)
        assert book.in_flight() == 5

    def test_settle_returns_the_bases_the_replacement_inherits(self):
        book = MasterBook(3)
        book.announce(0, {1: 4, 2: 1})  # 0 -> 1: 3 of 4 drained
        book.credit(1, {0: 3})
        book.announce(1, {0: 2})  # 1 -> 0: none drained
        book.announce(2, {0: 6})  # 2 -> 0: all drained
        book.credit(0, {2: 6})
        assert book.settle(0) == (3, 8)
        assert book.in_flight() == 0
        assert book.sent[(0, 1)] == 3 and book.recv[(1, 0)] == 2

    def test_a_credit_read_before_its_announce_is_clamped(self):
        # lane reordering: the receiver's report overtook the sender's
        book = MasterBook(3)
        book.announce(2, {0: 1})
        book.credit(1, {0: 4})
        assert book.in_flight() == 1  # not hidden by the early credit
        book.announce(0, {1: 4})
        book.credit(0, {2: 1})
        book.set_inactive(0)
        book.set_inactive(1)
        book.set_inactive(2)
        assert book.decide(holds=lambda w: False) == STOP

    def test_an_over_credit_a_settle_explains_stops(self):
        book = MasterBook(2)
        book.settle(1)
        book.credit(1, {0: 2})  # drained from a dead peer's last traffic
        book.set_inactive(0)
        book.set_inactive(1)
        assert book.decide(holds=lambda w: False) == STOP

    def test_an_unexplained_over_credit_fails_at_stop(self):
        book = MasterBook(2)
        book.announce(0, {1: 1})
        book.credit(1, {0: 3})
        book.set_inactive(0)
        book.set_inactive(1)
        with pytest.raises(TerminationError, match="went negative"):
            book.decide(holds=lambda w: False)


class TestFleet:
    def test_bounds_range_over_active_slots(self):
        book = MasterBook(3, round_time=0.5)
        for w, (r, t, rate) in enumerate([(3, 0.5, 0.0), (9, 1.0, 2.0),
                                          (5, 1.5, 4.0)]):
            book.observe(w, r, t, rate)
        book.set_inactive(1)
        assert book.fleet() == (3, 5, 3.0, 1.0, 3)

    def test_nobody_active_gives_no_bounds(self):
        book = MasterBook(2)
        book.set_inactive(0)
        book.set_inactive(1)
        fleet = book.fleet()
        assert (fleet.rmin, fleet.rmax) == (None, None)

    def test_a_rejoined_slot_starts_fresh(self):
        book = MasterBook(2, round_time=1e-3)
        book.observe(0, 7, 0.25, 3.0)
        book.set_inactive(0)
        book.rejoin(0, 1)
        assert (book.rounds[0], book.round_times[0], book.rates[0],
                book.inactive[0]) == (1, 1e-3, 0.0, False)

    def test_local_fleet_reads_pending_and_the_predictors(self):
        states = [WorkerState(w) for w in range(3)]
        for w, state in enumerate(states):
            state.rounds = 4 + w
            state.status = WorkerStatus.INACTIVE
        states[2].buffer.push(Message(src=0, dst=2, round=0,
                                      entries=((0, 1.0),)))
        states[1].round_time.observe_round(0.3)
        fleet = local_fleet(states, now=0.0, default_round_time=0.6)
        assert (fleet.rmin, fleet.rmax) == (6, 6)  # only 2 is pending
        assert fleet.avg_round_time == pytest.approx(0.5)
        assert fleet == fleet_of([4, 5, 6], [False, False, True],
                                 [0.0] * 3, [0.6, 0.3, 0.6])


class TestProtocol:
    def test_no_termination_while_active(self):
        book = MasterBook(3)
        book.set_inactive(0)
        book.set_inactive(1)
        assert book.decide() == NONE

    def test_terminates_when_all_inactive(self):
        book = MasterBook(2)
        book.set_inactive(0)
        book.set_inactive(1)
        assert book.decide(holds=lambda w: False) == STOP

    def test_in_flight_blocks_termination(self):
        book = MasterBook(1)
        book.set_inactive(0)
        book.announce(0, {0: 1})
        assert book.decide(holds=lambda w: False) == NONE
        book.credit(0, {0: 1})
        assert book.decide(holds=lambda w: False) == STOP

    def test_flag_refused_while_the_worker_has_work(self, runtime):
        # ``unless`` is asked with the flag, under the book's lock: the
        # one a BSP barrier holds while it opens the next superstep
        book = MasterBook(1)
        assert book.set_inactive(0, unless=lambda: True) is False
        assert book.inactive == [False]
        assert book.set_inactive(0, unless=lambda: False) is True
        assert book.inactive == [True]
        rt, asked = runtime, []
        flag = rt.book.set_inactive

        def spy(wid, **kwargs):
            asked.append(rt._master._is_owned())
            return flag(wid, **kwargs)

        rt.book.set_inactive = spy
        rt.workers[0].buffer.push(Message(src=1, dst=0, round=0,
                                          entries=((0, 1.0),)))
        assert rt._note_if_inactive(0) is False
        assert asked == [True]

    def test_reactivation_answers_wait(self):
        # a worker that received a message flips back to active, so the
        # master's broadcast gets a "wait" and the phase resumes
        book = MasterBook(2)
        book.set_inactive(0)
        book.set_inactive(1)
        assert book.decide() == PROBE
        book.set_active(1)
        book.answer(0, True, book.probe)
        book.answer(1, True, book.probe)
        assert book.decide() == NONE

    def test_negative_in_flight_rejected(self):
        book = MasterBook(1)
        book.credit(0, {0: 1})
        book.set_inactive(0)
        with pytest.raises(TerminationError):
            book.decide(holds=lambda w: False)

    def test_a_failed_probe_is_followed_by_a_new_one(self):
        book = MasterBook(1)
        book.set_inactive(0)
        assert book.decide() == PROBE
        book.answer(0, False, 1)
        assert book.decide() == PROBE  # a fresh attempt, fresh answers
        assert not book.answered and book.probe == 2
        book.answer(0, True, 2)
        assert book.decide() == STOP

    def test_flags_are_per_slot(self):
        book = MasterBook(3)
        book.set_inactive(1)
        assert book.inactive == [False, True, False]


@pytest.fixture
def runtime():
    """A two-worker threaded runtime that is never started."""
    pg = HashPartitioner().partition(generators.grid2d(3, 3), 2)
    return ThreadedRuntime(Engine(CCProgram(), pg, CCQuery()),
                           make_policy("AP"), timeout=5.0)


class TestWaiting:
    def test_wait_returns_when_quiescent(self, runtime):
        def finish():
            with runtime._master:
                runtime.book.set_inactive(0)
                runtime.book.set_inactive(1)
                runtime._master.notify_all()

        t = threading.Timer(0.02, finish)
        t.start()
        runtime._await_stop()
        assert runtime._stopped
        t.join()

    def test_wait_times_out(self):
        pg = HashPartitioner().partition(generators.grid2d(3, 3), 1)
        rt = ThreadedRuntime(Engine(CCProgram(), pg, CCQuery()),
                             make_policy("AP"), timeout=0.05)
        with pytest.raises(TerminationError, match="timed out"):
            rt._await_stop()


class TestAbort:
    def test_abort_forces_termination(self, runtime):
        exc = RuntimeError("worker died")
        runtime.abort(exc)
        assert runtime._stopped
        assert runtime.errors == [exc]

    def test_abort_releases_waiters_promptly(self, runtime):
        # Regression: a crashed worker used to leave the master blocked
        # until its timeout; abort must wake the wait loop at once.
        t = threading.Timer(0.02, runtime.abort, args=(ValueError("boom"),))
        t.start()
        runtime._await_stop()  # must not raise / stall
        t.join()
        assert runtime.errors

    def test_concurrent_errors_collected_not_overwritten(self, runtime):
        first, second = RuntimeError("first"), RuntimeError("second")
        runtime.abort(first)
        runtime.abort(second)
        assert runtime.errors[0] is first
        assert runtime.errors[1] is second

    def test_not_aborted_by_default(self, runtime):
        assert not runtime._stopped
        assert runtime.errors == []
