"""Tests for the master's termination protocol."""

import threading

import pytest

from repro.core.master import TerminationMaster
from repro.errors import TerminationError


class TestProtocol:
    def test_no_termination_while_active(self):
        m = TerminationMaster(3)
        m.set_inactive(0)
        m.set_inactive(1)
        assert not m.try_terminate()

    def test_terminates_when_all_inactive(self):
        m = TerminationMaster(2)
        m.set_inactive(0)
        m.set_inactive(1)
        assert m.try_terminate()
        assert m.terminated

    def test_in_flight_blocks_termination(self):
        m = TerminationMaster(1)
        m.set_inactive(0)
        m.message_sent()
        assert not m.try_terminate()
        m.message_delivered()
        assert m.try_terminate()

    def test_flag_refused_while_the_worker_has_work(self):
        # ``unless`` is asked under the master's lock, the one a BSP
        # barrier holds while it opens the next superstep
        m = TerminationMaster(1)
        asked = []

        def has_work():
            asked.append(m._lock._is_owned())
            return True

        assert m.set_inactive(0, unless=has_work) is False
        assert asked == [True]
        assert m.snapshot_flags() == [False]
        assert m.set_inactive(0, unless=lambda: False) is True
        assert m.snapshot_flags() == [True]

    def test_reactivation_answers_wait(self):
        # a worker that received a message flips back to active, so the
        # master's broadcast gets a "wait" and the phase resumes
        m = TerminationMaster(2)
        m.set_inactive(0)
        m.set_inactive(1)
        m.set_active(1)
        assert not m.try_terminate()

    def test_negative_in_flight_rejected(self):
        m = TerminationMaster(1)
        with pytest.raises(TerminationError):
            m.message_delivered()

    def test_attempt_counter(self):
        m = TerminationMaster(1)
        m.try_terminate()
        m.try_terminate()
        assert m.attempts == 2

    def test_snapshot_flags(self):
        m = TerminationMaster(3)
        m.set_inactive(1)
        assert m.snapshot_flags() == [False, True, False]


class TestWaiting:
    def test_wait_returns_when_quiescent(self):
        m = TerminationMaster(2)

        def finish():
            m.set_inactive(0)
            m.set_inactive(1)

        t = threading.Timer(0.02, finish)
        t.start()
        m.wait_for_termination(timeout=5.0)
        assert m.terminated
        t.join()

    def test_wait_times_out(self):
        m = TerminationMaster(1)
        with pytest.raises(TerminationError):
            m.wait_for_termination(timeout=0.05)


class TestAbort:
    def test_abort_forces_termination(self):
        m = TerminationMaster(3)
        exc = RuntimeError("worker died")
        m.abort(exc)
        assert m.terminated
        assert m.aborted
        assert m.errors == [exc]

    def test_abort_releases_waiters_promptly(self):
        # Regression: a crashed worker used to leave the master blocked
        # until its timeout; abort must wake wait_for_termination at once.
        m = TerminationMaster(2)
        t = threading.Timer(0.02, m.abort, args=(ValueError("boom"),))
        t.start()
        m.wait_for_termination(timeout=5.0)  # must not raise / stall
        t.join()
        assert m.aborted

    def test_concurrent_errors_collected_not_overwritten(self):
        m = TerminationMaster(2)
        first, second = RuntimeError("first"), RuntimeError("second")
        m.abort(first)
        m.abort(second)
        assert m.errors[0] is first
        assert m.errors[1] is second

    def test_not_aborted_by_default(self):
        m = TerminationMaster(1)
        assert not m.aborted
        assert m.errors == []
