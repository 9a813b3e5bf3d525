"""Tests for the deterministic event queue."""

import pytest

from repro.runtime.events import (Custom, Deliver, Event, EventQueue,
                                  RoundEnd, WakeUp)


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(RoundEnd(time=5.0, wid=1))
        q.push(RoundEnd(time=2.0, wid=2))
        q.push(RoundEnd(time=8.0, wid=3))
        assert [q.pop().wid for _ in range(3)] == [2, 1, 3]

    def test_fifo_on_ties(self):
        q = EventQueue()
        for wid in (7, 3, 9):
            q.push(RoundEnd(time=1.0, wid=wid))
        assert [q.pop().wid for _ in range(3)] == [7, 3, 9]

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(WakeUp(time=4.0, wid=0, epoch=1))
        assert q.peek_time() == 4.0

    def test_processed_counter(self):
        q = EventQueue()
        q.push(Custom(time=0.0, tag="x"))
        q.pop()
        assert q.processed == 1

    def test_now_is_the_time_of_the_latest_pop(self):
        q = EventQueue()
        assert q.now == 0.0
        q.push(RoundEnd(time=2.5, wid=0))
        q.push(RoundEnd(time=1.0, wid=1))
        q.pop()
        assert q.now == 1.0
        q.pop()
        assert q.now == 2.5

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(RoundEnd(time=-1.0, wid=0))

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(WakeUp(time=0.0, wid=0, epoch=0))
        assert len(q) == 1
        assert q


class TestEventKinds:
    def test_event_payloads(self):
        e = WakeUp(time=1.0, wid=3, epoch=7)
        assert e.wid == 3 and e.epoch == 7
        c = Custom(time=2.0, tag="snapshot", payload={"x": 1})
        assert c.tag == "snapshot"

    def test_events_frozen(self):
        e = RoundEnd(time=1.0, wid=0)
        with pytest.raises(AttributeError):
            e.time = 5.0
