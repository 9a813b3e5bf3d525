"""Tests for the typed event log."""

import sys
import threading
import time

import pytest

from repro.obs.events import (EVENT_TYPES, MSG_DELIVER, ROUND_END,
                              ROUND_START, SCHEMA, EventLog, ObsEvent)
from repro.obs.export import to_chrome_trace, write_jsonl


class TestObsEvent:
    def test_to_dict_round_trips_fields(self):
        e = ObsEvent(type=ROUND_START, t=1.5, wid=2, round=3,
                     payload={"kind": "inceval", "batches": 4})
        d = e.to_dict()
        assert d == {"type": "round_start", "t": 1.5, "wid": 2, "round": 3,
                     "payload": {"kind": "inceval", "batches": 4}}

    def test_defaults_mark_run_global(self):
        e = ObsEvent(type="barrier", t=0.0)
        assert e.wid == -1 and e.round == -1 and e.payload == {}


class TestSchema:
    def test_every_event_type_has_a_schema(self):
        assert set(SCHEMA) == set(EVENT_TYPES)
        for keys in SCHEMA.values():
            assert keys, "schema rows must name at least one payload key"


class TestEventLog:
    def test_emit_and_len(self):
        log = EventLog()
        log.emit(ROUND_START, 0.0, wid=0, round=0, kind="peval", batches=0)
        log.emit(ROUND_END, 1.0, wid=0, round=0, kind="peval",
                 duration=1.0, messages=2)
        assert len(log) == 2
        assert [e.type for e in log] == [ROUND_START, ROUND_END]

    def test_filter_by_type_and_wid(self):
        log = EventLog()
        for wid in (0, 1, 0):
            log.emit(MSG_DELIVER, 1.0, wid=wid, round=0,
                     src=9, bytes=8, seq=0, depth=1)
        log.emit(ROUND_START, 2.0, wid=0, round=1, kind="inceval", batches=1)
        assert len(log.filter(type=MSG_DELIVER)) == 3
        assert len(log.filter(type=MSG_DELIVER, wid=0)) == 2
        assert len(log.filter(wid=1)) == 1

    def test_counts_and_types(self):
        log = EventLog()
        log.emit(ROUND_START, 0.0, wid=0)
        log.emit(ROUND_START, 1.0, wid=1)
        log.emit(ROUND_END, 2.0, wid=0)
        assert log.counts() == {"round_start": 2, "round_end": 1}
        assert log.types() == {"round_start", "round_end"}

    def test_payload_keys_union(self):
        log = EventLog()
        log.emit(ROUND_START, 0.0, wid=0, kind="peval")
        log.emit(ROUND_START, 1.0, wid=1, kind="inceval", batches=3)
        assert log.payload_keys()["round_start"] == {"kind", "batches"}

    def test_sort_is_stable_on_timestamp(self):
        log = EventLog()
        log.emit("a", 2.0)
        log.emit("b", 1.0)
        log.emit("c", 1.0)
        log.sort()
        assert [(e.type, e.t) for e in log] == [("b", 1.0), ("c", 1.0),
                                                ("a", 2.0)]

    def test_extend_and_append(self):
        log = EventLog()
        log.append(ObsEvent(type="x", t=0.0))
        log.extend([ObsEvent(type="y", t=1.0), ObsEvent(type="z", t=2.0)])
        assert len(log) == 3

    def test_bounded_log_is_a_ring_that_counts_what_it_drops(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("e", float(i))
        assert [e.t for e in log] == [2.0, 3.0, 4.0]
        assert (len(log), log.dropped) == (3, 2)
        log.append(ObsEvent(type="x", t=9.0))
        log.extend([ObsEvent(type="y", t=0.5), ObsEvent(type="z", t=0.25)])
        assert (len(log), log.dropped) == (3, 5)
        log.sort()
        assert [e.t for e in log] == [0.25, 0.5, 9.0]
        assert log.counts() == {"x": 1, "y": 1, "z": 1}
        log.emit("w", 10.0)  # still a ring after the sort
        assert (len(log), log.dropped) == (3, 6)

    def test_unbounded_log_drops_nothing(self):
        log = EventLog()
        log.extend(ObsEvent(type="e", t=float(i)) for i in range(100))
        assert (len(log), log.dropped, log.capacity) == (100, 0, None)
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_concurrent_emits_are_all_recorded(self):
        log = EventLog()

        def worker(wid):
            for i in range(200):
                log.emit(MSG_DELIVER, float(i), wid=wid, round=i,
                         src=0, bytes=1, seq=i, depth=1)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 800
        assert all(len(log.filter(wid=w)) == 200 for w in range(4))

    @pytest.mark.parametrize("capacity", [256, None])
    def test_readers_are_safe_against_a_live_writer(self, capacity,
                                                    tmp_path):
        """Every reader works from one copy taken under the lock; iterating
        ``log.events`` itself while a writer appends raised ``RuntimeError:
        deque mutated during iteration`` on a bounded log."""
        log = EventLog(capacity=capacity)
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set() and i < 200_000:
                log.emit(MSG_DELIVER, float(i), wid=i % 2, round=i,
                         src=0, bytes=1, seq=i, depth=1)
                i += 1

        readers = (
            lambda: [e.t for e in log.filter(type=MSG_DELIVER)],
            lambda: [e.t for e in log],
            log.counts, log.types, log.payload_keys,
            lambda: to_chrome_trace(log),
            lambda: write_jsonl(log, str(tmp_path / "live.jsonl")),
        )
        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                for read in readers:
                    out = read()
                    if isinstance(out, list):
                        # one consistent copy: no gap, no repeat, and
                        # never more than a bounded log retains
                        assert out == [out[0] + k for k in range(len(out))]
                        assert capacity is None or len(out) <= capacity
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert len(log) + log.dropped > 0
        assert sum(log.counts().values()) == len(log)
