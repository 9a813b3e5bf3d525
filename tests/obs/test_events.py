"""Tests for the typed event log."""

import pathlib
import subprocess
import sys
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.obs.events import (EPOCH_APPLY, EVENT_TYPES, MSG_DELIVER,
                              ROUND_END, ROUND_START, SCHEMA, EventLog,
                              ObsEvent)
from repro.obs.export import to_chrome_trace, write_jsonl

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parents[1])


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


    def test_one_record_by_position(self):
        log = EventLog(capacity=2)
        for i in range(3):
            log.record(EPOCH_APPLY, float(i), -1, -1,
                       (i + 1, 8, 0, 1e-6, []))
        assert log[-1] == ObsEvent(EPOCH_APPLY, 2.0, payload={
            "epoch": 3, "edges": 8, "changed": 0, "duration": 1e-6,
            "merged": []})
        assert log[0].t == 1.0
        with pytest.raises(IndexError):
            log[2]


# -- rows read as the events a log of ObsEvents would hold --------------
class EagerLog:
    """The reference: builds every ObsEvent when it is written."""

    def __init__(self, capacity):
        self.capacity, self.dropped = capacity, 0
        self.events = deque(maxlen=capacity)

    def _add(self, event):
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def apply(self, op, arg):
        if op == "record":
            kind, t, wid, round_no, values = arg
            self._add(ObsEvent(kind, t, wid, round_no,
                               dict(zip(SCHEMA[kind], values))))
        elif op in ("emit", "append"):
            self._add(ObsEvent(*arg))
        elif op == "extend":
            for event in arg:
                self._add(ObsEvent(*event))
        else:
            ordered = sorted(self.events, key=lambda e: e.t)
            self.events.clear()
            self.events.extend(ordered)


def _payload_of(kind):
    """A dict payload: the schema's keys, a subset or a foreign key."""
    keys = st.lists(st.sampled_from(SCHEMA[kind] + ("extra",)),
                    unique=True, max_size=3)
    return keys.map(lambda ks: {k: len(k) for k in ks})


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_WIDS = st.integers(-1, 2)
_KINDS = st.sampled_from(sorted(SCHEMA))
_KEYED = _KINDS.flatmap(lambda kind: st.tuples(
    st.just(kind), _TIMES, _WIDS, st.integers(-1, 3), _payload_of(kind)))
_OPS = st.one_of(
    st.tuples(st.just("record"), _KINDS.flatmap(lambda kind: st.tuples(
        st.just(kind), _TIMES, _WIDS, st.integers(-1, 3),
        st.tuples(*[st.integers(0, 9)] * len(SCHEMA[kind]))))),
    st.tuples(st.just("emit"), _KEYED),
    st.tuples(st.just("append"), _KEYED),
    st.tuples(st.just("extend"), st.lists(_KEYED, max_size=4)),
    st.tuples(st.just("sort"), st.none()))


def _write(log, op, arg):
    if op == "record":
        log.record(*arg)
    elif op == "emit":
        kind, t, wid, round_no, payload = arg
        log.emit(kind, t, wid=wid, round=round_no, **payload)
    elif op == "append":
        log.append(ObsEvent(*arg))
    elif op == "extend":
        log.extend(ObsEvent(*event) for event in arg)
    else:
        log.sort()


@settings(max_examples=150, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(1, 6)),
       ops=st.lists(_OPS, max_size=25))
def test_rows_read_like_an_eagerly_built_log(capacity, ops):
    """Positional records, ``emit``, ``append`` and ``extend``
    interleaved across a ring wrap: every reader sees what a log that
    built each ``ObsEvent`` on write would hold."""
    log, eager = EventLog(capacity), EagerLog(capacity)
    for op, arg in ops:
        _write(log, op, arg)
        eager.apply(op, arg)
        expected = list(eager.events)
        assert log.snapshot() == expected
        assert list(log) == expected and log.events == tuple(expected)
        assert (len(log), log.dropped) == (len(expected), eager.dropped)
    expected = list(eager.events)
    assert all(type(e) is ObsEvent for e in log)
    assert [e.to_dict() for e in log] == [e.to_dict() for e in expected]
    if expected:
        assert (log[0], log[-1]) == (expected[0], expected[-1])
    for kind in (None, *SCHEMA):
        for wid in (None, -1, 0, 1, 2):
            assert log.filter(type=kind, wid=wid) == [
                e for e in expected if kind in (None, e.type)
                and wid in (None, e.wid)]
    counts = {}
    for e in expected:
        counts[e.type] = counts.get(e.type, 0) + 1
    assert log.counts() == counts
    assert log.types() == set(counts)
    keys = {}
    for e in expected:
        keys.setdefault(e.type, set()).update(e.payload)
    assert log.payload_keys() == keys


# -- the exporters write what they wrote when every record was an event --
#: sha256 of ``write_jsonl`` / ``json.dumps(to_chrome_trace(...))`` of the
#: log :data:`_EXPORT_PROBE` builds, taken from the same log with every
#: positional ``epoch_apply`` record appended as an eagerly built
#: ``ObsEvent``
JSONL_SHA256 = ("7e2b53f430ed0cb4a1f3c329b51a7016"
                "a453216784ab6d02d95920711e09abd4")
TRACE_SHA256 = ("bbb72197d46d495258a72427bd8d4b7d"
                "6beca1bad4046dcc60b03aeaba33367d")

#: a simulated straggler run, four positional ``epoch_apply`` records,
#: an ``emit`` and an ``append``; in a fresh interpreter, because message
#: sequence numbers count up per process
_EXPORT_PROBE = """
import hashlib, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
from repro import api
from repro.algorithms import SSSPProgram, SSSPQuery
from repro.graph import generators
from repro.obs import Observer, ObsEvent
from repro.obs.events import ADMISSION_SHED, EPOCH_APPLY, INGEST
from repro.obs.export import to_chrome_trace, write_jsonl
from repro.runtime.costmodel import CostModel
obs = Observer()
api.run(SSSPProgram(), generators.grid2d(5, 5, weighted=True, seed=1),
        SSSPQuery(source=0), num_fragments=3, mode="AAP",
        cost_model=CostModel.with_straggler(0, factor=4.0), observer=obs)
log = obs.log
for i in range(4):
    log.record(EPOCH_APPLY, 50.0 + i, -1, -1,
               (i + 1, 8, 2 * i, 1.5e-4 * (i + 1), [i] if i % 2 else []))
log.emit(INGEST, 60.0, edges=8, depth=1, latency=2e-5)
log.append(ObsEvent(ADMISSION_SHED, 61.0, payload={
    "kind": "query", "reason": "full", "depth": 3}))
path = os.path.join(sys.argv[2], "ev.jsonl")
write_jsonl(log, path)
with open(path, "rb") as fh:
    jsonl = fh.read()
trace = json.dumps(to_chrome_trace(log)).encode()
print(len(log), *(hashlib.sha256(b).hexdigest() for b in (jsonl, trace)))
"""


def test_exports_are_byte_identical(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _EXPORT_PROBE, SRC_DIR, str(tmp_path)],
        capture_output=True, text=True, check=True).stdout.split()
    assert out == ["111", JSONL_SHA256, TRACE_SHA256]
