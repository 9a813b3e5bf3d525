"""A served read does all of its bookkeeping and nothing else.

Count-based, like ``test_epoch_delta.py``.  *Nothing else*: with every
by-name instrument lookup, the admission controller, the catch-up arm,
the epoch apply and Assemble patched to raise after construction, reads
whose bound is already met are still served, and they write no event
(the log keeps its length).  *All of it*: each of them is read from the
maintained answer and timed — one observation in each of the latency and
staleness histograms per read; no other instrument moves.  Only a read
that must catch up asks the admission controller, once, and a shed read
keeps its reason word for word.  The record types the paths hand back
keep their contract (keyword construction, defaults, immutability,
equality, pickling).
"""

import hashlib
import pickle
import random

import pytest

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.errors import ProgramError
from repro.graph import generators
from repro.obs import (ADMISSION_SHED, EPOCH_APPLY, INGEST, SCHEMA,
                       EventLog, MetricsRegistry, ObsEvent)
from repro.obs import events as events_module
from repro.serve import (AdmissionController, GraphService, IngestReceipt,
                         QueryResult)
from repro.streaming import UpdateBatch

READS = 200
BOUND = 2


def make_service(**kw):
    g = generators.grid2d(5, 5, weighted=True, seed=1)
    return GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                        num_fragments=3, runtime="simulated", **kw)


def events(svc, type_):
    return svc.obs.log.filter(type=type_)


def test_reads_within_bound_touch_only_their_own_bookkeeping(monkeypatch):
    svc = make_service()
    assert svc.ingest(UpdateBatch.of((0, 100, 0.5))).accepted
    assert svc.ingest(UpdateBatch.of((100, 101, 0.5))).accepted
    logged = svc.obs.log.events

    def forbidden(*args, **kwargs):
        raise AssertionError("a read within its bound reached this")
    monkeypatch.setattr(MetricsRegistry, "_get", forbidden)
    monkeypatch.setattr(AdmissionController, "admit_query", forbidden)
    monkeypatch.setattr(GraphService, "_catch_up", forbidden)
    monkeypatch.setattr(GraphService, "_apply_one", forbidden)
    monkeypatch.setattr(Engine, "assemble", forbidden)

    keys = [i % 30 for i in range(READS)]  # 25 nodes, 5 absent, repeated
    results = [svc.query(k, staleness_bound=BOUND) for k in keys]

    assert all(r.served and r.staleness == BOUND and r.epoch == 0
               and r.reason is None for r in results)
    snapshot = svc.answer
    assert [r.value for r in results] == [snapshot.get(k) for k in keys]
    assert svc.obs.log.events == logged  # the two ingests, nothing more
    assert svc.obs.log.counts() == {INGEST: 2}
    status = svc.status()
    assert status["query_latency"]["count"] == READS
    assert status["staleness"]["count"] == READS
    assert status["staleness"]["total"] == READS * BOUND
    assert status["queries"] == {"served": READS, "shed": 0}
    assert status["events"] == {"retained": 2, "dropped": 0}


def test_a_read_feeds_exactly_its_two_histograms():
    """The served count is the latency histogram's count: a read feeds
    that histogram and the staleness one, no other instrument and not
    the event log."""
    svc = make_service()
    assert svc.ingest(UpdateBatch.of((0, 100, 0.5))).accepted
    metrics = svc.obs.metrics
    before, logged = metrics.as_dict(), len(svc.obs.log)
    for i in range(READS):
        assert svc.query(i % 30, staleness_bound=1).served
    assert len(svc.obs.log) == logged
    after = metrics.as_dict()
    moved = {name for name in after if after[name] != before.get(name)}
    assert moved == {"serve_query_latency", "serve_staleness"}
    latency = metrics.histogram("serve_query_latency")
    assert latency.count == metrics.histogram("serve_staleness").count \
        == READS
    assert svc.status()["queries"]["served"] == latency.count


def test_reads_write_no_record_and_build_no_event(monkeypatch):
    """A served read makes no ``EventLog.record`` call (through which
    ``emit`` and ``append`` write too) and builds no ``ObsEvent``; the
    ingest before the reads still writes its one row."""
    svc = make_service()
    built, recorded = [], []
    new_record = events_module._new_record
    record = EventLog.record

    def counting_new(cls, fields):
        built.append(cls)
        return new_record(cls, fields)

    def counting_record(self, type_, *args):
        recorded.append(type_)
        return record(self, type_, *args)
    monkeypatch.setattr(events_module, "_new_record", counting_new)
    monkeypatch.setattr(EventLog, "record", counting_record)

    assert svc.ingest(UpdateBatch.of((0, 100, 0.5))).accepted
    assert recorded == [INGEST]
    for i in range(READS):
        assert svc.query(i % 30, staleness_bound=BOUND).served
    assert (built, recorded) == ([], [INGEST])
    (event,) = svc.obs.log
    assert event.type == INGEST and built == [ObsEvent]


def test_read_past_its_bound_still_catches_up():
    svc = make_service()
    svc.ingest(UpdateBatch.of((0, 100, 0.5)))
    svc.ingest(UpdateBatch.of((100, 101, 0.5)))
    fresh = svc.query(101, staleness_bound=1)
    assert fresh.served and fresh.staleness == 1 and fresh.epoch == 1
    assert fresh.value is None  # node 101 arrives with the second batch
    fresh = svc.query(101, staleness_bound=0)
    assert (fresh.staleness, fresh.epoch, svc.lag) == (0, 2, 0)
    assert fresh.value == pytest.approx(1.0)
    assert len(events(svc, EPOCH_APPLY)) == 2


def test_shed_read_reports_its_reason_and_is_logged():
    svc = make_service(admission=AdmissionController(max_catchup=0))
    svc.ingest(UpdateBatch.of((0, 100, 0.5)))
    shed = svc.query(0, staleness_bound=0)
    assert not shed.served and shed.value is None
    assert "catch-up of 1 epochs" in shed.reason
    assert (shed.epoch, shed.staleness) == (0, 1)
    (event,) = events(svc, ADMISSION_SHED)
    assert event.payload == {"kind": "query", "reason": shed.reason,
                             "depth": 1}
    assert svc.status()["queries"] == {"served": 0, "shed": 1}
    assert svc.obs.log.counts() == {INGEST: 1, ADMISSION_SHED: 1}
    assert svc.obs.metrics.histogram("serve_query_latency").count == 0


def count_admissions(monkeypatch):
    """Patch ``admit_query`` to count its calls; returns the list of
    ``(lag, bound, reason)`` it saw."""
    asked = []
    admit = AdmissionController.admit_query

    def counting(self, lag, bound):
        reason = admit(self, lag, bound)
        asked.append((lag, bound, reason))
        return reason
    monkeypatch.setattr(AdmissionController, "admit_query", counting)
    return asked


def test_a_read_past_its_bound_asks_admission_once(monkeypatch):
    svc = make_service(admission=AdmissionController(max_catchup=1))
    for i in range(3):
        assert svc.ingest(UpdateBatch.of((0, 100 + i, 0.5))).accepted
    asked = count_admissions(monkeypatch)
    shed = svc.query(0, staleness_bound=1)
    assert asked == [(3, 1, shed.reason)]
    # the reason, word for word, as the controller has always put it
    assert shed.reason == "catch-up of 2 epochs exceeds limit 1 " \
                          "(lag=3, bound=1)"
    assert (shed.served, shed.value, shed.epoch, shed.staleness) \
        == (False, None, 0, 3)
    (event,) = events(svc, ADMISSION_SHED)
    assert event.payload == {"kind": "query", "reason": shed.reason,
                             "depth": 3}
    served = svc.query(0, staleness_bound=2)
    assert asked[1:] == [(3, 2, None)]
    assert (served.served, served.epoch, served.staleness) == (True, 1, 2)
    svc.query(0, staleness_bound=2)  # met now: no second question
    assert len(asked) == 2
    assert svc.status()["queries"] == {"served": 2, "shed": 1}


@pytest.mark.parametrize("lag", [0, 2])
def test_a_negative_bound_raises_before_any_instrument_moves(monkeypatch,
                                                             lag):
    svc = make_service()
    for i in range(lag):
        assert svc.ingest(UpdateBatch.of((0, 100 + i, 0.5))).accepted
    asked = count_admissions(monkeypatch)
    metrics, logged = svc.obs.metrics.as_dict(), len(svc.obs.log)
    for read in (lambda: svc.query(0, staleness_bound=-1),
                 lambda: svc.snapshot(staleness_bound=-1)):
        with pytest.raises(ProgramError, match="got -1"):
            read()
    assert svc.obs.metrics.as_dict() == metrics
    assert (asked, len(svc.obs.log), svc.lag, svc.epoch) \
        == ([], logged, lag, 0)


def test_snapshot_keeps_the_contract_on_both_arms(monkeypatch):
    svc = make_service(admission=AdmissionController(max_catchup=1))
    assert svc.ingest(UpdateBatch.of((0, 100, 0.5))).accepted
    asked = count_admissions(monkeypatch)
    latency = svc.obs.metrics.histogram("serve_query_latency")
    # within its bound: no admission, no epoch, the whole answer
    whole = svc.snapshot(staleness_bound=1)
    assert (whole.served, whole.epoch, whole.staleness) == (True, 0, 1)
    assert whole.value == svc.answer and whole.value is not svc._answer
    assert (asked, latency.count) == ([], 1)
    # past it: admitted once, caught up, then the same answer
    assert svc.ingest(UpdateBatch.of((0, 101, 0.5))).accepted
    assert svc.ingest(UpdateBatch.of((0, 102, 0.5))).accepted
    shed = svc.snapshot(staleness_bound=0)
    assert shed.reason == "catch-up of 3 epochs exceeds limit 1 " \
                          "(lag=3, bound=0)"
    assert (shed.served, shed.value, shed.staleness) == (False, None, 3)
    fresh = svc.snapshot(staleness_bound=2)
    assert (fresh.served, fresh.epoch, fresh.staleness) == (True, 1, 2)
    assert fresh.value == svc.answer and 100 in fresh.value
    assert asked == [(3, 0, shed.reason), (3, 2, None)]
    assert latency.count == 2
    assert svc.status()["staleness"]["total"] == 1 + 2
    assert svc.obs.log.counts() == {INGEST: 3, ADMISSION_SHED: 1,
                                    EPOCH_APPLY: 1}


#: sha256 of every read's ``(served, value, epoch, staleness, reason)``
#: in :func:`read_script`, as the read path answered it before reads
#: within their bound skipped admission
SCRIPT_DIGEST = ("1dcb01373b8cdabb03115620cfbedf52"
                 "66b32cd985137f0fa39dc55878d09bc0")


def read_script(svc, read, seed=3):
    """Seeded ingests, pumps and ``read(key, bound)`` calls at bounds
    0-3, some of which must catch up and some of which are shed; returns
    what the reads answered."""
    rng = random.Random(seed)
    answered, new = [], 100
    for _ in range(60):
        roll = rng.random()
        if roll < 0.25:
            edges = []
            for _ in range(rng.randint(1, 3)):
                edges.append((rng.randrange(new), new,
                              round(rng.uniform(0.5, 3.0), 3)))
                new += 1
            svc.ingest(UpdateBatch.of(*edges))
        elif roll < 0.3:
            svc.pump(1)
        else:
            answered.append(read(rng.randrange(new + 2), rng.randrange(4)))
    return answered


def test_a_read_script_answers_as_it_always_did():
    """Every read of a seeded ingest / read script answers as the one
    read path did before (pinned digest), and as the old path's steps —
    admission, catch-up, lookup — spelled out on a twin service."""
    svc = make_service(admission=AdmissionController(max_catchup=1))

    def query(key, bound):
        r = svc.query(key, staleness_bound=bound)
        return (r.served, r.value, r.epoch, r.staleness, r.reason)
    answered = read_script(svc, query)

    twin = make_service(admission=AdmissionController(max_catchup=1))

    def old_steps(key, bound):
        reason = twin.admission.admit_query(twin.lag, bound)
        if reason is not None:
            return (False, None, twin.epoch, twin.lag, reason)
        twin.pump(max(0, twin.lag - bound))
        return (True, twin.answer.get(key), twin.epoch, twin.lag, None)
    assert read_script(twin, old_steps) == answered
    assert sum(not r[0] for r in answered) > 0  # some were shed
    assert sum(r[3] > 0 for r in answered) > 0  # some read stale
    digest = hashlib.sha256(repr(answered).encode()).hexdigest()
    assert digest == SCRIPT_DIGEST


def test_snapshot_goes_through_the_same_contract():
    svc = make_service()
    svc.ingest(UpdateBatch.of((0, 100, 0.5)))
    whole = svc.snapshot(staleness_bound=0)
    assert whole.served and whole.value == svc.answer and svc.epoch == 1
    # its catch-up logged the epoch; the read itself, nothing
    assert svc.obs.log.counts() == {INGEST: 1, EPOCH_APPLY: 1}
    status = svc.status()
    assert status["queries"] == {"served": 1, "shed": 0}
    assert status["staleness"]["count"] == 1
    assert status["staleness"]["total"] == 0
    again = svc.snapshot(staleness_bound=0)
    assert again.value == whole.value and len(svc.obs.log) == 2
    assert svc.status()["query_latency"]["count"] == 2


def test_ingests_and_epochs_still_record_their_instruments():
    svc = make_service(admission=AdmissionController(max_pending_batches=2))
    receipts = [svc.ingest(UpdateBatch.of((0, 100 + i, 0.5)))
                for i in range(3)]
    assert [r.accepted for r in receipts] == [True, True, False]
    assert "ingest queue full" in receipts[2].reason
    assert svc.pump() == 2
    metrics = svc.obs.metrics
    assert metrics.histogram("serve_ingest_latency").count == 2
    assert metrics.counter("serve_batches_accepted").value == 2
    assert metrics.counter("serve_shed_batches").value == 1
    assert metrics.counter("serve_epochs").value == 2
    assert metrics.histogram("serve_epoch_duration").count == 2
    assert metrics.histogram("serve_epoch_changed").total == 2
    assert svc.obs.log.counts() == {INGEST: 2, ADMISSION_SHED: 1,
                                    EPOCH_APPLY: 2}
    assert all(set(e.payload) == set(SCHEMA[e.type]) for e in svc.obs.log)


def test_status_reads_the_handles_and_adds_no_state():
    svc = make_service()
    before = dict(vars(svc))
    views = [frag.compact() for frag in svc.pg]
    assert svc.status() == {
        "epoch": 0, "accepted": 0, "lag": 0,
        "engine": "dense", "nodes": 25, "edges": 40,
        "fragments": [{"nodes": len(view), "capacity": 2 * len(view),
                       "overflow_edges": 0, "merge_threshold": 64,
                       "merges": 0} for view in views],
        "queries": {"served": 0, "shed": 0},
        "batches": {"accepted": 0, "shed": 0},
        "query_latency": svc.obs.metrics.histogram(
            "serve_query_latency").summary(),
        "staleness": {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                      "max": 0.0},
        "epoch_duration": svc.obs.metrics.histogram(
            "serve_epoch_duration").summary(),
        "events": {"retained": 0, "dropped": 0},
    }
    before_status = svc.status()
    svc.ingest(UpdateBatch.of((0, 100, 0.5)))
    svc.ingest(UpdateBatch.of((100, 101, 0.5)))
    svc.pump(1)
    svc.query(0, staleness_bound=1)
    svc.query(0, staleness_bound=1)
    status = svc.status()
    assert (status["epoch"], status["accepted"], status["lag"]) == (1, 2, 1)
    # the applied epoch brought node 100 and one edge; the parked one not
    assert (status["nodes"], status["edges"]) == (26, 41)
    assert status["batches"] == {"accepted": 2, "shed": 0}
    assert status["queries"] == {"served": 2, "shed": 0}
    assert status["query_latency"]["count"] == 2
    assert status["epoch_duration"]["count"] == 1
    assert status["events"] == {"retained": len(svc.obs.log), "dropped": 0}
    # the epoch put node 100 and the edge to it on the arrays, in place
    assert [part["nodes"] for part in status["fragments"]] \
        == [len(view) for view in views]
    assert sum(part["nodes"] for part in status["fragments"]) \
        > sum(part["nodes"] for part in before_status["fragments"])
    assert sum(part["overflow_edges"] for part in status["fragments"]) >= 1
    assert all(part["capacity"] >= part["nodes"] and part["merges"] == 0
               for part in status["fragments"])
    assert vars(svc).keys() == before.keys()
    # two ingests and an epoch: neither the reads nor status() emit
    assert len(svc.obs.log) == 3


# -- the record types --------------------------------------------------
RECORDS = [
    (QueryResult,
     dict(served=True, value=1.5, epoch=3, staleness=1, latency=2e-6),
     dict(reason=None)),
    (IngestReceipt,
     dict(accepted=True, epoch=4, depth=2, latency=5e-5),
     dict(reason=None)),
    (ObsEvent, dict(type="barrier", t=0.25), dict(wid=-1, round=-1,
                                                   payload={})),
]


@pytest.mark.parametrize("cls, required, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, required, defaults):
    record = cls(**required)
    for name, value in {**required, **defaults}.items():
        assert getattr(record, name) == value
    assert cls._fields == tuple({**required, **defaults})
    # immutable: neither a field nor a new attribute can be set
    first = next(iter(required))
    with pytest.raises(AttributeError):
        setattr(record, first, required[first])
    with pytest.raises(AttributeError):
        record.extra = 1
    # equality is by value, and says no when any field differs
    assert record == cls(**required) == cls(**required, **defaults)
    changed = dict(required)
    changed[first] = "other"
    assert record != cls(**changed)
    # pickling keeps the type (worker reports and artifacts carry records)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    with pytest.raises(TypeError):
        cls()  # required fields stay required


def test_default_events_do_not_share_a_payload():
    a, b = ObsEvent(type="barrier", t=0.0), ObsEvent("barrier", 0.0)
    assert a.payload == {} and a.payload is not b.payload
    a.payload["step"] = 1
    assert b.payload == {}
    given = {"step": 2}
    event = ObsEvent(type="barrier", t=1.0, wid=0, round=3, payload=given)
    assert event.payload is given
    assert event.to_dict() == {"type": "barrier", "t": 1.0, "wid": 0,
                               "round": 3, "payload": {"step": 2}}
    assert event.to_dict()["payload"] is not given


def test_emitted_events_equal_constructed_ones():
    svc = make_service()
    svc.obs.log.emit("barrier", 1.0, wid=2, round=5, step=7)
    (event,) = svc.obs.log
    assert type(event) is ObsEvent
    assert event == ObsEvent(type="barrier", t=1.0, wid=2, round=5,
                             payload={"step": 7})
