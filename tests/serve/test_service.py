"""Unit tests for the resident graph service: admission, cache, epochs,
staleness accounting and observability."""

import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.errors import ProgramError, ReproError, RuntimeConfigError
from repro.graph import analysis, generators
from repro.obs import ADMISSION_SHED, EPOCH_APPLY, INGEST, QUERY_SERVED
from repro.serve import (AdmissionController, GraphService, QueryCache,
                         verify_against_recompute)
from repro.streaming import UpdateBatch


def make_service(**kw):
    g = generators.grid2d(5, 5, weighted=True, seed=1)
    kw.setdefault("runtime", "simulated")
    return GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                        num_fragments=3, **kw)


class TestIngestAndEpochs:
    def test_ingest_parks_and_query_catches_up(self):
        svc = make_service()
        r1 = svc.ingest(UpdateBatch.of((0, 100, 0.5)))
        r2 = svc.ingest(UpdateBatch.of((100, 101, 0.5)))
        assert r1.accepted and r2.accepted
        assert (svc.accepted, svc.epoch, svc.lag) == (2, 0, 2)
        loose = svc.query(0, staleness_bound=5)
        assert loose.served and loose.staleness == 2 and svc.epoch == 0
        fresh = svc.query(101, staleness_bound=0)
        assert fresh.staleness == 0 and svc.epoch == 2
        assert fresh.value == pytest.approx(1.0)

    def test_invalid_batch_rejected_atomically(self):
        svc = make_service()
        edges_before = sorted(svc.graph.edges())
        with pytest.raises(ProgramError):
            svc.ingest(UpdateBatch.of((40, 41, 1.0), (0, 1, 2.0)))
        assert sorted(svc.graph.edges()) == edges_before
        assert (svc.accepted, svc.lag) == (0, 0)

    def test_cross_batch_duplicate_rejected_while_staged(self):
        svc = make_service()
        assert svc.ingest(UpdateBatch.of((0, 100, 0.5))).accepted
        with pytest.raises(ProgramError):
            svc.ingest(UpdateBatch.of((100, 0, 0.5)))  # undirected dup
        svc.flush()
        with pytest.raises(ProgramError):  # now a graph duplicate
            svc.ingest(UpdateBatch.of((0, 100, 0.5)))

    def test_flush_drains_and_matches_recompute(self):
        svc = make_service()
        svc.ingest(UpdateBatch.of((0, 100, 0.1), (100, 24, 0.1)))
        svc.ingest(UpdateBatch.of((100, 101, 0.2)))
        assert svc.flush() == 2
        assert svc.lag == 0
        assert svc.answer == analysis.dijkstra(svc.graph, 0)

    def test_bad_runtime_name(self):
        with pytest.raises(ReproError):
            make_service(runtime="quantum")


class TestAdmission:
    def test_ingest_shed_when_queue_full(self):
        svc = make_service(
            admission=AdmissionController(max_pending_batches=2))
        assert svc.ingest(UpdateBatch.of((0, 100, 1.0))).accepted
        assert svc.ingest(UpdateBatch.of((0, 101, 1.0))).accepted
        shed = svc.ingest(UpdateBatch.of((0, 102, 1.0)))
        assert not shed.accepted and "full" in shed.reason
        assert svc.lag == 2  # the shed batch left no trace
        sheds = [e for e in svc.obs.log.events if e.type == ADMISSION_SHED]
        assert sheds and sheds[-1].payload["kind"] == "batch"
        # draining the queue re-opens admission
        svc.flush()
        assert svc.ingest(UpdateBatch.of((0, 102, 1.0))).accepted

    def test_query_shed_when_catchup_too_expensive(self):
        svc = make_service(
            admission=AdmissionController(max_pending_batches=10,
                                          max_catchup=1))
        for k in range(3):
            svc.ingest(UpdateBatch.of((0, 100 + k, 1.0)))
        shed = svc.query(0, staleness_bound=0)  # needs 3 epochs, cap is 1
        assert not shed.served and "catch-up" in shed.reason
        assert svc.epoch == 0  # shed before any work
        ok = svc.query(0, staleness_bound=2)  # needs 1 epoch: admitted
        assert ok.served and ok.staleness <= 2

    def test_negative_bound_rejected(self):
        svc = make_service()
        with pytest.raises(ProgramError):
            svc.query(0, staleness_bound=-1)

    @pytest.mark.parametrize("limits", [dict(max_catchup=-1),
                                        dict(max_pending_batches=-1)])
    def test_negative_limits_rejected(self, limits):
        """A negative limit would shed every read (even one whose bound
        is met) or every batch; it is refused when the controller is
        made."""
        with pytest.raises(RuntimeConfigError, match="must be >= 0"):
            AdmissionController(**limits)
        # zero is a limit, and no limit is None
        svc = make_service(admission=AdmissionController(
            max_pending_batches=1, max_catchup=0))
        assert svc.query(0, staleness_bound=0).served
        assert AdmissionController(max_catchup=None).admit_query(9, 0) \
            is None


class TestQueryCache:
    def test_lru_unit(self):
        cache = QueryCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)
        cache.put("c", 3)  # evicts "b" (least recently used)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.invalidate(["a", "zzz"]) == 1
        assert cache.get("a") == (False, None)
        assert cache.stats()["hits"] == 2

    def test_invalidating_a_negative_entry_counts(self):
        """A key read before its node exists is cached as ``None``;
        dropping that entry is an invalidation like any other."""
        cache = QueryCache()
        cache.put("ghost", None)
        assert cache.invalidate(["ghost", "never-cached"]) == 1
        assert cache.stats()["invalidations"] == 1
        svc = make_service()
        assert svc.query(100, staleness_bound=0).value is None
        svc.ingest(UpdateBatch.of((0, 100, 0.5)))
        fresh = svc.query(100, staleness_bound=0)
        assert not fresh.cache_hit and fresh.value == 0.5
        assert svc.cache.stats()["invalidations"] == 1

    def test_hit_miss_evict_invalidate_sequence(self):
        """Counts and LRU order after every step; a cached ``None`` is a
        hit, an absent key a miss."""
        cache = QueryCache(capacity=3)
        steps = [
            (lambda: cache.get("a"), (False, None), [], (0, 1, 0)),
            (lambda: cache.put("a", None), None, ["a"], (0, 1, 0)),
            (lambda: cache.put("b", 2), None, ["a", "b"], (0, 1, 0)),
            (lambda: cache.get("a"), (True, None), ["b", "a"], (1, 1, 0)),
            (lambda: cache.put("c", 3), None, ["b", "a", "c"], (1, 1, 0)),
            (lambda: cache.put("d", 4), None, ["a", "c", "d"], (1, 1, 0)),
            (lambda: cache.get("b"), (False, None), ["a", "c", "d"],
             (1, 2, 0)),
            (lambda: cache.get("c"), (True, 3), ["a", "d", "c"], (2, 2, 0)),
            (lambda: cache.invalidate(["d", "zzz", "a"]), 2, ["c"],
             (2, 2, 2)),
            (lambda: cache.get("a"), (False, None), ["c"], (2, 3, 2)),
            (lambda: cache.put("c", 5), None, ["c"], (2, 3, 2)),
            (lambda: cache.get("c"), (True, 5), ["c"], (3, 3, 2)),
        ]
        for step, returned, order, counts in steps:
            assert step() == returned
            assert list(cache._entries) == order
            assert (cache.hits, cache.misses, cache.invalidations) == counts
        assert cache.stats()["hit_rate"] == 0.5

    def test_capacity_zero_disables(self):
        cache = QueryCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)

    def test_service_hits_then_invalidates_on_change(self):
        svc = make_service()
        first = svc.query(24, staleness_bound=0)
        second = svc.query(24, staleness_bound=0)
        assert not first.cache_hit and second.cache_hit
        # a shortcut into the corner changes 24's distance -> invalidated
        svc.ingest(UpdateBatch.of((0, 100, 0.01), (100, 24, 0.01)))
        third = svc.query(24, staleness_bound=0)
        assert not third.cache_hit
        assert third.value == pytest.approx(0.02)
        assert svc.query(24, staleness_bound=0).cache_hit

    def test_unchanged_keys_survive_epochs(self):
        svc = make_service()
        svc.query(0, staleness_bound=0)  # the source never changes
        svc.ingest(UpdateBatch.of((24, 100, 1.0)))
        svc.flush()
        assert svc.query(0, staleness_bound=0).cache_hit


class TestSnapshotsAndObs:
    def test_snapshot_under_bound(self):
        svc = make_service()
        svc.ingest(UpdateBatch.of((0, 100, 0.5)))
        snap = svc.snapshot(staleness_bound=0)
        assert snap.staleness == 0
        assert snap.value == svc.answer
        assert 100 in snap.value

    def test_events_and_histograms_recorded(self):
        svc = make_service()
        svc.ingest(UpdateBatch.of((0, 100, 0.5)))
        svc.query(100, staleness_bound=0)
        types = [e.type for e in svc.obs.log.events]
        assert INGEST in types and EPOCH_APPLY in types \
            and QUERY_SERVED in types
        assert svc.obs.metrics.histogram("serve_query_latency").count == 1
        assert svc.obs.metrics.histogram("serve_ingest_latency").count == 1
        assert svc.obs.metrics.histogram("serve_staleness").count == 1
        assert svc.obs.metrics.counter("serve_epochs").value == 1
        epoch_events = [e for e in svc.obs.log.events
                        if e.type == EPOCH_APPLY]
        assert epoch_events[0].payload["epoch"] == 1
        assert epoch_events[0].payload["edges"] == 1

    def test_own_event_log_is_a_ring(self, monkeypatch):
        """The service's own log retains the recent past, the histograms
        see everything; a caller's observer is used as handed in."""
        from repro.obs import Observer
        from repro.serve import service
        assert make_service().obs.log.capacity == service.EVENT_LOG_CAPACITY
        monkeypatch.setattr(service, "EVENT_LOG_CAPACITY", 5)
        svc = make_service()
        for _ in range(12):
            svc.query(0, staleness_bound=0)
        assert len(svc.obs.log) == 5 and svc.obs.log.dropped == 7
        assert svc.obs.metrics.counter("serve_queries").value == 12
        mine = Observer()
        assert make_service(observer=mine).obs.log.capacity is None

    def test_cc_service_merges_components(self):
        g = generators.path_graph(6, weighted=True, seed=0)
        g.add_edge(10, 11, 1.0)
        svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=3,
                           runtime="simulated")
        assert len(set(svc.answer.values())) == 2
        svc.ingest(UpdateBatch.of((5, 10, 1.0)))
        res = svc.query(11, staleness_bound=0)
        assert res.value == svc.query(0, staleness_bound=0).value
        assert verify_against_recompute(svc)


def test_a_dense_service_rejects_an_id_that_is_no_integer_at_ingest():
    """Atomically, like any bad batch: nothing is staged, the service
    goes on; a service on the generic engine takes any hashable."""
    from repro.algorithms import SSSPProgram, SSSPQuery
    from repro.errors import ProgramError
    from repro.graph import generators
    from repro.serve import GraphService, verify_against_recompute
    from repro.streaming import UpdateBatch

    class Generic(SSSPProgram):
        dense_capable = False

    graph = generators.grid2d(4, 4, weighted=True, seed=1)
    dense = GraphService(SSSPProgram(), graph, SSSPQuery(source=0),
                         num_fragments=2, runtime="simulated")
    with pytest.raises(ProgramError, match="non-negative integer"):
        dense.ingest(UpdateBatch.of((0, 99, 1.0), (99, "x", 1.0)))
    assert dense.lag == 0 and not dense._staged
    dense.ingest(UpdateBatch.of((0, 99, 1.0)))
    assert dense.flush() == 1 and verify_against_recompute(dense)

    generic = GraphService(Generic(), graph, SSSPQuery(source=0),
                           num_fragments=2, runtime="simulated")
    generic.ingest(UpdateBatch.of((0, 99, 1.0), (99, "x", 1.0)))
    assert generic.flush() == 1 and verify_against_recompute(generic)
    assert generic.answer["x"] == 2.0
