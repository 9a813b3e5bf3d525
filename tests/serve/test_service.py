"""Unit tests for the resident graph service: admission, epochs, reads,
staleness accounting and observability."""

import warnings

import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.errors import (PartitionError, ProgramError, ReproError,
                          RuntimeConfigError)
from repro.graph import analysis, generators
from repro.obs import ADMISSION_SHED, EPOCH_APPLY, INGEST
from repro.serve import (AdmissionController, GraphService,
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

    @pytest.mark.parametrize("m", [0, -1])
    def test_fewer_than_one_fragment_is_refused(self, m):
        """Refused before placement, in the partitioners' words, and with
        no numpy warning on the way."""
        g = generators.grid2d(3, 3, weighted=True, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PartitionError,
                               match=r"^num_fragments must be >= 1$"):
                GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                             num_fragments=m, runtime="simulated")


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


class TestReads:
    """A read is a lookup in the answer the epochs maintain."""

    def test_a_key_read_before_its_node_exists_reads_its_value_after(self):
        svc = make_service()
        assert svc.query(100, staleness_bound=0).value is None
        svc.ingest(UpdateBatch.of((0, 100, 0.5)))
        assert svc.query(100, staleness_bound=0).value == 0.5

    def test_a_read_after_an_epoch_sees_the_changed_value(self):
        svc = make_service()
        first = svc.query(24, staleness_bound=0)
        assert svc.query(24, staleness_bound=0).value == first.value
        # a shortcut into the corner changes 24's distance
        svc.ingest(UpdateBatch.of((0, 100, 0.01), (100, 24, 0.01)))
        third = svc.query(24, staleness_bound=0)
        assert third.value == pytest.approx(0.02) != first.value
        assert svc.query(24, staleness_bound=0).value == third.value

    def test_an_unchanged_key_reads_the_same_across_epochs(self):
        svc = make_service()
        before = svc.query(0, staleness_bound=0)  # the source never moves
        svc.ingest(UpdateBatch.of((24, 100, 1.0)))
        svc.flush()
        after = svc.query(0, staleness_bound=0)
        assert (before.value, before.epoch) == (0.0, 0)
        assert (after.value, after.epoch) == (0.0, 1)


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
        # the read is in its histograms, not in the log
        assert svc.obs.log.counts() == {INGEST: 1, EPOCH_APPLY: 1}
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
        for i in range(6):  # an ingest and an epoch each: 12 events
            svc.ingest(UpdateBatch.of((0, 100 + i, 0.5)))
            svc.query(0, staleness_bound=0)
        assert len(svc.obs.log) == 5 and svc.obs.log.dropped == 7
        assert [e.type for e in svc.obs.log][-2:] == [INGEST, EPOCH_APPLY]
        metrics = svc.obs.metrics
        assert metrics.histogram("serve_ingest_latency").count == 6
        assert metrics.histogram("serve_epoch_duration").count == 6
        assert metrics.histogram("serve_query_latency").count == 6
        mine = Observer()
        assert make_service(observer=mine).obs.log.capacity is None

    def test_the_ring_keeps_its_epochs(self):
        """Ten cycles of the benchmark's shape (2 ingests, ``pump(1)``, a
        bound-0 read, 2,000 reads at bound 4) in the default ring: reads
        write no row, so every ingest and epoch is retained."""
        svc = make_service()
        for cycle in range(10):
            for j in range(2):
                batch = UpdateBatch.of((0, 100 + 2 * cycle + j, 0.5))
                assert svc.ingest(batch).accepted
            assert svc.pump(1) == 1
            assert svc.query(0, staleness_bound=0).epoch == 2 * cycle + 2
            for i in range(2000):
                assert svc.query(i % 30, staleness_bound=4).served
        assert svc.obs.log.counts() == {INGEST: 20, EPOCH_APPLY: 20}
        assert svc.obs.log.dropped == 0
        assert svc.status()["queries"]["served"] == 10 * 2001

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
