"""Tests for the metrics registry and its RunMetrics integration."""

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime.metrics import RunMetrics, WorkerMetrics


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge(self):
        g = Gauge()
        g.set(2.5)
        g.add(0.5)
        assert g.value == 3.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["total"] == 6.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["min"] == 1.0 and s["max"] == 3.0

    def test_empty_histogram_summary_is_finite(self):
        s = Histogram().summary()
        assert s == {"count": 0, "total": 0.0, "mean": 0.0,
                     "min": 0.0, "max": 0.0}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("msgs", 0) is r.counter("msgs", 0)
        assert r.counter("msgs", 0) is not r.counter("msgs", 1)
        assert r.counter("msgs", 0) is not r.counter("msgs")

    def test_type_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("x", 0)
        with pytest.raises(TypeError):
            r.gauge("x", 0)

    def test_get_missing_returns_none(self):
        assert MetricsRegistry().get("nope", 3) is None

    def test_names_and_wids(self):
        r = MetricsRegistry()
        r.counter("rounds", 1)
        r.counter("rounds", 0)
        r.gauge("makespan")
        assert r.names() == ["makespan", "rounds"]
        assert r.wids("rounds") == [0, 1]
        assert r.wids("makespan") == []

    def test_as_dict_labels(self):
        r = MetricsRegistry()
        r.counter("rounds", 0).inc(4)
        r.gauge("makespan").set(1.5)
        r.histogram("round_duration", 0).observe(0.5)
        d = r.as_dict()
        assert d["rounds"]["0"] == 4
        assert d["makespan"]["all"] == 1.5
        assert d["round_duration"]["0"]["count"] == 1


class TestRunMetricsIntegration:
    def _workers(self):
        return [
            WorkerMetrics(wid=0, rounds=3, busy_time=2.0, idle_time=1.0,
                          suspended_time=0.5, messages_sent=7,
                          messages_received=6, bytes_sent=70,
                          bytes_received=60, work_done=11),
            WorkerMetrics(wid=1, rounds=2, busy_time=1.0, idle_time=2.5,
                          suspended_time=0.0, messages_sent=6,
                          messages_received=7, bytes_sent=60,
                          bytes_received=70, work_done=9),
        ]

    def test_from_workers_equals_from_registry(self):
        """The totals are the sums of what an observed run's registry
        holds per worker, and the workers are the ones handed in."""
        workers = self._workers()
        registry = MetricsRegistry()
        m = RunMetrics.from_workers(workers, makespan=3.5, into=registry)

        def total(name):
            return sum(registry.get(name, wid).value
                       for wid in registry.wids(name))

        assert m.makespan == 3.5
        assert m.total_busy == total("busy_time") == 3.0
        assert m.total_idle == total("idle_time") == 3.5
        assert m.total_suspended == total("suspended_time") == 0.5
        assert m.total_messages == total("messages_sent") == 13
        assert m.total_bytes == total("bytes_sent") == 130
        assert m.total_work == total("work_done") == 20
        assert m.total_rounds == total("rounds") == 5
        assert m.workers == workers
        assert m == RunMetrics.from_workers(workers, makespan=3.5)

    def test_from_workers_into_sets_makespan_gauge(self):
        registry = MetricsRegistry()
        RunMetrics.from_workers(self._workers(), makespan=9.0,
                                into=registry)
        assert registry.get("makespan").value == 9.0

    def test_from_workers_builds_no_registry_unasked(self, monkeypatch):
        import repro.runtime.metrics as metrics_mod

        def boom(*args, **kwargs):
            raise AssertionError("an unobserved run built a registry")

        monkeypatch.setattr(metrics_mod, "MetricsRegistry", boom)
        m = RunMetrics.from_workers(self._workers(), makespan=3.5)
        assert m.total_rounds == 5
