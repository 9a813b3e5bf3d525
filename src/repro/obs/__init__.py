"""Unified observability layer shared by every runtime (paper, Section 6).

GRAPE+'s statistics collector is what makes adaptive DS adjustment — and the
paper's Fig. 1 / Fig. 7 analyses — possible.  This package provides its
reproduction-side equivalent as three composable pieces:

- :class:`~repro.obs.events.EventLog` — typed, timestamped event records
  (``round_start``, ``round_end``, ``msg_send``, ``msg_deliver``,
  ``ds_decision``, ``status_change``, ``barrier``, ``terminate_probe``)
  emitted by the simulated, threaded and multiprocess runtimes behind a
  zero-overhead-when-disabled hook (runtimes hold ``observer=None`` by
  default and guard every emission).
- :class:`~repro.obs.registry.MetricsRegistry` — named counters, gauges and
  histograms with an optional per-worker label; :class:`~repro.runtime.
  metrics.RunMetrics` is built on top of it, so all runtimes report the
  same schema.
- Exporters — Chrome ``trace_event`` JSON (:func:`~repro.obs.export.
  to_chrome_trace`, loadable in ``chrome://tracing`` / Perfetto), a JSONL
  dump, the JSON run report (:func:`~repro.obs.export.run_report`) and
  the Fig. 1 / Fig. 7 timing diagram (:func:`~repro.obs.export.
  ascii_gantt`), plus the delay-decision audit ("why did worker *i*
  wait?").

See ``docs/observability.md`` for the event schema and usage.
"""

import math

from repro.obs.audit import explain_delays
from repro.obs.events import (ADMISSION_SHED, BARRIER, CHECKPOINT,
                              DS_DECISION, EPOCH_APPLY, EVENT_TYPES,
                              FAILURE_DETECTED, FAULT_INJECTED,
                              HEARTBEAT_MISS, INGEST, MSG_DELIVER, MSG_SEND,
                              RETRY, ROLLBACK, ROUND_END, ROUND_START,
                              SCHEMA, STATUS_CHANGE, TERMINATE_PROBE,
                              EventLog, ObsEvent)
from repro.obs.export import (ascii_gantt, read_jsonl, round_slices,
                              run_report, to_chrome_trace,
                              write_chrome_trace, write_jsonl, write_report)
from repro.obs.registry import (Counter, Gauge, Histogram, MetricsRegistry)


class Observer:
    """Bundle of one run's event log and metrics registry.

    Runtimes accept ``observer=None`` (the default: no recording, zero
    overhead) or an :class:`Observer`; after the run, ``observer.log`` holds
    the event stream and ``observer.metrics`` the populated registry.
    """

    __slots__ = ("log", "metrics")

    def __init__(self, log: EventLog = None,
                 metrics: MetricsRegistry = None):
        self.log = log if log is not None else EventLog()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def record(self, type: str, t: float, wid: int, round: int,
               payload: dict) -> None:
        """The sink a :class:`~repro.core.step.WorkerStep` emits into: log
        the record and feed the instrument it maps to, if any.  The only
        copy of the event -> registry mapping: a record made in the run's
        own process and one shipped back from a worker both come here.
        """
        self.log.record(type, t, wid, round, payload)
        metrics = self.metrics
        if type == ROUND_END:
            metrics.histogram("round_duration", wid).observe(
                payload["duration"])
        elif type == ROUND_START:
            if payload["kind"] == "inceval":
                metrics.histogram("eta_at_drain", wid).observe(
                    payload["batches"])
        elif type == MSG_SEND:
            metrics.counter("wire_bytes").inc(payload["bytes"])
        elif type == MSG_DELIVER:
            metrics.histogram("buffer_depth", wid).observe(payload["depth"])
        elif type == DS_DECISION:
            if math.isinf(payload["ds"]):
                metrics.counter("ds_suspend", wid).inc()
            else:
                metrics.histogram("ds_chosen", wid).observe(payload["ds"])

    def __repr__(self) -> str:
        return (f"Observer(events={len(self.log)}, "
                f"metrics={len(self.metrics.names())})")


__all__ = [
    "Observer", "EventLog", "ObsEvent", "MetricsRegistry", "Counter",
    "Gauge", "Histogram", "to_chrome_trace", "write_chrome_trace",
    "write_jsonl", "read_jsonl", "run_report", "write_report",
    "round_slices", "ascii_gantt",
    "explain_delays", "EVENT_TYPES", "SCHEMA",
    "ROUND_START", "ROUND_END", "MSG_SEND", "MSG_DELIVER", "DS_DECISION",
    "STATUS_CHANGE", "BARRIER", "TERMINATE_PROBE", "HEARTBEAT_MISS",
    "FAILURE_DETECTED", "CHECKPOINT", "ROLLBACK", "RETRY", "FAULT_INJECTED",
    "INGEST", "EPOCH_APPLY", "ADMISSION_SHED",
]
