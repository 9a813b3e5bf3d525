"""Run metrics: the statistics collector of GRAPE+ (Section 6).

Gathers per-worker information — rounds, busy/idle/suspended time, messages
and bytes exchanged — and aggregates the quantities the paper reports:
response time, communication cost, idle time, and (at bench level, relative
to a BSP reference) stale computation.

An observed run also records the same per-worker numbers in its
:class:`~repro.obs.registry.MetricsRegistry` under the shared schema below
(:func:`registry_from_workers`, via ``from_workers(..., into=registry)``),
so every runtime reports identically beside the per-event histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.worker import WorkerMetrics
from repro.obs.registry import MetricsRegistry

#: per-worker integer counters in the shared registry schema
WORKER_COUNTERS = ("rounds", "messages_sent", "messages_received",
                   "bytes_sent", "bytes_received", "work_done")
#: per-worker time gauges in the shared registry schema
WORKER_TIMES = ("busy_time", "idle_time", "suspended_time")


@dataclass
class RunMetrics:
    """Aggregated statistics of one run."""

    workers: List[WorkerMetrics] = field(default_factory=list)
    #: simulated (or wall-clock) response time of the run
    makespan: float = 0.0
    #: total computation time across workers
    total_busy: float = 0.0
    total_idle: float = 0.0
    total_suspended: float = 0.0
    total_messages: int = 0
    total_bytes: int = 0
    total_work: int = 0
    total_rounds: int = 0

    @classmethod
    def from_workers(cls, workers: List[WorkerMetrics], makespan: float,
                     into: Optional[MetricsRegistry] = None) -> "RunMetrics":
        """Run metrics of ``workers``; an observed run passes its registry
        as ``into`` so the totals land beside the per-event histograms."""
        if into is not None:
            registry_from_workers(workers, into)
            into.gauge("makespan").set(makespan)
        m = cls(workers=list(workers), makespan=makespan)
        for w in workers:
            m.total_busy += w.busy_time
            m.total_idle += w.idle_time
            m.total_suspended += w.suspended_time
            m.total_messages += w.messages_sent
            m.total_bytes += w.bytes_sent
            m.total_work += w.work_done
            m.total_rounds += w.rounds
        return m

    @property
    def max_rounds(self) -> int:
        return max((w.rounds for w in self.workers), default=0)

    @property
    def idle_ratio(self) -> float:
        denom = self.total_busy + self.total_idle + self.total_suspended
        return self.total_idle / denom if denom > 0 else 0.0

    def straggler_rounds(self) -> int:
        """Rounds taken by the worker with the most computation time.

        The paper's Appendix B reports how many rounds the *straggler* needed
        under each model; the straggler is the worker with max busy time.
        """
        if not self.workers:
            return 0
        straggler = max(self.workers, key=lambda w: w.busy_time)
        return straggler.rounds

    def summary(self) -> Dict[str, float]:
        return {
            "makespan": self.makespan,
            "total_busy": self.total_busy,
            "total_idle": self.total_idle,
            "idle_ratio": self.idle_ratio,
            "total_messages": float(self.total_messages),
            "total_bytes": float(self.total_bytes),
            "total_work": float(self.total_work),
            "total_rounds": float(self.total_rounds),
            "max_rounds": float(self.max_rounds),
        }


def registry_from_workers(workers: List[WorkerMetrics],
                          registry: MetricsRegistry) -> None:
    """Record final per-worker statistics in ``registry`` under the shared
    schema."""
    for w in workers:
        for name in WORKER_COUNTERS:
            counter = registry.counter(name, w.wid)
            counter.value = getattr(w, name)
        for name in WORKER_TIMES:
            registry.gauge(name, w.wid).set(getattr(w, name))
