"""Run results: the answer plus everything the evaluation section measures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.runtime
    from repro.runtime.metrics import RunMetrics


@dataclass
class RunResult:
    """Outcome of parallelising a PIE program under one model.

    ``answer`` is ``rho(Q, G)`` — the assembled result.  ``metrics`` carries
    the measured quantities (response time, communication, rounds); the
    rounds themselves are in the observer's log (``extras["obs"]``), when
    the run had one.
    """

    answer: Any
    mode: str
    metrics: "RunMetrics"
    #: per-worker rounds at termination (r_i of the fixpoint)
    rounds: List[int] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def time(self) -> float:
        """Response time (simulated time units, or seconds for threaded)."""
        return self.metrics.makespan

    @property
    def communication_bytes(self) -> int:
        return self.metrics.total_bytes

    def __repr__(self) -> str:
        return (f"RunResult(mode={self.mode!r}, time={self.time:.3f}, "
                f"rounds={self.rounds}, msgs={self.metrics.total_messages})")
