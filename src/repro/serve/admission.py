"""Admission control for the resident graph service.

A resident service that never says no falls over in the worst way: the
ingest queue grows without bound, every query pays an unbounded catch-up
bill, and by the time anything fails the failure is memory exhaustion
rather than a refusal the client can act on.  The controller bounds both
queues and *sheds-and-reports*: rejected work is returned to the caller
with a reason (and surfaced as an ``admission_shed`` obs event by the
service) instead of silently dropped or silently queued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import RuntimeConfigError


@dataclass
class AdmissionController:
    """Decide whether to accept an update batch or a read that must catch up.

    - ``max_pending_batches`` bounds the ingest queue: an
      :meth:`~repro.serve.service.GraphService.ingest` arriving when the
      queue is full is shed, so backlog (and the staleness debt queries
      must pay down) stays bounded.
    - ``max_catchup`` bounds the work one read may force: the service asks
      only when a read must catch up, and sheds it if that means applying
      more than this many pending batches.  ``None`` disables the bound.
    """

    max_pending_batches: int = 64
    max_catchup: Optional[int] = 32

    def __post_init__(self):
        # a negative limit would shed every batch or every catch-up
        if min(self.max_pending_batches, self.max_catchup or 0) < 0:
            raise RuntimeConfigError(
                f"admission limits must be >= 0, got {self}")

    def admit_batch(self, depth: int) -> Optional[str]:
        """``None`` to accept a batch at queue depth ``depth``, else the
        shed reason."""
        if depth >= self.max_pending_batches:
            return (f"ingest queue full ({depth} >= "
                    f"{self.max_pending_batches} pending batches)")
        return None

    def admit_query(self, lag: int, bound: int) -> Optional[str]:
        """``None`` to accept a read, else the shed reason; the service
        asks only when a read must catch up (``lag > bound``).

        ``lag`` is the current staleness (pending batches); ``bound`` is
        the read's declared maximum, so ``lag - bound`` is the number of
        epochs the service would have to apply before answering.
        """
        if self.max_catchup is None:
            return None
        needed = lag - bound
        if needed > self.max_catchup:
            return (f"catch-up of {needed} epochs exceeds limit "
                    f"{self.max_catchup} (lag={lag}, bound={bound})")
        return None
