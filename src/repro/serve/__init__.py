"""Resident bounded-staleness serving on top of incremental IncEval.

The streaming package defines update batches; this package is the one
way to keep a computation alive across them, as a *service*: PEval once,
fragments warm, continuous ingest through in-place partition growth +
inc_update continuations, and read queries answered under a declared
staleness bound (see :mod:`repro.serve.service` and ``docs/serving.md``).
"""

from repro.serve.admission import AdmissionController
from repro.serve.loadgen import (LoadGenerator, latency_summary, percentile,
                                 verify_against_recompute)
from repro.serve.service import (GraphService, IngestReceipt, QueryResult,
                                 RUNTIMES)

__all__ = [
    "AdmissionController", "GraphService", "IngestReceipt", "QueryResult",
    "RUNTIMES", "LoadGenerator", "latency_summary", "percentile",
    "verify_against_recompute",
]
