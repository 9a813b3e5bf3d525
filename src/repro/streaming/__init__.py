"""Streaming updates on top of incremental IncEval (paper's future work)."""

from repro.streaming.session import StreamingSession, integrate_insertions
from repro.streaming.updates import UpdateBatch, edge_key, validate_batch

__all__ = ["StreamingSession", "UpdateBatch", "edge_key",
           "integrate_insertions", "validate_batch"]
