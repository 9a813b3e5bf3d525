"""Update batches for the live computation a
:class:`~repro.serve.GraphService` keeps (paper's future work)."""

from repro.streaming.updates import UpdateBatch, edge_key, validate_batch

__all__ = ["UpdateBatch", "edge_key", "validate_batch"]
