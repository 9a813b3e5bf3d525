"""Streaming graph updates.

The paper's conclusion names *"handling streaming updates by capitalizing
on the capability of incremental IncEval"* as future work; this package
implements it for the monotone programs.  An update batch is a set of edge
insertions (plus implicit node additions).  Insertions keep CC and SSSP
monotone — cids and distances can only decrease — so Theorem 2 still
applies to the continuation runs.

Deletions would break monotonicity (a removed edge can *increase*
distances), which is why :class:`UpdateBatch` rejects them; handling
deletions needs the paper's bounded-incremental machinery with resets and
is out of scope here (documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import ProgramError

Node = Hashable
EdgeInsertion = Tuple[Node, Node, float]


@dataclass(frozen=True)
class UpdateBatch:
    """A batch of edge insertions ``(u, v, weight)``.

    A batch is the atomic unit of ingestion: it is validated as a whole
    and applied as a whole.  Within-batch duplicate edges are rejected at
    construction — a duplicate would slip past a receiver's
    ``has_edge``-against-the-current-graph check and double-insert.
    """

    insertions: Tuple[EdgeInsertion, ...]

    def __post_init__(self):
        if not self.insertions:
            raise ProgramError("an update batch must contain insertions")
        seen: Set[Tuple[Node, Node]] = set()
        for u, v, _ in self.insertions:
            if u == v:
                raise ProgramError(
                    f"self-loop insertion ({u!r}, {v!r}) is not supported")
            if (u, v) in seen:
                raise ProgramError(
                    f"duplicate edge ({u!r}, {v!r}) within one batch")
            seen.add((u, v))

    @classmethod
    def of(cls, *edges: Iterable) -> "UpdateBatch":
        normalised: List[EdgeInsertion] = []
        for e in edges:
            if len(e) == 2:
                normalised.append((e[0], e[1], 1.0))
            elif len(e) == 3:
                normalised.append((e[0], e[1], float(e[2])))
            else:
                raise ProgramError(f"bad edge insertion: {e!r}")
        return cls(insertions=tuple(normalised))

    def __len__(self) -> int:
        return len(self.insertions)


def validate_batch(graph: Any, batch: UpdateBatch,
                   staged: Optional[Set[frozenset]] = None
                   ) -> List[frozenset]:
    """Check a whole batch against ``graph`` — anything with ``directed``
    and ``has_edge``: a :class:`~repro.graph.graph.Graph`, or the
    :class:`~repro.partition.fragment.PartitionedGraph` a service keeps —
    before anything mutates; returns the :func:`edge_key` of each
    insertion, in order.

    Raises :class:`~repro.errors.ProgramError` if any insertion duplicates
    an existing edge (including reversed duplicates on undirected graphs,
    which ``UpdateBatch`` itself cannot see — it does not know the graph's
    directedness) or an edge in ``staged`` (edges of batches accepted but
    not yet applied, so a queued service validates against the graph it
    *will* have).  Validating up front is what makes ``apply`` atomic: a
    rejected batch leaves graph, engine and owner map untouched.
    """
    seen: Set[frozenset] = set()
    keys = []
    directed = graph.directed
    for u, v, _ in batch.insertions:
        if u == v:
            # re-checked here (not just at batch construction) so a
            # hand-built batch still cannot break apply's atomicity
            raise ProgramError(
                f"self-loop insertion ({u!r}, {v!r}) is not supported")
        key = _edge_key(directed, u, v)
        if key in seen:
            raise ProgramError(
                f"duplicate edge ({u!r}, {v!r}) within one batch")
        seen.add(key)
        keys.append(key)
        if staged is not None and key in staged:
            raise ProgramError(
                f"edge ({u!r}, {v!r}) already staged by a pending batch")
        if graph.has_edge(u, v):
            raise ProgramError(
                f"edge ({u!r}, {v!r}) already exists; weight changes "
                f"are not monotone-safe")
    return keys


def edge_key(graph: Any, u: Node, v: Node) -> frozenset:
    """The identity of edge ``(u, v)`` under ``graph``'s directedness."""
    return _edge_key(graph.directed, u, v)


def _edge_key(directed: bool, u: Node, v: Node) -> frozenset:
    if directed:
        return frozenset((("s", u), ("d", v)))
    return frozenset((u, v))
