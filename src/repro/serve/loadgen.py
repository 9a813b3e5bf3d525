"""Seeded load generator for :class:`~repro.serve.GraphService`.

Drives a mixed update/query workload against a service and reports what a
serving benchmark cares about: query latency percentiles, the staleness
actually served (and whether any answer violated its declared bound —
the contract check), sustained update throughput and shed counts.
Everything is derived from one ``random.Random(seed)``, so a report is
reproducible bit-for-bit given the same service configuration.

Query keys are drawn with a configurable skew (``index ~ n * u**skew``
over the known-node list, so low-index nodes are hot), the way a service
is read: a few hot keys asked over and over.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set

from repro.errors import ReproError
from repro.serve.service import GraphService
from repro.streaming.updates import UpdateBatch

Node = Hashable

#: the share of generated edges that bring a brand-new node
GROW_FRACTION = 0.5


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def latency_summary(latencies: List[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/max in milliseconds."""
    ordered = sorted(latencies)
    to_ms = 1000.0
    return {
        "count": len(ordered),
        "p50_ms": percentile(ordered, 50) * to_ms,
        "p95_ms": percentile(ordered, 95) * to_ms,
        "p99_ms": percentile(ordered, 99) * to_ms,
        "mean_ms": (sum(ordered) / len(ordered) * to_ms) if ordered else 0.0,
        "max_ms": (ordered[-1] * to_ms) if ordered else 0.0,
    }


class LoadGenerator:
    """Build a reproducible op stream and run it against one service."""

    def __init__(self, service: GraphService, seed: int = 0,
                 num_queries: int = 1000, num_batches: int = 20,
                 batch_size: int = 8, skew: float = 2.0,
                 staleness_bounds: Sequence[int] = (0, 1, 2, 4)):
        if num_queries < 1 or num_batches < 1:
            raise ReproError(
                "LoadGenerator needs at least one query and one batch")
        if batch_size < 1:
            raise ReproError(
                f"LoadGenerator needs batch_size >= 1, got {batch_size}")
        self.service = service
        self.rng = random.Random(seed)
        self.seed = seed
        self.num_queries = num_queries
        self.num_batches = num_batches
        self.batch_size = batch_size
        self.skew = skew
        self.staleness_bounds = tuple(staleness_bounds)
        # node ids the generator knows about (grows as it invents nodes);
        # sorted by repr for cross-run determinism regardless of set order
        graph = service.graph
        self.nodes: List[Node] = sorted(graph.nodes, key=repr)
        self._known: Set[Node] = set(self.nodes)
        self._edges: Set[frozenset] = set()
        directed = graph.directed
        for u, v, _ in graph.edges():
            self._edges.add(self._ekey(u, v, directed))
        self._next_id = 1 + max(
            (v for v in self.nodes if isinstance(v, int)), default=-1)
        self._directed = directed

    @staticmethod
    def _ekey(u: Node, v: Node, directed: bool) -> frozenset:
        if directed:
            return frozenset((("s", u), ("d", v)))
        return frozenset((u, v))

    # -- workload pieces -----------------------------------------------
    def _pick_key(self) -> Node:
        """Skewed choice: low indices are hot (u**skew concentrates)."""
        idx = int(len(self.nodes) * (self.rng.random() ** self.skew))
        return self.nodes[min(idx, len(self.nodes) - 1)]

    def _fresh_edge(self) -> Optional[Any]:
        """One edge not in the graph and not already generated."""
        for _ in range(64):
            if self.rng.random() < GROW_FRACTION:
                u = self._pick_key()
                v = self._next_id
                self._next_id += 1
                self._known.add(v)
                self.nodes.append(v)
            else:
                u = self._pick_key()
                v = self._pick_key()
                if u == v:
                    continue
            key = self._ekey(u, v, self._directed)
            if key in self._edges:
                continue
            self._edges.add(key)
            return (u, v, round(self.rng.uniform(1.0, 4.0), 3))
        return None

    def next_batch(self) -> Optional[UpdateBatch]:
        edges = []
        for _ in range(self.batch_size):
            e = self._fresh_edge()
            if e is not None:
                edges.append(e)
        if not edges:
            return None
        return UpdateBatch(insertions=tuple(edges))

    # -- the run -------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        svc = self.service
        ops = ["q"] * self.num_queries + ["u"] * self.num_batches
        self.rng.shuffle(ops)
        query_latencies: List[float] = []
        staleness_counts: Dict[int, int] = {}
        violations = 0
        served = shed_queries = 0
        batches_ok = batches_shed = edges_applied = 0
        ingest_seconds = 0.0
        for op in ops:
            if op == "u":
                batch = self.next_batch()
                if batch is None:
                    continue
                receipt = svc.ingest(batch)
                ingest_seconds += receipt.latency
                if receipt.accepted:
                    batches_ok += 1
                    edges_applied += len(batch)
                else:
                    batches_shed += 1
                continue
            bound = self.rng.choice(self.staleness_bounds)
            result = svc.query(self._pick_key(), staleness_bound=bound)
            if not result.served:
                shed_queries += 1
                continue
            served += 1
            query_latencies.append(result.latency)
            staleness_counts[result.staleness] = \
                staleness_counts.get(result.staleness, 0) + 1
            if result.staleness > bound:
                violations += 1
        svc.flush()
        epoch_hist = svc.obs.metrics.histogram("serve_epoch_duration")
        apply_seconds = epoch_hist.total
        busy = ingest_seconds + apply_seconds
        status = svc.status()
        report = {
            "seed": self.seed,
            "workload": {
                "num_queries": self.num_queries,
                "num_batches": self.num_batches,
                "batch_size": self.batch_size,
                "skew": self.skew,
                "staleness_bounds": list(self.staleness_bounds),
            },
            "queries": {
                "served": served,
                "shed": shed_queries,
                "latency": latency_summary(query_latencies),
            },
            "staleness": {
                "histogram": {str(k): staleness_counts[k]
                              for k in sorted(staleness_counts)},
                "max_served": max(staleness_counts) if staleness_counts
                else 0,
                "violations": violations,
            },
            "updates": {
                "batches_applied": batches_ok,
                "batches_shed": batches_shed,
                "edges_applied": edges_applied,
                "epochs": svc.epoch,
                "ingest_seconds": ingest_seconds,
                "apply_seconds": apply_seconds,
                "updates_per_sec": edges_applied / busy if busy else 0.0,
                "epoch_duration_ms": {
                    "mean": epoch_hist.mean * 1000.0,
                    "max": (epoch_hist.vmax if epoch_hist.count else 0.0)
                    * 1000.0,
                },
            },
            "graph": {key: status[key] for key in ("nodes", "edges")},
            "service": {
                "mode": svc.mode,
                "runtime": svc.runtime,
                "num_fragments": svc.m,
                "final_epoch": svc.epoch,
            },
        }
        return report


def verify_against_recompute(service: GraphService) -> bool:
    """Differential check: the drained service equals ``Q(G ⊕ ∆G)``.

    Rebuilds a fresh engine over the service's grown graph with the same
    (stable-hash) owner map and runs it from scratch on the reference
    runtime; the assembled answers must match exactly.
    """
    from repro.core.engine import Engine
    from repro.core.modes import make_policy
    from repro.partition.builder import build_edge_cut
    from repro.runtime.simulator import SimulatedRuntime

    service.flush()
    pg = build_edge_cut(service.graph, dict(service.pg.owner), service.m,
                        "recompute")
    engine = Engine(service.program, pg, service.pie_query)
    runtime = SimulatedRuntime(
        engine, make_policy(service.mode,
                            staleness_bound=service.staleness_bound))
    runtime.run()
    return dict(engine.assemble()) == service.answer
