"""Maiter-style delta-based accumulative engine with prioritized execution.

Maiter (Zhang et al., TPDS 2014) is the paper's closest asynchronous
competitor: vertex-centric, delta-accumulative ("accumulative iterative
computation"), with *prioritized* scheduling — each worker repeatedly picks
the vertices with the largest pending deltas.  The paper contrasts AAP with
it directly (related work, item 3).

:class:`DeltaEngine` implements the model generically over a
:class:`DeltaProgram` ``(⊕, g)`` pair: an accumulate operator and a
propagation function.  Two canonical programs are provided:

- :class:`DeltaPageRank` — ``⊕ = +``,  ``g(v, Δ) = d*Δ/N_v`` to successors;
- :class:`DeltaSSSP` — ``⊕ = min``, ``g(v, Δ) = Δ + w(v,u)`` to successors.

Scheduling is round-based per worker: each round the worker processes its
``batch_fraction`` highest-priority pending vertices (or all, FIFO-style,
with ``priority=False``), which is how Maiter's sampling-based priority
queues behave.  Cost accounting mirrors the vertex-centric engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import RuntimeConfigError
from repro.graph.graph import Graph, Node
from repro.graph.stable import owner


class DeltaProgram:
    """An accumulative iterative computation ``(⊕, g)``."""

    #: vertices with |pending - identity| below this are left unprocessed
    tolerance = 1e-9

    def initial_score(self, vid: Node, graph: Graph) -> float:
        raise NotImplementedError

    def initial_delta(self, vid: Node, graph: Graph) -> float:
        raise NotImplementedError

    def identity(self) -> float:
        """The neutral pending value (0 for +, +inf for min)."""
        raise NotImplementedError

    def accumulate(self, a: float, b: float) -> float:
        raise NotImplementedError

    def apply(self, score: float, delta: float) -> float:
        """Fold a processed delta into the score."""
        raise NotImplementedError

    def propagate(self, vid: Node, delta: float, graph: Graph
                  ) -> List[Tuple[Node, float]]:
        raise NotImplementedError

    def priority(self, vid: Node, score: float, delta: float) -> float:
        """Bigger = more urgent."""
        raise NotImplementedError

    def significant(self, score: float, delta: float) -> bool:
        """Whether processing ``delta`` would change the score materially."""
        raise NotImplementedError


class DeltaPageRank(DeltaProgram):
    """Accumulative PageRank: scores only grow, deltas are positive mass."""

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-6):
        self.damping = damping
        self.tolerance = tolerance

    def initial_score(self, vid, graph):
        return 0.0

    def initial_delta(self, vid, graph):
        return 1.0 - self.damping

    def identity(self):
        return 0.0

    def accumulate(self, a, b):
        return a + b

    def apply(self, score, delta):
        return score + delta

    def propagate(self, vid, delta, graph):
        deg = graph.out_degree(vid)
        if deg == 0:
            return []
        share = self.damping * delta / deg
        return [(u, share) for u, _ in graph.out_edges(vid)]

    def priority(self, vid, score, delta):
        return delta

    def significant(self, score, delta):
        return delta > self.tolerance


class DeltaSSSP(DeltaProgram):
    """Accumulative SSSP: ``⊕ = min`` over candidate distances."""

    def __init__(self, source: Node):
        self.source = source

    def initial_score(self, vid, graph):
        # even the source starts "unsettled": its pending 0 is significant
        # against the inf score, which is what triggers the first round
        return math.inf

    def initial_delta(self, vid, graph):
        return 0.0 if vid == self.source else math.inf

    def identity(self):
        return math.inf

    def accumulate(self, a, b):
        return min(a, b)

    def apply(self, score, delta):
        return min(score, delta)

    def propagate(self, vid, delta, graph):
        return [(u, delta + w) for u, w in graph.out_edges(vid)]

    def priority(self, vid, score, delta):
        # smaller tentative distances first (Dijkstra-like priority)
        return -delta

    def significant(self, score, delta):
        return delta < score


@dataclass
class DeltaResult:
    """Outcome of a delta-engine run."""

    answer: Dict[Node, float]
    time: float
    rounds: int
    processed: int
    total_messages: int
    cross_messages: int


class DeltaEngine:
    """Asynchronous accumulative engine (Maiter)."""

    def __init__(self, graph: Graph, num_workers: int,
                 priority: bool = True, batch_fraction: float = 0.25,
                 per_update_cost: float = 0.015,
                 per_message_cost: float = 0.004,
                 round_overhead: float = 0.5,
                 speed: Optional[Dict[int, float]] = None,
                 max_rounds: int = 1_000_000):
        if num_workers < 1:
            raise RuntimeConfigError("num_workers must be >= 1")
        if not 0.0 < batch_fraction <= 1.0:
            raise RuntimeConfigError("batch_fraction must be in (0, 1]")
        self.graph = graph
        self.num_workers = num_workers
        self.priority = priority
        self.batch_fraction = batch_fraction
        self.per_update_cost = per_update_cost
        self.per_message_cost = per_message_cost
        self.round_overhead = round_overhead
        self.speed = speed or {}
        self.max_rounds = max_rounds
        self._owner = {v: owner(v, num_workers) for v in graph.nodes}

    def run(self, program: DeltaProgram) -> DeltaResult:
        g = self.graph
        score = {v: program.initial_score(v, g) for v in g.nodes}
        delta = {v: program.initial_delta(v, g) for v in g.nodes}
        ident = program.identity()
        owned: List[List[Node]] = [[] for _ in range(self.num_workers)]
        for v in g.nodes:
            owned[self._owner[v]].append(v)
        busy = [0.0] * self.num_workers
        rounds = 0
        processed = 0
        total_messages = 0
        cross_messages = 0

        active = True
        while active:
            rounds += 1
            if rounds > self.max_rounds:
                raise RuntimeConfigError("delta engine did not converge")
            active = False
            for wid in range(self.num_workers):
                candidates = [v for v in owned[wid]
                              if program.significant(score[v], delta[v])]
                if not candidates:
                    continue
                active = True
                if self.priority:
                    candidates.sort(
                        key=lambda v: program.priority(v, score[v],
                                                       delta[v]),
                        reverse=True)
                    take = max(1, int(len(candidates)
                                      * self.batch_fraction))
                    batch = candidates[:take]
                else:
                    batch = candidates
                cost = self.round_overhead
                for v in batch:
                    d = delta[v]
                    delta[v] = ident
                    score[v] = program.apply(score[v], d)
                    processed += 1
                    cost += self.per_update_cost
                    for target, out_delta in program.propagate(v, d, g):
                        delta[target] = program.accumulate(delta[target],
                                                           out_delta)
                        total_messages += 1
                        cost += self.per_message_cost
                        if self._owner[target] != wid:
                            cross_messages += 1
                busy[wid] += cost * self.speed.get(wid, 1.0)

        return DeltaResult(answer=score, time=max(busy), rounds=rounds,
                           processed=processed,
                           total_messages=total_messages,
                           cross_messages=cross_messages)
