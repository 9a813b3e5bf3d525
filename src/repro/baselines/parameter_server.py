"""Petuum-style parameter server for CF under SSP.

The paper's Table-1 text compares GRAPE+ against Petuum [53] for
collaborative filtering: a *parameter server* holds the shared model (item
factors); workers hold data shards (users + their ratings), pull the
parameters, compute SGD locally, push gradients, and advance a clock.  The
Stale Synchronous Parallel protocol lets the fastest worker lead the
slowest by at most ``staleness`` clocks [30].

:class:`ParameterServerCF` simulates this architecture deterministically:
an event heap orders pulls/pushes by simulated time (per-worker speed
factors create stragglers), the server applies pushes in time order, and a
worker blocks when its next clock would violate the staleness bound.
Communication is accounted per pulled/pushed parameter — the architectural
difference from GRAPE+'s designated messages (Petuum re-pulls the touched
parameters every clock; GRAPE+ ships only changed values).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import RuntimeConfigError
from repro.graph.graph import Graph
from repro.graph.stable import owner

Node = Hashable


@dataclass
class PSResult:
    """Outcome of a parameter-server CF run."""

    rmse: float
    time: float
    clocks: int
    comm_bytes: int
    pulls: int
    pushes: int
    stall_time: float


class ParameterServerCF:
    """SSP parameter-server SGD for matrix factorisation.

    Parameters mirror :class:`repro.algorithms.cf.CFQuery` where possible
    so the comparison against the PIE program is apples-to-apples: same
    rank, learning rate, regularisation, epochs (clocks) and seed.
    """

    def __init__(self, graph: Graph, num_workers: int, rank: int = 4,
                 learning_rate: float = 0.02, regularization: float = 0.05,
                 epochs: int = 10, staleness: int = 2, seed: int = 0,
                 epoch_cost: float = 1.0, per_rating_cost: float = 0.002,
                 per_param_cost: float = 0.001,
                 speed: Optional[Dict[int, float]] = None):
        if num_workers < 1:
            raise RuntimeConfigError("num_workers must be >= 1")
        if staleness < 0:
            raise RuntimeConfigError("staleness must be >= 0")
        self.graph = graph
        self.num_workers = num_workers
        self.rank = rank
        self.lr = learning_rate
        self.reg = regularization
        self.epochs = epochs
        self.staleness = staleness
        self.seed = seed
        self.epoch_cost = epoch_cost
        self.per_rating_cost = per_rating_cost
        self.per_param_cost = per_param_cost
        self.speed = speed or {}

    # ------------------------------------------------------------------
    def _init_vector(self, node: Node) -> List[float]:
        rng = random.Random((self.seed, repr(node)).__repr__())
        return [rng.uniform(0.05, 0.25) for _ in range(self.rank)]

    def _shards(self) -> Tuple[List[List[Tuple[Node, Node, float]]],
                               List[Node]]:
        """Split ratings by user placement; collect the item vocabulary."""
        shards: List[List[Tuple[Node, Node, float]]] = [
            [] for _ in range(self.num_workers)]
        items = set()
        for u, p, r in self.graph.edges():
            if not (isinstance(u, tuple) and u and u[0] == "u"):
                u, p = p, u
            shards[owner(u, self.num_workers)].append((u, p, r))
            items.add(p)
        for shard in shards:
            shard.sort()
        return shards, sorted(items)

    def run(self) -> PSResult:
        shards, items = self._shards()
        server: Dict[Node, List[float]] = {p: self._init_vector(p)
                                           for p in items}
        users: Dict[Node, List[float]] = {}
        for shard in shards:
            for u, _, _ in shard:
                if u not in users:
                    users[u] = self._init_vector(u)

        # --- timing: SSP clocks under constant per-worker speeds.
        # start[w][c] = max(own previous finish, the time every worker
        # finished clock c - staleness - 1); closed-form DP, deterministic.
        costs = []
        touched_per_worker = []
        for wid, shard in enumerate(shards):
            touched = sorted({p for _, p, _ in shard}, key=repr)
            touched_per_worker.append(touched)
            cost = (self.epoch_cost
                    + len(shard) * self.per_rating_cost
                    + 2 * len(touched) * self.per_param_cost)
            costs.append(cost * self.speed.get(wid, 1.0))
        finish = [[0.0] * (self.epochs + 1)
                  for _ in range(self.num_workers)]
        stall_time = 0.0
        for c in range(1, self.epochs + 1):
            barrier = 0.0
            gate = c - self.staleness - 1
            if gate >= 1:
                barrier = max(finish[w][gate]
                              for w in range(self.num_workers))
            for w in range(self.num_workers):
                start = max(finish[w][c - 1], barrier)
                stall_time += start - finish[w][c - 1]
                finish[w][c] = start + costs[w]
        makespan = max(finish[w][self.epochs]
                       for w in range(self.num_workers))

        # --- learning: pull-compute-push per clock, applied in clock order
        # (the deterministic equivalent of applying pushes in time order)
        pulls = pushes = 0
        comm_bytes = 0
        param_bytes = 8 * self.rank
        for _clock in range(self.epochs):
            for wid, shard in enumerate(shards):
                touched = touched_per_worker[wid]
                snapshot = {p: list(server[p]) for p in touched}
                pulls += len(touched)
                comm_bytes += len(touched) * param_bytes
                grads: Dict[Node, List[float]] = {
                    p: [0.0] * self.rank for p in touched}
                for u, p, rating in shard:
                    fu, fp = users[u], snapshot[p]
                    pred = sum(a * b for a, b in zip(fu, fp))
                    err = rating - pred
                    for k in range(self.rank):
                        gu = self.lr * (err * fp[k] - self.reg * fu[k])
                        gp = self.lr * (err * fu[k] - self.reg * fp[k])
                        fu[k] += gu
                        grads[p][k] += gp
                for p, gvec in grads.items():
                    vec = server[p]
                    for k in range(self.rank):
                        vec[k] += gvec[k]
                pushes += len(touched)
                comm_bytes += len(touched) * param_bytes

        rmse = self._rmse(shards, users, server)
        return PSResult(rmse=rmse, time=makespan, clocks=self.epochs,
                        comm_bytes=comm_bytes, pulls=pulls, pushes=pushes,
                        stall_time=stall_time)

    def _rmse(self, shards, users, server) -> float:
        total = 0.0
        count = 0
        for shard in shards:
            for u, p, rating in shard:
                pred = sum(a * b for a, b in zip(users[u], server[p]))
                total += (rating - pred) ** 2
                count += 1
        return math.sqrt(total / count) if count else 0.0
