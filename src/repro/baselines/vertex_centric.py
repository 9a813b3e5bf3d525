"""Vertex-centric baseline engine (Pregel semantics) with cost accounting.

This standalone engine represents the *architectural class* of
Giraph/GraphLab-style systems in the cross-system comparison (Table 1):

- vertex-granularity programming: one ``compute()`` per active vertex per
  superstep, messages along edges — so SSSP is Bellman–Ford style relaxation
  (no fragment-level Dijkstra), CC is HashMin label propagation
  (O(diameter) supersteps), PageRank re-sends every vertex's score each
  iteration (no delta shipping);
- synchronous supersteps with a global barrier, or an asynchronous
  accounting mode for GraphLab-async/Maiter-like systems.

Timing uses the same abstract units as the simulator, scaled by a
:class:`~repro.baselines.profiles.SystemProfile`'s constants.  The
*structural* costs (message counts, superstep counts, total vertex
activations) are computed exactly; the constants only set each system's
per-unit overheads (DESIGN.md documents this substitution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import RuntimeConfigError
from repro.graph.graph import Graph, Node
from repro.graph.stable import owner


@dataclass
class VCResult:
    """Outcome of one vertex-centric run."""

    answer: Dict[Node, Any]
    system: str
    time: float
    supersteps: int
    total_messages: int
    cross_messages: int
    comm_bytes: int
    vertex_activations: int


class VertexCentricProgram:
    """Interface for vertex programs run by :class:`SuperstepVertexEngine`."""

    def initial_value(self, vid: Node, graph: Graph) -> Any:
        raise NotImplementedError

    def compute(self, vid: Node, value: Any, messages: List[Any],
                graph: Graph, superstep: int
                ) -> Tuple[Any, List[Tuple[Node, Any]], bool]:
        """Return ``(new_value, outgoing (target, msg) list, halt)``."""
        raise NotImplementedError

    def combine(self, a: Any, b: Any) -> Optional[Any]:
        """Optional message combiner; ``None`` disables combining."""
        return None


class SuperstepVertexEngine:
    """Synchronous vertex-centric execution with per-system cost accounting.

    Parameters
    ----------
    graph: the input graph.
    num_workers: hash-partitioned worker count.
    per_vertex_cost / per_message_cost / superstep_overhead / barrier_cost:
        the profile's timing constants.
    speed: optional per-worker slowdown map (stragglers).
    async_mode:
        when True, time is accounted without barriers (per-worker total
        work on the critical path) and multiplied by ``async_factor`` to
        model locking/consistency overhead, as observed for GraphLab-async.
    use_combiner: whether the engine applies the program's combiner
        (Giraph's default configuration ships uncombined messages).
    """

    def __init__(self, graph: Graph, num_workers: int,
                 per_vertex_cost: float = 0.01,
                 per_message_cost: float = 0.002,
                 superstep_overhead: float = 1.0,
                 barrier_cost: float = 0.5,
                 bytes_per_message: int = 16,
                 speed: Optional[Dict[int, float]] = None,
                 async_mode: bool = False,
                 async_factor: float = 1.0,
                 use_combiner: bool = True,
                 max_supersteps: int = 100_000):
        if num_workers < 1:
            raise RuntimeConfigError("num_workers must be >= 1")
        self.graph = graph
        self.num_workers = num_workers
        self.per_vertex_cost = per_vertex_cost
        self.per_message_cost = per_message_cost
        self.superstep_overhead = superstep_overhead
        self.barrier_cost = barrier_cost
        self.bytes_per_message = bytes_per_message
        self.speed = speed or {}
        self.async_mode = async_mode
        self.async_factor = async_factor
        self.use_combiner = use_combiner
        self.max_supersteps = max_supersteps
        self._owner = {v: owner(v, num_workers) for v in graph.nodes}

    def _speed(self, wid: int) -> float:
        return self.speed.get(wid, 1.0)

    def run(self, program: VertexCentricProgram, system: str = "baseline"
            ) -> VCResult:
        g = self.graph
        values = {v: program.initial_value(v, g) for v in g.nodes}
        inbox: Dict[Node, List[Any]] = {v: [] for v in g.nodes}
        active = set(g.nodes)
        supersteps = 0
        total_messages = 0
        cross_messages = 0
        activations = 0
        time_sync = 0.0
        worker_busy = [0.0] * self.num_workers

        while active or any(inbox.values()):
            supersteps += 1
            if supersteps > self.max_supersteps:
                raise RuntimeConfigError(
                    f"{system}: exceeded {self.max_supersteps} supersteps")
            # cost accounting for this superstep
            per_worker_vertices = [0] * self.num_workers
            per_worker_msgs = [0] * self.num_workers
            next_inbox: Dict[Node, List[Any]] = {v: [] for v in g.nodes}
            next_active = set()
            for v in active | {u for u, msgs in inbox.items() if msgs}:
                wid = self._owner[v]
                msgs = inbox[v]
                per_worker_vertices[wid] += 1
                per_worker_msgs[wid] += len(msgs)
                activations += 1
                new_val, outgoing, halt = program.compute(
                    v, values[v], msgs, g, supersteps - 1)
                values[v] = new_val
                staged: Dict[Node, Any] = {}
                for target, msg in outgoing:
                    total_messages += 1
                    if self._owner[target] != wid:
                        cross_messages += 1
                    if self.use_combiner:
                        if target in staged:
                            combined = program.combine(staged[target], msg)
                            if combined is None:  # program has no combiner
                                next_inbox[target].append(staged[target])
                                next_active.add(target)
                                staged[target] = msg
                            else:
                                staged[target] = combined
                        else:
                            staged[target] = msg
                    else:
                        next_inbox[target].append(msg)
                        next_active.add(target)
                for target, msg in staged.items():
                    next_inbox[target].append(msg)
                    next_active.add(target)
                if not halt:
                    next_active.add(v)
            durations = []
            for wid in range(self.num_workers):
                cost = (self.superstep_overhead
                        + per_worker_vertices[wid] * self.per_vertex_cost
                        + per_worker_msgs[wid] * self.per_message_cost)
                cost *= self._speed(wid)
                worker_busy[wid] += cost
                durations.append(cost)
            time_sync += max(durations) + self.barrier_cost
            inbox = next_inbox
            active = next_active

        if self.async_mode:
            time = max(worker_busy) * self.async_factor
        else:
            time = time_sync
        return VCResult(
            answer=values, system=system, time=time, supersteps=supersteps,
            total_messages=total_messages, cross_messages=cross_messages,
            comm_bytes=cross_messages * self.bytes_per_message,
            vertex_activations=activations)


# ----------------------------------------------------------------------
# canonical vertex programs (the "default code" of those systems)
# ----------------------------------------------------------------------
class BellmanFordSSSP(VertexCentricProgram):
    """Vertex-centric SSSP: relax on message, no priority ordering."""

    def __init__(self, source: Node):
        self.source = source

    def initial_value(self, vid: Node, graph: Graph) -> float:
        return 0.0 if vid == self.source else math.inf

    def compute(self, vid, value, messages, graph, superstep):
        best = min([value] + messages) if messages else value
        outgoing = []
        if best < value or (superstep == 0 and vid == self.source):
            for u, w in graph.out_edges(vid):
                outgoing.append((u, best + w))
        return best, outgoing, True

    def combine(self, a, b):
        return min(a, b)


class HashMinCC(VertexCentricProgram):
    """Vertex-centric CC: propagate the minimum label (O(diameter) steps)."""

    def initial_value(self, vid: Node, graph: Graph) -> Node:
        return vid

    def compute(self, vid, value, messages, graph, superstep):
        best = min([value] + messages) if messages else value
        outgoing = []
        if best < value or superstep == 0:
            for u, _ in graph.out_edges(vid):
                outgoing.append((u, best))
            if graph.directed:
                for u, _ in graph.in_edges(vid):
                    outgoing.append((u, best))
        return best, outgoing, True

    def combine(self, a, b):
        return min(a, b)


class IterativePageRank(VertexCentricProgram):
    """Vertex-centric PageRank: every vertex re-sends its share each
    iteration for a fixed number of supersteps (the Pregel formulation)."""

    def __init__(self, damping: float = 0.85, iterations: int = 30):
        self.damping = damping
        self.iterations = iterations

    def initial_value(self, vid: Node, graph: Graph) -> float:
        return 1.0 - self.damping

    def compute(self, vid, value, messages, graph, superstep):
        if superstep > 0:
            value = (1.0 - self.damping) + self.damping * sum(messages)
        outgoing = []
        halt = superstep >= self.iterations
        if not halt:
            deg = graph.out_degree(vid)
            if deg:
                share = value / deg
                for u, _ in graph.out_edges(vid):
                    outgoing.append((u, share))
        return value, outgoing, halt

    def combine(self, a, b):
        return a + b
