"""Vertex-centric (Pregel) programs on top of AAP — Proposition 3.

The paper sketches the simulation: *"(a) PEval runs compute() over vertices
with a loop, and uses status variables to exchange local messages instead of
SendMessageTo(). (b) The update parameters are status variables of border
nodes, and f_aggr groups messages just like Pregel. (c) IncEval also runs
compute() over vertices in a fragment, except that it starts from active
vertices."*

:class:`PregelAdapter` implements exactly that: each PIE round runs local
supersteps to a local fixpoint (messages to local vertices are consumed
in-loop; messages to remote vertices are combined into the border copy's
status variable and shipped).  A message *combiner* (as in Pregel) is
required; with a monotone combiner such as ``min`` the adapter inherits
AAP's convergence guarantees, and under the BSP policy the execution is
superstep-equivalent to Pregel.
"""

from __future__ import annotations

import abc
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Set, Tuple)

from repro.core.aggregators import Aggregator
from repro.core.pie import FragmentContext, PIEProgram
from repro.errors import ProgramError
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable


class VertexContext:
    """What ``compute()`` sees: one vertex plus its outbox."""

    __slots__ = ("vid", "_values", "_outbox", "_graph", "halted")

    def __init__(self, vid: Node, values: Dict[Node, Any], graph,
                 outbox: List[Tuple[Node, Any]]):
        self.vid = vid
        self._values = values
        self._graph = graph
        self._outbox = outbox
        self.halted = False

    @property
    def value(self) -> Any:
        return self._values[self.vid]

    @value.setter
    def value(self, val: Any) -> None:
        self._values[self.vid] = val

    def out_edges(self) -> List[Tuple[Node, float]]:
        return self._graph.out_edges(self.vid)

    def send(self, target: Node, message: Any) -> None:
        """SendMessageTo: deliver ``message`` to ``target`` next superstep."""
        self._outbox.append((target, message))

    def send_to_neighbors(self, message: Any) -> None:
        for u, _ in self._graph.out_edges(self.vid):
            self._outbox.append((u, message))

    def vote_to_halt(self) -> None:
        self.halted = True


class PregelVertexProgram(abc.ABC):
    """A vertex-centric program: ``compute()`` plus a message combiner."""

    @abc.abstractmethod
    def initial_value(self, vid: Node, graph) -> Any:
        """Vertex value before superstep 0."""

    @abc.abstractmethod
    def compute(self, ctx: VertexContext, messages: Sequence[Any],
                superstep: int) -> None:
        """One vertex activation (Pregel's ``compute``)."""

    @abc.abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Pregel message combiner; must be associative and commutative."""

    def run_on_all_at_start(self) -> bool:
        """Whether superstep 0 activates every vertex (Pregel default)."""
        return True


class _CombinerAggregator(Aggregator):
    """Wraps a Pregel combiner as the PIE aggregate function.

    ``None`` is the identity (no pending message).
    """

    name = "pregel-combiner"
    accumulative = True

    def __init__(self, combine: Callable[[Any, Any], Any]):
        self._combine = combine

    def combine(self, current: Any, incoming: Sequence[Any]) -> Any:
        acc = current
        for val in incoming:
            if val is None:
                continue
            acc = val if acc is None else self._combine(acc, val)
        return acc

    def identity(self) -> Any:
        return None


class PregelAdapter(PIEProgram):
    """Run a :class:`PregelVertexProgram` as a PIE program under any model.

    The PIE status variable of node ``v`` holds the *combined pending
    message* addressed to ``v`` (``None`` when empty).  Vertex values live in
    program scratch and are collected by Assemble.
    """

    needs_bounded_staleness = False
    finite_domain = False  # depends on the wrapped program

    def __init__(self, vprog: PregelVertexProgram,
                 max_local_supersteps: int = 100_000):
        self.vprog = vprog
        self.aggregator = _CombinerAggregator(vprog.combine)
        self.max_local_supersteps = max_local_supersteps

    def init_values(self, frag: Fragment, query: Any) -> Dict[Node, Any]:
        return {v: None for v in frag.graph.nodes}

    # ------------------------------------------------------------------
    def peval(self, frag: Fragment, ctx: FragmentContext, query: Any) -> None:
        values = {v: self.vprog.initial_value(v, frag.graph)
                  for v in frag.graph.nodes}
        ctx.scratch["vertex_values"] = values
        ctx.scratch["superstep"] = 0
        if self.vprog.run_on_all_at_start():
            initial = {v: [] for v in sorted(frag.owned, key=repr)}
            self._local_supersteps(frag, ctx, initial)

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: Any) -> None:
        inbox: Dict[Node, List[Any]] = {}
        for v in sorted(activated, key=repr):
            if v not in frag.owned:
                continue
            pending = ctx.get(v)
            if pending is None:
                continue
            inbox[v] = [pending]
            ctx.set_silent(v, None)  # consumed; not a remote-bound change
        if inbox:
            self._local_supersteps(frag, ctx, inbox)

    def _local_supersteps(self, frag: Fragment, ctx: FragmentContext,
                          inbox: Dict[Node, List[Any]]) -> None:
        """Run compute() waves until no local messages remain.

        Messages to remote (mirror) vertices are combined into their status
        variable, which the engine ships after the round.
        """
        values = ctx.scratch["vertex_values"]
        graph, owned = frag.graph, frag.owned
        steps = 0
        while inbox:
            steps += 1
            if steps > self.max_local_supersteps:
                raise ProgramError("local superstep budget exhausted; the "
                                   "vertex program may not terminate")
            next_inbox: Dict[Node, List[Any]] = {}
            for v in sorted(inbox, key=repr):
                outbox: List[Tuple[Node, Any]] = []
                vctx = VertexContext(v, values, graph, outbox)
                self.vprog.compute(vctx, inbox[v], ctx.scratch["superstep"])
                ctx.add_work(1 + len(outbox))
                for target, message in outbox:
                    if target in owned:
                        next_inbox.setdefault(target, []).append(message)
                    elif target in ctx.values:
                        ctx.update(target, message)
                    else:
                        raise ProgramError(
                            f"vertex {v!r} sent to non-adjacent remote "
                            f"vertex {target!r}")
            ctx.scratch["superstep"] += 1
            inbox = next_inbox

    # ------------------------------------------------------------------
    def emit(self, frag: Fragment, ctx: FragmentContext, v: Node) -> Any:
        pending = ctx.get(v)
        ctx.set_silent(v, None)
        return pending

    def routes(self, pg: PartitionedGraph, frag: Fragment, lids=None):
        """A mirror's pending messages go to the vertex's owner."""
        from repro.core.dense import routes_to_owner
        return routes_to_owner(frag, lids)

    def apply_incoming(self, frag: Fragment, ctx: FragmentContext, v: Node,
                       payloads: Sequence[Any]) -> bool:
        live = [p for p in payloads if p is not None]
        if not live:
            return False
        return ctx.update(v, *live)

    # ------------------------------------------------------------------
    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: Any) -> Dict[Node, Any]:
        return {v: contexts[fid].scratch["vertex_values"][v]
                for v, fid in pg.owner.items()}
