"""MapReduce on AAP/GRAPE with designated messages only — Theorem 4.

The paper's proof constructs a PIE program over a clique worker graph
``G_W`` of ``n`` nodes (one per worker): PEval runs the first mapper,
IncEval selects subroutine branches by the round tag carried in each
``(r, key, value)`` tuple, and tuples move between workers through the
status variables of ``G_W``'s border nodes — designated messages only,
no key-value side channel.  :class:`MapReduceOnPIE` implements exactly
this construction; :class:`LocalMapReduce` is the reference executor.

MapReduce is a synchronous model: run the simulation under the BSP policy
(:func:`run_mapreduce` does).  The adapter checks stage alignment and
raises if messages from different stages ever mix in one round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.core.aggregators import Aggregator
from repro.core.pie import FragmentContext, PIEProgram
from repro.errors import ProgramError
from repro.graph.generators import complete_graph
from repro.graph.stable import owner
from repro.partition.builder import build_edge_cut
from repro.partition.fragment import Fragment, PartitionedGraph

KV = Tuple[Any, Any]
Mapper = Callable[[Any, Any], Iterable[KV]]
Reducer = Callable[[Any, List[Any]], Iterable[KV]]


@dataclass(frozen=True)
class Subroutine:
    """One B_r = (mapper mu_r, reducer rho_r)."""

    mapper: Mapper
    reducer: Reducer


@dataclass(frozen=True)
class MapReduceJob:
    """A MapReduce algorithm: a sequence of subroutines (B_1, ..., B_k)."""

    subroutines: Tuple[Subroutine, ...]

    def __post_init__(self):
        if not self.subroutines:
            raise ProgramError("a MapReduce job needs at least one subroutine")

    @property
    def num_stages(self) -> int:
        return len(self.subroutines)


def identity_mapper(key: Any, value: Any) -> Iterable[KV]:
    yield key, value


def identity_reducer(key: Any, values: List[Any]) -> Iterable[KV]:
    for v in values:
        yield key, v


class LocalMapReduce:
    """Sequential reference executor for :class:`MapReduceJob`."""

    def __init__(self, job: MapReduceJob):
        self.job = job

    def run(self, pairs: Iterable[KV]) -> List[KV]:
        current = list(pairs)
        for sub in self.job.subroutines:
            mapped: List[KV] = []
            for k, v in current:
                mapped.extend(sub.mapper(k, v))
            groups: Dict[Any, List[Any]] = {}
            for k, v in mapped:
                groups.setdefault(k, []).append(v)
            current = []
            for k in sorted(groups, key=repr):
                current.extend(sub.reducer(k, groups[k]))
        return current


class _TupleBagAggregator(Aggregator):
    """Status variables hold bags (tuples) of (r, key, value) triples."""

    name = "tuple-bag"
    accumulative = True

    def combine(self, current: Tuple, incoming: Sequence[Tuple]) -> Tuple:
        merged = list(current)
        for bag in incoming:
            merged.extend(bag)
        return tuple(merged)

    def identity(self) -> Tuple:
        return ()


class MapReduceOnPIE(PIEProgram):
    """The Theorem-4 construction: simulate A on GRAPE/AAP.

    The input graph must be the clique ``G_W`` over worker ids ``0..n-1``
    partitioned so that node ``i`` is owned by fragment ``i``
    (:func:`make_worker_graph` builds it).  The query is the initial
    distribution: worker id -> list of (key, value) pairs.
    """

    aggregator = _TupleBagAggregator()
    needs_bounded_staleness = False
    finite_domain = False

    def __init__(self, job: MapReduceJob):
        self.job = job

    def init_values(self, frag: Fragment, query: Mapping[int, List[KV]]
                    ) -> Dict[Hashable, Tuple]:
        return {v: () for v in frag.graph.nodes}

    # ------------------------------------------------------------------
    #: sentinel value marking a stage beacon (keeps workers stage-aligned)
    BEACON = "__stage_beacon__"

    def _partition_key(self, key: Any, n: int) -> int:
        return owner(key, n)

    def _route(self, frag: Fragment, ctx: FragmentContext, n: int,
               stage: int, pairs: Iterable[KV]) -> None:
        """Tag pairs with the stage and store them on target worker nodes.

        A beacon triple is appended to *every* peer's bag so that each
        worker is triggered next round even when it receives no data tuples
        — this is what keeps the BSP supersteps (and hence the map/reduce
        barriers) aligned without a side channel.
        """
        me = frag.fid
        for k, v in pairs:
            target = self._partition_key(k, n)
            triple = (stage, k, v)
            if target == me:
                ctx.scratch["local"].append(triple)
            else:
                ctx.set(target, ctx.get(target) + (triple,))
            ctx.add_work(1)
        for peer in range(n):
            if peer != me:
                ctx.set(peer, ctx.get(peer) + ((stage, self.BEACON, None),))

    def peval(self, frag: Fragment, ctx: FragmentContext,
              query: Mapping[int, List[KV]]) -> None:
        n = len(ctx.values)
        ctx.scratch["local"] = []
        ctx.scratch["results"] = []
        ctx.scratch["n"] = n
        my_input = query.get(frag.fid, [])
        mapped: List[KV] = []
        for k, v in my_input:
            mapped.extend(self.job.subroutines[0].mapper(k, v))
            ctx.add_work(1)
        self._route(frag, ctx, n, stage=1, pairs=mapped)
        if n == 1:
            # degenerate single-worker deployment: no peers will ever
            # trigger IncEval, so drive all stages to completion locally
            # (every reducer already sees all values for its keys)
            while ctx.scratch["local"]:
                bag = tuple(ctx.scratch["local"])
                ctx.scratch["local"] = []
                self._process_bag(frag, ctx, bag, n)

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Hashable], query: Mapping[int, List[KV]]
                ) -> None:
        me = frag.fid
        n = ctx.scratch["n"]
        bag = ctx.get(me) + tuple(ctx.scratch["local"])
        ctx.set_silent(me, ())
        ctx.scratch["local"] = []
        if bag:
            self._process_bag(frag, ctx, bag, n)

    def _process_bag(self, frag: Fragment, ctx: FragmentContext,
                     bag: Tuple, n: int) -> None:
        """Run the reducer (and next mapper) for one stage's tuples."""
        me = frag.fid
        stages = {r for r, _, _ in bag}
        if len(stages) > 1:
            raise ProgramError(
                f"worker {me} received tuples from stages {sorted(stages)}; "
                f"run the MapReduce simulation under the BSP policy")
        stage = stages.pop()
        sub = self.job.subroutines[stage - 1]
        groups: Dict[Any, List[Any]] = {}
        for _, k, v in bag:
            if k is not self.BEACON and k != self.BEACON:
                groups.setdefault(k, []).append(v)
        reduced: List[KV] = []
        for k in sorted(groups, key=repr):
            reduced.extend(sub.reducer(k, groups[k]))
            ctx.add_work(len(groups[k]))
        if stage == self.job.num_stages:
            ctx.scratch["results"].extend(reduced)
            return
        nxt = self.job.subroutines[stage].mapper
        mapped: List[KV] = []
        for k, v in reduced:
            mapped.extend(nxt(k, v))
            ctx.add_work(1)
        self._route(frag, ctx, n, stage=stage + 1, pairs=mapped)

    # ------------------------------------------------------------------
    def emit(self, frag: Fragment, ctx: FragmentContext, v: Hashable) -> Tuple:
        bag = ctx.get(v)
        ctx.set_silent(v, ())
        return bag

    def routes(self, pg: PartitionedGraph, frag: Fragment, lids=None):
        """A bag must reach its worker node's owner exactly once."""
        from repro.core.dense import routes_to_owner
        return routes_to_owner(frag, lids)

    def apply_incoming(self, frag: Fragment, ctx: FragmentContext,
                       v: Hashable, payloads: Sequence[Tuple]) -> bool:
        merged = tuple(t for bag in payloads for t in bag)
        if not merged:
            return False
        ctx.set(v, ctx.get(v) + merged)
        return True

    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: Mapping[int, List[KV]]) -> List[KV]:
        out: List[KV] = []
        for ctx in contexts:
            out.extend(ctx.scratch["results"])
            # tuples may still sit in an own-node bag if the last stage
            # produced local-only routing; flush them (they are final-stage)
        return sorted(out, key=repr)


def make_worker_graph(n: int) -> PartitionedGraph:
    """The clique ``G_W`` with worker node ``i`` owned by fragment ``i``."""
    g = complete_graph(n, directed=False)
    return build_edge_cut(g, {v: v for v in g.nodes}, n, "worker-clique")


def run_mapreduce(job: MapReduceJob, pairs: Iterable[KV],
                  n: int = 4) -> List[KV]:
    """Distribute ``pairs`` over ``n`` workers and run the Theorem-4
    simulation under strict BSP supersteps; returns the sorted output pairs.

    Strictness matters: MapReduce's reducers are a barrier, so the
    simulation uses :meth:`ScheduledExecutor.run_supersteps` (each superstep
    consumes exactly the previous superstep's messages).
    """
    from repro.core.engine import Engine
    from repro.core.fixpoint import ScheduledExecutor

    pairs = list(pairs)
    dist: Dict[int, List[KV]] = {i: [] for i in range(n)}
    for idx, kv in enumerate(pairs):
        dist[idx % n].append(kv)
    pg = make_worker_graph(n)
    engine = Engine(MapReduceOnPIE(job), pg, dist)
    ex = ScheduledExecutor(engine)
    ex.start()
    ex.run_supersteps()
    return ex.assemble()
