"""A resident bounded-staleness graph service over the AAP engines.

:class:`GraphService` is the one way to keep a PIE computation live
across updates: it runs PEval exactly once, then keeps the partitioned
fragments *warm* while a continuous stream of
:class:`~repro.streaming.UpdateBatch` es flows in and read queries flow
out.  It grows one partition and one engine in place — the dense engine,
over fragments whose array form grows in place, whenever the program has
dense kernels and the node ids are non-negative integers; the generic
engine otherwise:

1. **Ingest** — batches are validated atomically (against the current
   graph, which the partition answers for, *and* the already-staged
   batches), admitted through a bounded queue, and parked; accepting a
   batch advances the *accepted* epoch.
2. **Epoch apply** — one parked batch is materialised by growing the
   fragments in place (:func:`~repro.partition.grow.grow_edge_cut` — same
   owner map; its report names the nodes whose presence or routing
   changed, and the engine patches routing masks and contexts for those
   only), new nodes get their per-node initial value and fresh mirrors
   adopt their owner's converged value, each touched fragment integrates
   its insertions through :meth:`~repro.core.pie.PIEProgram.inc_update` +
   one IncEval, and the continuation resumes from the resulting
   designated messages on the calling thread
   (:func:`~repro.core.fixpoint.resume_to_fixpoint`; Theorem 2: monotone
   programs converge to ``Q(G ⊕ ∆G)`` from any intermediate state, under
   any schedule).  The snapshot is then
   patched with the program's answer delta
   (:meth:`~repro.core.pie.PIEProgram.answer_delta`) — every step costs
   O(batch + changed answers), none O(fragment).  Applying a batch
   advances the *applied* epoch.
3. **Query** — each read declares a maximum staleness in applied-batch
   epochs (an SSP-style bound).  The service's staleness is the number of
   accepted-but-unapplied batches; a query whose bound is already met is
   answered from the current snapshot at once, otherwise the service asks
   admission and applies pending batches until the lag meets the bound
   ("block until convergence catches up").  A point lookup reads the
   maintained answer: the dict the epochs patch with their answer deltas.

Every ingest, epoch and shed emits an obs event on the service's
:class:`~repro.obs.Observer`; a served read emits none and feeds only the
latency and staleness histograms (their count is the served count).
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import (Any, Deque, Dict, Hashable, List, NamedTuple, Optional,
                    Set, Tuple)

from repro.core.engine import Engine
from repro.core.fixpoint import resume_to_fixpoint
from repro.core.modes import make_policy
from repro.core.pie import PIEProgram
from repro.core.result import RunResult
from repro.errors import PartitionError, ProgramError, ReproError
from repro.graph.csr import GraphArrays
from repro.graph.graph import Graph
from repro.graph.stable import owners
from repro.obs import (ADMISSION_SHED, EPOCH_APPLY, INGEST, EventLog,
                       Observer)
from repro.partition.builder import build_edge_cut
from repro.partition.grow import GrowthReport, grow_edge_cut
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.serve.admission import AdmissionController
from repro.streaming.updates import UpdateBatch, validate_batch

Node = Hashable

#: sentinel distinguishing "key absent" from "value is None"
_MISSING = object()

RUNTIMES = ("threaded", "simulated")

#: events the service's own log retains: a resident process emits one per
#: ingest, epoch and shed for as long as it lives, so its log is a ring of
#: the recent past (:attr:`~repro.obs.EventLog.dropped` counts the rest;
#: the histograms see every event)
EVENT_LOG_CAPACITY = 8192


def integrate_insertions(engine: Engine, report: GrowthReport) -> List:
    """Fold the insertions growth just materialised (``report``, of
    :func:`~repro.partition.grow.grow_edge_cut`) into a converged
    ``engine``: ``inc_update`` + one IncEval on every fragment that got a
    copy of one, and the designated messages that seed the continuation.
    """
    program, query = engine.program, engine.query
    messages: List = []
    for wid in sorted(report.inserted):
        frag, ctx = engine.pg.fragments[wid], engine.contexts[wid]
        if engine.vectorized:
            seeds = program.dense_inc_update(frag, ctx, *report.rows[wid],
                                             query)
            if len(seeds):
                program.dense_inceval(frag, ctx, seeds, query)
        else:
            seeds = program.inc_update(frag, ctx, report.inserted[wid],
                                       query)
            if seeds:
                program.inceval(frag, ctx, set(seeds), query)
        messages.extend(engine.derive_messages(wid, round_no=1))
    return messages


class _NoCache:
    """What :attr:`GraphService.cache` hands out: nothing is served from
    a cache, so no read is a hit."""

    @staticmethod
    def stats() -> Dict[str, float]:
        return {"hit_rate": 0.0}


class IngestReceipt(NamedTuple):
    """What :meth:`GraphService.ingest` hands back for one batch."""

    accepted: bool
    #: accepted-epoch number this batch will become when applied
    #: (meaningless when shed)
    epoch: int
    #: ingest queue depth after this call
    depth: int
    #: wall seconds spent admitting + validating + staging
    latency: float
    #: shed reason when not accepted
    reason: Optional[str] = None


class QueryResult(NamedTuple):
    """One answered (or shed) read query.

    A named tuple, like :class:`IngestReceipt` and
    :class:`~repro.obs.ObsEvent`: the service builds one per read, and
    finding the answer is a ``dict.get`` — the record must not cost more
    than the read.
    """

    served: bool
    value: Any
    #: applied epoch of the snapshot that answered
    epoch: int
    #: accepted-but-unapplied batches at answer time (≤ the query's bound)
    staleness: int
    #: wall seconds from query arrival to answer
    latency: float
    #: shed reason when not served
    reason: Optional[str] = None


class GraphService:
    """A warm, incrementally-updated PIE computation behind a query API.

    ``runtime`` and ``mode`` select what executes the one PEval run:
    ``threaded`` (real threads, the serving configuration) or
    ``simulated`` (the deterministic reference, used by the differential
    tests and by callers that only want a live computation:
    ``ingest(batch)`` then ``flush()``).  Epochs continue from it on the
    calling thread.
    """

    def __init__(self, program: PIEProgram, graph: Graph, query: Any,
                 num_fragments: int = 4, mode: str = "AAP",
                 runtime: str = "threaded",
                 staleness_bound: Optional[int] = None,
                 admission: Optional[AdmissionController] = None,
                 observer: Optional[Observer] = None,
                 time_scale: float = 1e-4):
        if runtime not in RUNTIMES:
            raise ReproError(
                f"unknown service runtime {runtime!r}; pick from {RUNTIMES}")
        if num_fragments < 1:
            raise PartitionError("num_fragments must be >= 1")
        self.program = program
        #: the input graph as arrays (node labels kept): with
        #: :attr:`_inserted`, what :attr:`graph` is made of when read
        self._input = GraphArrays.of(graph)._replace(
            labels=graph.node_labels())
        #: the applied insertions, in order
        self._inserted: List[Tuple[Node, Node, float]] = []
        #: the PIE query object (the read API is :meth:`query`)
        self.pie_query = query
        self.m = num_fragments
        self.mode = mode
        self.runtime = runtime
        self.time_scale = time_scale
        if staleness_bound is None and program.needs_bounded_staleness:
            staleness_bound = program.default_staleness_bound
        self.staleness_bound = staleness_bound
        self.admission = admission if admission is not None \
            else AdmissionController()
        #: always-on observability: events for every ingest, epoch and
        #: shed, histograms for those and every read, land here
        self.obs = observer if observer is not None \
            else Observer(log=EventLog(capacity=EVENT_LOG_CAPACITY))
        # every instrument the ingest / epoch / read paths touch, taken
        # once here instead of looked up by name per call
        self._log = self.obs.log
        metrics = self.obs.metrics
        self._ingest_latency = metrics.histogram("serve_ingest_latency")
        self._batches_accepted = metrics.counter("serve_batches_accepted")
        self._shed_batches = metrics.counter("serve_shed_batches")
        self._epochs = metrics.counter("serve_epochs")
        self._epoch_duration = metrics.histogram("serve_epoch_duration")
        self._epoch_changed = metrics.histogram("serve_epoch_changed")
        self._csr_merges = metrics.counter("serve_csr_merges")
        self._query_latency = metrics.histogram("serve_query_latency")
        self._staleness = metrics.histogram("serve_staleness")
        self._shed_queries = metrics.counter("serve_shed_queries")
        # placement is the one owner function, here and in grow_edge_cut:
        # the same in every process; an owner array, so the build reads
        # no dict of the graph
        base = self._input.to_graph()
        self.pg = build_edge_cut(base, owners(base, num_fragments),
                                 num_fragments, "serving")
        # dense kernels on arrays that grow in place; degrades to the
        # generic engine for non-integer node ids or a program without
        # dense kernels
        self.engine = Engine(program, self.pg, query, vectorized=True)
        hook = "dense_inc_update" if self.engine.vectorized else "inc_update"
        #: why every batch is refused, if the program keeps
        #: :class:`~repro.core.pie.PIEProgram`'s default streaming hook for
        #: the engine it runs on
        self._refusal = None if getattr(type(program), hook) is not \
            getattr(PIEProgram, hook) else (
                f"{program.name} does not support streaming updates "
                f"(no {hook}); the service cannot take a batch")
        # what the first epoch would pay for otherwise: the owner map
        # growth reads and extends, room to grow in, and a dict probe per
        # id an epoch looks up (a handful, one by one; kept current by
        # growth) instead of a binary search
        self.pg.owner
        for frag in self.pg:
            frag._arrays.reserve()
            frag._arrays.lid_of
        #: applied epochs == batches fully integrated and re-converged
        self.epoch = 0
        #: accepted epochs == applied + parked batches
        self.accepted = 0
        #: parked batches, each with the keys it put in ``_staged``
        self._pending: Deque[Tuple[UpdateBatch, List[Any]]] = deque()
        #: edge keys of parked batches (cross-batch duplicate detection)
        self._staged: Set[Any] = set()
        #: the one PEval in this service's lifetime
        self.initial_result: RunResult = self._make_runtime().run()
        #: the one full Assemble; epochs patch it with answer deltas
        self._answer: Dict[Node, Any] = self._assembled()
        self.engine.track_writes()

    # -- runtime plumbing ----------------------------------------------
    def _make_runtime(self):
        policy = make_policy(self.mode, staleness_bound=self.staleness_bound)
        if self.runtime == "threaded":
            return ThreadedRuntime(self.engine, policy,
                                   time_scale=self.time_scale)
        return SimulatedRuntime(self.engine, policy)

    def _assembled(self) -> Dict[Node, Any]:
        answer = self.engine.assemble()
        try:
            return dict(answer)
        except (TypeError, ValueError):
            raise ProgramError(
                f"{type(self.program).__name__} assembles a "
                f"{type(answer).__name__}; the service needs a node -> "
                f"value mapping to serve point lookups") from None

    # -- introspection -------------------------------------------------
    @property
    def lag(self) -> int:
        """Current staleness: accepted-but-unapplied batches."""
        return len(self._pending)

    @property
    def graph(self) -> Graph:
        """The graph the applied epochs have made: the input plus every
        applied insertion, as :meth:`Graph.add_novel_edges` would have
        grown it.  Made on each read, over arrays, so a read builds none
        of its dicts; the service itself never reads it (it asks its
        partition whether an edge exists)."""
        return self._input.extended(self._inserted).to_graph()

    @property
    def answer(self) -> Dict[Node, Any]:
        """The assembled answer at the current *applied* epoch."""
        return dict(self._answer)

    @property
    def cache(self) -> _NoCache:
        """A stand-in with ``stats()["hit_rate"] == 0.0``, for one reader:
        ``benchmarks/e2e/layers.py`` reports ``serve.cache_hit_rate`` from
        it.  A read is a lookup in the maintained answer; the service never
        consults this."""
        return _NoCache()

    def status(self) -> Dict[str, Any]:
        """What the service is doing right now, as one JSON-ready dict.

        Read-only and free of state of its own: every number comes from
        the counters, histograms and event log the hot paths already
        feed.
        """
        return {
            "epoch": self.epoch,
            "accepted": self.accepted,
            "lag": len(self._pending),
            "engine": "dense" if self.engine.vectorized else "generic",
            "nodes": len(self.pg.owner),
            "edges": self._input.num_edges + len(self._inserted),
            "fragments": [
                {"nodes": len(view), "capacity": view.capacity,
                 "overflow_edges": view.spilled,
                 "merge_threshold": view.merge_threshold,
                 "merges": view.merges}
                for view in (frag._arrays for frag in self.pg)],
            "queries": {"served": self._query_latency.count,
                        "shed": self._shed_queries.value},
            "batches": {"accepted": self._batches_accepted.value,
                        "shed": self._shed_batches.value},
            "query_latency": self._query_latency.summary(),
            "staleness": self._staleness.summary(),
            "epoch_duration": self._epoch_duration.summary(),
            "events": {"retained": len(self._log),
                       "dropped": self._log.dropped},
        }

    # -- ingest path ---------------------------------------------------
    def ingest(self, batch: UpdateBatch) -> IngestReceipt:
        """Admit, validate and park one update batch.

        Atomic: validation covers the whole batch against the current
        graph plus everything already staged, so a rejected batch
        (:class:`~repro.errors.ProgramError`) leaves the service
        untouched.  Every batch of a program that keeps
        :class:`~repro.core.pie.PIEProgram`'s default streaming hook for
        the engine it runs on is rejected the same way.  A shed batch
        (queue full) is reported, not raised.
        """
        if self._refusal is not None:
            raise ProgramError(self._refusal)
        t0 = perf_counter()
        reason = self.admission.admit_batch(len(self._pending))
        if reason is not None:
            self._shed_batches.inc()
            self._log.emit(ADMISSION_SHED, perf_counter(), kind="batch",
                           reason=reason, depth=len(self._pending))
            return IngestReceipt(accepted=False, epoch=self.accepted,
                                 depth=len(self._pending),
                                 latency=perf_counter() - t0, reason=reason)
        if self.engine.vectorized:
            # the arrays the dense engine serves from number nodes by id:
            # a bad id is refused before it is looked up in them
            for edge in batch.insertions:
                for v in edge[:2]:
                    if type(v) is not int or v < 0:
                        raise ProgramError(
                            f"node id {v!r}: a service on the dense engine "
                            f"takes non-negative integer node ids only")
        keys = validate_batch(self.pg, batch, staged=self._staged)
        self._staged.update(keys)
        self._pending.append((batch, keys))
        self.accepted += 1
        latency = perf_counter() - t0
        self._ingest_latency.observe(latency)
        self._batches_accepted.inc()
        self._log.emit(INGEST, perf_counter(), edges=len(batch),
                       depth=len(self._pending), latency=latency)
        return IngestReceipt(accepted=True, epoch=self.accepted,
                             depth=len(self._pending), latency=latency)

    # -- epoch apply ---------------------------------------------------
    def pump(self, max_batches: Optional[int] = None) -> int:
        """Apply up to ``max_batches`` pending batches; return how many."""
        applied = 0
        while self._pending and (max_batches is None
                                 or applied < max_batches):
            self._apply_one()
            applied += 1
        return applied

    def flush(self) -> int:
        """Apply every pending batch (staleness 0 afterwards)."""
        return self.pump()

    def _apply_one(self) -> None:
        batch, keys = self._pending.popleft()
        t0 = perf_counter()
        self._staged.difference_update(keys)
        self._inserted.extend(batch.insertions)
        report = grow_edge_cut(self.pg, batch.insertions)
        self.engine.extend_contexts(report)
        self.engine.refresh_routes(report)
        messages = integrate_insertions(self.engine, report)
        if messages:
            # on the calling thread: the continuation of one batch is a
            # few short rounds, and an epoch that waits on thread wake-ups
            # takes as long as the scheduler says, not the program
            resume_to_fixpoint(self.engine, messages)
        # with no designated messages the local IncEvals already reached
        # the global fixpoint
        self.epoch += 1
        delta = self.engine.answer_delta()
        if delta is None:
            # the program declares no delta: everything may have moved
            delta = self._assembled()
        answer = self._answer
        changed = {k: val for k, val in delta.items()
                   if answer.get(k, _MISSING) != val}
        answer.update(changed)
        duration = perf_counter() - t0
        self._epochs.inc()
        self._epoch_duration.observe(duration)
        self._epoch_changed.observe(len(changed))
        if report.merged:
            self._csr_merges.inc(len(report.merged))
        self._log.emit(EPOCH_APPLY, perf_counter(), epoch=self.epoch,
                       edges=len(batch), changed=len(changed),
                       duration=duration, merged=sorted(report.merged))

    # -- query path ----------------------------------------------------
    def query(self, key: Node, staleness_bound: int = 0) -> QueryResult:
        """Answer a point lookup no staler than ``staleness_bound`` epochs.

        A read whose bound the lag already meets is a lookup in the
        maintained answer, timed into its two histograms.  The admission
        controller is asked only when a read must catch up (:meth:`_catch_up`).
        """
        lag = len(self._pending)
        if lag > staleness_bound:
            return self._catch_up(staleness_bound, self._answer.get, key)
        t0 = perf_counter()
        value = self._answer.get(key)
        latency = perf_counter() - t0
        self._query_latency.observe(latency)
        self._staleness.observe(lag)
        return tuple.__new__(QueryResult, (True, value, self.epoch, lag,
                                           latency, None))

    def snapshot(self, staleness_bound: int = 0) -> QueryResult:
        """The whole assembled answer under the same freshness contract."""
        return self._catch_up(staleness_bound, dict, self._answer)

    def _catch_up(self, bound: int, read, arg) -> QueryResult:
        """The freshness contract of a :meth:`query` past its bound and of
        every :meth:`snapshot`: admit or shed if a catch-up is due, apply
        batches until the lag meets ``bound``, then time ``read(arg)``."""
        if bound < 0:
            raise ProgramError(
                f"staleness bound must be >= 0 epochs, got {bound}")
        t0 = perf_counter()
        pending = self._pending
        if len(pending) > bound:
            reason = self.admission.admit_query(len(pending), bound)
            if reason is not None:
                self._shed_queries.inc()
                self._log.emit(ADMISSION_SHED, perf_counter(), kind="query",
                               reason=reason, depth=len(pending))
                return QueryResult(served=False, value=None,
                                   epoch=self.epoch, staleness=len(pending),
                                   latency=perf_counter() - t0,
                                   reason=reason)
            while len(pending) > bound:
                self._apply_one()
        lag = len(pending)
        value = read(arg)
        latency = perf_counter() - t0
        self._query_latency.observe(latency)
        self._staleness.observe(lag)
        return tuple.__new__(QueryResult, (True, value, self.epoch, lag,
                                           latency, None))

    def __repr__(self) -> str:
        return (f"GraphService(m={self.m}, mode={self.mode!r}, "
                f"runtime={self.runtime!r}, epoch={self.epoch}, "
                f"lag={self.lag})")
