"""The four workloads: inputs from the seed, set-up, timed loop, checks.

Everything here runs inside the workload child process and measures the
system from outside, through its public entry points, with no wrappers
installed (the traced pass lives in :mod:`layers`).  ``--seed`` feeds the
input generators only; the program under test sees generated inputs.

Why these four, and what each is expected to move, is recorded in
``README.md`` and, in one sentence each, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import (PageRankProgram, PageRankQuery, SSSPProgram,
                              SSSPQuery)
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import PartitionedGraph
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.serve.loadgen import verify_against_recompute
from repro.serve.service import GraphService
from repro.streaming.updates import UpdateBatch

#: fragments == workers == cores of the reference box, everywhere
FRAGMENTS = 2
#: cold builds per run; ``setup_s`` is their median
SETUP_BUILDS = 3
#: peak RSS is read once this many units are done, not at the end, so it
#: does not depend on how many units a faster or slower build fits into
#: ``--seconds`` (the serve event log grows with every query)
RSS_UNITS = 5
RSS_CYCLES = 40
RUN_TIMEOUT = 60.0
#: a speed probe runs between two timed units once the last one is this
#: many seconds old: about an eighth of a window goes to probes
PROBE_GAP = 0.5

# serve cycle shape: {2 ingests -> pump(1) -> catch-up query -> reads}.
# The read block is sized so reads are ~40 % of a cycle; at the issue's
# 500 they were 12 % and a 30 % read regression would have stayed inside
# the bound on run_s.
BATCHES_PER_CYCLE = 2
BATCH_EDGES = 8
READS_PER_CYCLE = 2000
READ_BOUND = 4
KEY_SKEW = 2.0


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "batch" | "serve"
    algorithm: str  # "pagerank" | "sssp"
    graph: Callable[[int, bool], Graph]
    runtime: str = "threaded"  # "threaded" | "multiprocess"
    mode: str = "AAP"


WORKLOADS: Dict[str, Spec] = {s.name: s for s in (
    Spec("pagerank-powerlaw-threaded", "batch", "pagerank",
         lambda seed, quick: generators.powerlaw(
             5_000 if quick else 60_000, m=3, weighted=True, seed=seed)),
    Spec("sssp-grid-mp", "batch", "sssp",
         lambda seed, quick: generators.grid2d(
             *((40, 40) if quick else (160, 160)), weighted=True,
             seed=seed),
         runtime="multiprocess"),
    Spec("pagerank-rmat-mp-bsp", "batch", "pagerank",
         lambda seed, quick: generators.rmat(
             10 if quick else 15, edge_factor=6, directed=True, seed=seed),
         runtime="multiprocess", mode="BSP"),
    Spec("serve-sssp-mixed", "serve", "sssp",
         lambda seed, quick: generators.powerlaw(
             2_000 if quick else 20_000, m=3, weighted=True, seed=seed)),
)}


def no_span(name: str, count: int = 1):
    """Stands in for ``Tracer.span`` in the untraced pass."""
    return nullcontext()


# -- clocks ------------------------------------------------------------
def cpu_now() -> float:
    """CPU seconds (user + sys) of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest reaped child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


class SpeedProbe:
    """A fixed piece of work, timed between the units of a window.

    The reference box is a 2-vCPU VM on a shared host whose speed moves
    by 10-40 % for seconds to minutes at a time, in two ways that do not
    move together: the core (what a bytecode loop feels) and the memory
    system (what a gather/scatter over 16 MB feels).  The probe is half
    of each, and nothing of the program under test.  ``report`` divides
    every timed unit by the probes beside it, which took the spread of
    ``run_s`` between windows from 26 % to 2-5 % (README, ledger 12).
    """

    PY_STEPS = 800_000
    NP_SIZE = 1_000_000
    NP_PASSES = 6

    def __init__(self):
        rng = np.random.default_rng(0)
        self._idx = rng.integers(0, self.NP_SIZE // 4, self.NP_SIZE)
        self._val = rng.random(self.NP_SIZE)

    def sample(self) -> float:
        """Wall seconds of one probe (~0.1 s on the quiet reference box)."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.PY_STEPS):
            acc += i * i % 7
        for _ in range(self.NP_PASSES):
            sums = np.bincount(self._idx, weights=self._val,
                               minlength=self.NP_SIZE // 4)
            acc += float((sums[self._idx] * 0.85)[-1])
        return time.perf_counter() - t0


# -- batch pieces ------------------------------------------------------
def make_query(spec: Spec, graph: Graph) -> Tuple[Any, Any, float]:
    """Program class, PIE query and answer tolerance (0.0 = exact)."""
    if spec.algorithm == "sssp":
        return SSSPProgram, SSSPQuery(source=0), 0.0
    n = graph.num_nodes
    query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
    # as repro.bench.kernels: each run may leave up to eps_node
    # unshipped at every in-neighbour of a node plus its own pending
    # mass, so two runs differ by at most twice that residual
    eps_node = query.epsilon / n
    max_indeg = max(graph.in_degree(v) for v in graph.nodes)
    return PageRankProgram, query, 2.0 * eps_node * (1 + max_indeg)


def build_partition(graph: Graph, span=no_span) -> PartitionedGraph:
    """Partition + CSR compaction: what a cold start pays before a run."""
    with span("partition.build"):
        pg = HashPartitioner().partition(graph, FRAGMENTS)
    with span("partition.compact"):
        for frag in pg:
            frag.compact()
    return pg


def make_run(spec: Spec, pg: PartitionedGraph, program_cls: Any, query: Any,
             mode: Optional[str] = None, transport: str = "shm",
             observer: Any = None) -> Callable[[], Any]:
    """One query on the warm partition: engine/runtime construction to
    assembled answer."""
    mode = mode or spec.mode
    if spec.runtime == "threaded":
        def run():
            engine = Engine(program_cls(), pg, query, vectorized=True)
            return ThreadedRuntime(engine, make_policy(mode),
                                   timeout=RUN_TIMEOUT,
                                   observer=observer).run()
    else:
        def run():
            return MultiprocessRuntime(
                program_cls(), pg, query, mode=mode, timeout=RUN_TIMEOUT,
                vectorized=True, transport=transport,
                observer=observer).run()
    return run


def seq_run(engine: Engine) -> Tuple[Any, int, int]:
    """The single-threaded baseline and reference answer.

    One thread drives ``run_peval``/``run_inceval`` in BSP order with
    in-memory delivery.  Returns ``(answer, rounds, entries)``: rounds
    summed over fragments, logical entries shipped — both exact counts.
    """
    m = engine.num_workers
    inbox: List[List[Any]] = [[] for _ in range(m)]
    rounds = entries = 0

    def deliver(out) -> None:
        nonlocal entries
        for msg in out.messages:
            entries += len(msg)
            inbox[msg.dst].append(msg)

    for out in [engine.run_peval(wid) for wid in range(m)]:
        rounds += 1
        deliver(out)
    round_no = 1
    while any(inbox):
        current, inbox = inbox, [[] for _ in range(m)]
        for wid in range(m):
            if current[wid]:
                rounds += 1
                deliver(engine.run_inceval(wid, current[wid], round_no))
        round_no += 1
    return engine.assemble(), rounds, entries


def answers_match(answer: Dict[Any, float], reference: Dict[Any, float],
                  tolerance: float) -> bool:
    if answer.keys() != reference.keys():
        return False
    if tolerance == 0.0:
        return answer == reference
    return all(abs(answer[k] - reference[k]) <= tolerance
               for k in reference)


def shipped_entries(result: Any) -> int:
    """Logical entries a run shipped, from its byte and batch counts."""
    from repro.core.messages import ENTRY_BYTES, ENVELOPE_BYTES
    m = result.metrics
    return (m.total_bytes - m.total_messages * ENVELOPE_BYTES) // ENTRY_BYTES


class Recorder:
    """Run-table rows plus the failure count of one pass."""

    def __init__(self, workload: str, seed: int, trace: int):
        self._base = {"workload": workload, "seed": seed, "trace": trace}
        self.rows: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failures: List[str] = []
        self._probe = SpeedProbe()
        self._probed_at = float("-inf")

    def row(self, kind: str, rep: int, wall_s: float, cpu_s: float = 0.0,
            rounds: int = 0, entries: int = 0, edges: int = 0,
            ok: bool = True) -> None:
        self.rows.append({**self._base, "kind": kind, "rep": rep,
                          "wall_s": wall_s, "cpu_s": cpu_s,
                          "rounds": rounds, "entries": entries,
                          "edges": edges, "ok": int(ok)})

    def calibrate(self, min_gap: float = 0.0) -> None:
        """Time one speed probe (a ``cal`` row) unless the last one ended
        less than ``min_gap`` seconds ago.  Rows are chronological, so
        the probes beside a unit are its neighbours in the table."""
        if time.perf_counter() - self._probed_at >= min_gap:
            self.row("cal", sum(r["kind"] == "cal" for r in self.rows),
                     self._probe.sample())
            self._probed_at = time.perf_counter()

    def walls(self, kind: str) -> List[float]:
        """Wall times of the rows of one kind that passed their check."""
        return [r["wall_s"] for r in self.rows
                if r["kind"] == kind and r["ok"]]

    def attempt(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed one is recorded."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def cold_builds(rec: Recorder, build: Callable[[], Any]) -> Any:
    """``SETUP_BUILDS`` timed cold builds (``setup`` rows), a speed probe
    on either side of each; the last build is returned warm."""
    built = None
    for rep in range(SETUP_BUILDS):
        built = None
        gc.collect()  # each build starts without the previous one's heap
        rec.calibrate()
        t0, c0 = time.perf_counter(), cpu_now()
        built = build()
        rec.row("setup", rep, time.perf_counter() - t0, cpu_now() - c0)
    rec.calibrate()
    return built


def timed_run(rec: Recorder, kind: str, rep: int, run: Callable[[], Any],
              reference: Any, tolerance: float, edges: int = 0,
              corrupt: bool = False) -> Optional[Any]:
    """Run once, check the answer, append the run-table row."""
    t0, c0 = time.perf_counter(), cpu_now()
    try:
        result = run()
    except Exception as exc:  # a run that raises is a counted failure
        rec.attempt(False, f"{kind} {rep} raised {exc!r}")
        rec.row(kind, rep, time.perf_counter() - t0, ok=False)
        return None
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    answer = result.answer
    if corrupt:  # self-test hook: see run.py --inject
        answer = dict(answer)
        answer[next(iter(answer))] = -1.0
    ok = rec.attempt(answers_match(answer, reference, tolerance),
                     f"{kind} {rep} does not match the reference")
    rec.row(kind, rep, wall, cpu, rounds=max(result.rounds),
            entries=shipped_entries(result), edges=edges, ok=ok)
    return result


def measure_batch(spec: Spec, seed: int, seconds: float, quick: bool,
                  rec: Recorder, inject: Optional[str]) -> Dict[str, float]:
    """Untraced pass of a batch workload; returns the scalar metrics."""
    graph = spec.graph(seed, quick)
    program_cls, query, tolerance = make_query(spec, graph)

    def build() -> PartitionedGraph:
        pg = build_partition(graph)
        Engine(program_cls(), pg, query, vectorized=True)
        return pg

    pg = cold_builds(rec, build)
    reference, _, _ = seq_run(
        Engine(program_cls(), pg, query, vectorized=True))
    if quick:
        generic, _, _ = seq_run(Engine(program_cls(), pg, query))
        rec.attempt(answers_match(reference, generic, tolerance),
                    "vectorized and generic sequential answers differ")
    run = make_run(spec, pg, program_cls, query)
    timed_run(rec, "warmup", 0, run, reference, tolerance)
    scalars: Dict[str, float] = {}
    started = time.perf_counter()
    rep = 0
    while rep < 3 or time.perf_counter() - started < seconds:
        rec.calibrate(PROBE_GAP)
        timed_run(rec, "unit", rep, run, reference, tolerance,
                  edges=graph.num_edges,
                  corrupt=inject == "wrong-answer" and rep == 0)
        rep += 1
        if rep == RSS_UNITS:
            scalars["peak_rss_mb"] = peak_rss_mb()
    rec.calibrate()
    scalars.setdefault("peak_rss_mb", peak_rss_mb())
    return scalars


# -- serve pieces ------------------------------------------------------
class ServeScript:
    """Seeded closed-loop op stream for one service: one client that
    waits for each reply before it sends the next request."""

    def __init__(self, graph: Graph, seed: int):
        self.rng = random.Random(seed)
        self.nodes = sorted(graph.nodes)
        self._edges = {frozenset((u, v)) for u, v, _ in graph.edges()}
        self._next_id = self.nodes[-1] + 1

    def key(self) -> int:
        """Skewed choice: low indices are hot."""
        idx = int(len(self.nodes) * self.rng.random() ** KEY_SKEW)
        return self.nodes[min(idx, len(self.nodes) - 1)]

    def batch(self) -> UpdateBatch:
        """``BATCH_EDGES`` novel edges, every other one to a new node."""
        edges = []
        while len(edges) < BATCH_EDGES:
            u = self.key()
            if len(edges) % 2 == 0:
                v = self._next_id
                self._next_id += 1
                self.nodes.append(v)
            else:
                v = self.key()
            pair = frozenset((u, v))
            if u == v or pair in self._edges:
                continue
            self._edges.add(pair)
            edges.append((u, v, round(self.rng.uniform(1.0, 4.0), 3)))
        return UpdateBatch(insertions=tuple(edges))


def build_service(graph: Graph) -> GraphService:
    return GraphService(SSSPProgram(), graph, SSSPQuery(source=0),
                        num_fragments=FRAGMENTS, mode="AAP",
                        runtime="threaded")


def serve_cycles(svc: GraphService, script: ServeScript, seconds: float,
                 min_cycles: int, rec: Recorder, span=no_span,
                 inject: Optional[str] = None) -> Dict[str, Any]:
    """Drive cycles for ``seconds``; returns what only the loop can see.

    Each cycle: ``BATCHES_PER_CYCLE`` ingests, ``pump(1)``, one
    ``staleness_bound=0`` query that must apply the remaining batch, then
    ``READS_PER_CYCLE`` reads that need no catch-up.  The three query
    classes are separate by construction.
    """
    out: Dict[str, Any] = {"self_reported": [], "shed": 0, "ops": 0}
    started = time.perf_counter()
    cycle = 0
    while cycle < min_cycles or time.perf_counter() - started < seconds:
        rec.calibrate(PROBE_GAP)
        batches = [script.batch() for _ in range(BATCHES_PER_CYCLE)]
        fresh_key = script.key()
        read_keys = [script.key() for _ in range(READS_PER_CYCLE)]
        bad = 0
        t0, c0 = time.perf_counter(), time.process_time()
        for batch in batches:
            with span("serve.ingest"):
                bad += not svc.ingest(batch).accepted
        t_ingest = time.perf_counter()
        with span("serve.pump"):
            bad += svc.pump(1) != 1
        t_pump = time.perf_counter()
        with span("serve.query_catchup"):
            fresh = svc.query(fresh_key, staleness_bound=0)
        t_fresh = time.perf_counter()
        bad += not fresh.served or fresh.staleness != 0
        with span("serve.read_block", READS_PER_CYCLE):
            reads = [svc.query(k, staleness_bound=READ_BOUND)
                     for k in read_keys]
        t_end = time.perf_counter()
        cpu = time.process_time() - c0
        bad += sum(not r.served or r.staleness > READ_BOUND for r in reads)
        if inject == "wrong-answer" and cycle == 0:
            bad += 1
        ops = BATCHES_PER_CYCLE + 2 + READS_PER_CYCLE
        rec.attempted += ops
        if bad:
            rec.failures.append(
                f"cycle {cycle}: {bad} shed or contract-violating ops")
        out["shed"] += bad
        out["ops"] += ops
        out["self_reported"].append(
            statistics.median(r.latency for r in reads))
        rec.row("unit", cycle, t_end - t0, cpu, entries=ops, ok=not bad)
        rec.row("update", cycle, t_fresh - t0, ok=not bad,
                edges=BATCHES_PER_CYCLE * BATCH_EDGES)
        rec.row("ingest", cycle, (t_ingest - t0) / BATCHES_PER_CYCLE)
        rec.row("pump", cycle, t_pump - t_ingest)
        rec.row("catchup", cycle, t_fresh - t_pump)
        rec.row("read", cycle, (t_end - t_fresh) / READS_PER_CYCLE,
                entries=READS_PER_CYCLE)
        cycle += 1
        if cycle == RSS_CYCLES:
            out["peak_rss_mb"] = peak_rss_mb()
    rec.calibrate()
    out.setdefault("peak_rss_mb", peak_rss_mb())
    return out


def verify_service(svc: GraphService, rec: Recorder) -> float:
    """Drain the service and compare it with a from-scratch recompute."""
    t0 = time.perf_counter()
    svc.flush()
    rec.attempt(verify_against_recompute(svc),
                "drained service differs from full recompute")
    return time.perf_counter() - t0


def measure_serve(spec: Spec, seed: int, seconds: float, quick: bool,
                  rec: Recorder, inject: Optional[str]) -> Dict[str, float]:
    """Untraced pass of the serve workload; returns the scalar metrics."""
    graph = spec.graph(seed, quick)
    svc = cold_builds(rec, lambda: build_service(graph))
    loop = serve_cycles(svc, ServeScript(graph, seed), seconds,
                        20 if quick else RSS_CYCLES, rec, inject=inject)
    verify_service(svc, rec)
    return {"peak_rss_mb": loop["peak_rss_mb"]}
