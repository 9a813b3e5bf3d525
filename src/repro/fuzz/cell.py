"""One conformance cell: what runs, and how it is judged.

A :class:`Cell` names one run and is fully serializable: algorithm,
graph, partitioner, fragments, mode, runtime, engine, fault plan and
perturber.  :func:`run_cell` judges every cell the same way: one
:func:`workload`, one reference (the sequential fixpoint), one
:func:`tolerance`, one :func:`compare`.  A simulated cell runs under its
perturber with the online oracles attached; a live cell runs through
:func:`~repro.runtime.recovery.run_with_recovery` (a plain ``run()``
unless armed by faults or checkpoints).  The :class:`Verdict` is a list
of :class:`OracleViolation`: the oracles' and ``contraction``, ``crash``
(the run raised), ``differential`` (the answer left the tolerance),
``schedule`` (a BSP run left the strict superstep schedule)
and ``rung`` (the recovery ladder ended off the cell's rung).  Cells come
from :func:`case_from_seed` (seeded fuzz) and the lists in :data:`GRIDS`.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, ReachabilityProgram, ReachQuery,
                              SSSPProgram, SSSPQuery)
from repro.core.engine import Engine
from repro.core.fixpoint import ScheduledExecutor, run_sequential_fixpoint
from repro.core.modes import MODES, make_policy
from repro.errors import ReproError, RuntimeConfigError, WorkerFailureError
from repro.fuzz.oracles import (CheckingLog, ContractionProbe, OracleSuite,
                                OracleViolation)
from repro.fuzz.perturb import PerturberConfig, SchedulePerturber
from repro.graph import generators, io
from repro.obs import Observer
from repro.partition.edge_cut import (BfsPartitioner, GreedyLdgPartitioner,
                                      HashPartitioner, RangePartitioner)
from repro.runtime.faultplan import (CrashFault, DelayFault, DropFault,
                                     DuplicateFault, FaultPlan,
                                     StragglerFault)
from repro.runtime.recovery import RetryPolicy, run_with_recovery
from repro.runtime.simulator import SimulatedRuntime

#: the differential grid's algorithms; the fuzzer adds reachability
ALGORITHMS = ("sssp", "cc", "pagerank")
FUZZ_ALGORITHMS = ("sssp", "cc", "reachability", "pagerank")
RUNTIMES = ("simulated", "threaded", "multiprocess")
#: the engine axis, generic first (its failure explains the vectorized)
PATHS = (False, True)
#: runs of a fault-free live BSP cell, each held to the schedule
BSP_REPEATS = 5
GRAPHS = {"erdos_renyi": generators.erdos_renyi, "grid2d": generators.grid2d,
          "powerlaw": generators.powerlaw, "path": generators.path_graph,
          "rmat": generators.rmat, "small_world": generators.small_world,
          "file": io.read_edge_list}
PARTITIONERS = {"hash": HashPartitioner, "range": RangePartitioner,
                "bfs": BfsPartitioner, "ldg": GreedyLdgPartitioner}
#: fault spec kind -> (fault, field types, defaults), spelled as the
#: ``repro chaos`` flags: ``crash:WID:ROUND``, ``delay:RATE:SECONDS``...
FAULTS = {"crash": (CrashFault, (int, int), (None, 1)),
          "drop": (DropFault, (float,), (None,)),
          "duplicate": (DuplicateFault, (float,), (None,)),
          "delay": (DelayFault, (float, float), (None, 0.05)),
          "slow": (StragglerFault, (int, float), (None, 4.0))}


@dataclass
class Cell:
    """One fully serializable conformance run."""

    algorithm: str = "sssp"
    graph_kind: str = "grid2d"
    graph_params: Dict[str, Any] = field(
        default_factory=lambda: {"rows": 4, "cols": 4})
    #: SSSP / reachability source; ``None`` is the graph's first node
    source: Any = None
    partitioner: str = "hash"
    fragments: int = 4
    mode: str = "AAP"
    staleness_bound: Optional[int] = None
    runtime: str = "simulated"
    vectorized: bool = False
    #: fault specs (:data:`FAULTS`), live cells only
    faults: Tuple[str, ...] = ()
    fault_seed: int = 0
    respawn_budget: int = 0
    #: the ladder rung the run must end on (``None``: unchecked); at rung
    #: 1 every crash must be absorbed by one in-place respawn
    rung: Optional[int] = None
    #: a :class:`PerturberConfig` dict, simulated cells only
    perturb: Optional[Dict[str, Any]] = None
    #: live-run knobs.  A live cell is armed (fault plan, heartbeat
    #: detection) iff it injects faults or takes checkpoints (``None``:
    #: none); the heartbeat defaults are the runtimes' own
    checkpoint_interval: Optional[float] = None
    heartbeat_interval: float = 0.02
    heartbeat_timeout: float = 1.0
    #: :class:`RetryPolicy` keyword arguments (rung 2)
    retry: Dict[str, Any] = field(default_factory=dict)
    timeout: float = 60.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Cell":
        return cls(**{**data, "faults": tuple(data.get("faults", ()))})

    @property
    def label(self) -> str:
        engine = "vectorized" if self.vectorized else "generic"
        seed = f" seed={self.perturb['seed']}" if self.perturb else ""
        return (f"{self.algorithm}/{self.mode}/{self.runtime}/{engine}"
                + "".join(f" {spec}" for spec in self.faults) + seed)


@dataclass
class Verdict:
    """What one cell did, and every invariant it broke."""

    cell: Cell
    violations: List[OracleViolation] = field(default_factory=list)
    answer: Any = None
    max_diff: float = 0.0
    tolerance: float = 0.0
    #: the last run's (rounds per worker, messages, bytes shipped)
    schedule: Optional[Tuple] = None
    #: a simulated cell's event stream, equal for equal cells
    signature: Tuple = ()
    mode: str = ""
    #: the recovery ladder (``run_with_recovery``'s ``extras``)
    attempts: int = 1
    recoveries: int = 0
    rung: int = 0
    respawn_log: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Any] = field(default_factory=list)
    detection_latencies: List[float] = field(default_factory=list)
    resumed_from_checkpoint: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def oracles(self) -> set:
        return {v.oracle for v in self.violations}

    @property
    def respawns(self) -> int:
        return len(self.respawn_log)

    @property
    def takeovers(self) -> int:
        return sum(1 for r in self.respawn_log if r.get("takeover"))

    def violate(self, oracle: str, message: str) -> None:
        self.violations.append(OracleViolation(oracle, message))

    def summary(self) -> str:
        return "ok" if self.ok else (f"{len(self.violations)} violations "
                                     f"({', '.join(sorted(self.oracles))})")

    def to_dict(self) -> Dict[str, Any]:
        """Everything but the answer and the signature, as JSON types."""
        out = asdict(replace(self, answer=None, signature=()))
        del out["answer"], out["signature"]
        out.update(ok=self.ok, respawns=self.respawns,
                   takeovers=self.takeovers)
        return out


def case_from_seed(seed: int, smoke: bool = False) -> Cell:
    """One randomized-but-deterministic simulated cell per seed;
    ``smoke`` shrinks the graph (a few dozen nodes, not a few hundred)."""
    rng = random.Random(("fuzz-case", seed).__repr__())
    algorithm = rng.choice(FUZZ_ALGORITHMS)
    kind = rng.choice(("erdos_renyi", "grid2d", "powerlaw", "path"))
    # one uniform draw scaled to the size band, so ``smoke`` changes the
    # graph size and nothing else (every other draw sees the same stream)
    lo, hi = (8, 24) if smoke else (16, 96)
    n = lo + int(rng.random() * (hi - lo))
    gseed = rng.randrange(1 << 16)
    side = max(int(n ** 0.5), 2)
    params = {"erdos_renyi": {"n": n, "p": min(4.0 / max(n - 1, 1), 1.0),
                              "seed": gseed},
              "grid2d": {"rows": side, "cols": side, "seed": gseed},
              "powerlaw": {"n": max(n, 5), "m": 2, "seed": gseed},
              "path": {"n": n}}[kind]
    mode = rng.choice(MODES)
    return Cell(
        algorithm=algorithm, graph_kind=kind, graph_params=params,
        fragments=rng.randrange(2, 6), mode=mode,
        staleness_bound=rng.randrange(0, 3) if mode == "SSP" else None,
        perturb=PerturberConfig.from_seed(seed).to_dict())


def build_graph(kind: str, params: Dict[str, Any]):
    if kind not in GRAPHS:
        raise ReproError(f"unknown graph kind {kind!r}")
    return GRAPHS[kind](**params)


def workload(algorithm: str, graph, source: Any = None) -> Tuple[Any, Any]:
    """(program class, query) of the named algorithm on ``graph``."""
    sourced = {"sssp": (SSSPProgram, SSSPQuery),
               "reachability": (ReachabilityProgram, ReachQuery)}
    if algorithm in sourced:
        program, query = sourced[algorithm]
        return program, query(source=next(iter(graph.nodes))
                              if source is None else source)
    if algorithm == "cc":
        return CCProgram, CCQuery()
    if algorithm == "pagerank":
        n = graph.num_nodes
        return PageRankProgram, PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
    raise ReproError(f"unknown algorithm {algorithm!r}; expected one of "
                     f"{', '.join(FUZZ_ALGORITHMS)}")


def tolerance(program, graph, query) -> float:
    """How far two fixpoints of ``program`` may differ per node.

    Idempotent aggregators (min/max) reach one fixpoint exactly: 0.  An
    accumulative program stops shipping per-node deltas below
    ``eps_node = epsilon / n``, so a run can leave up to ``eps_node``
    unpropagated at each in-neighbour of a node, plus its own: two runs
    differ by at most ``2 * eps_node * (1 + max in-degree)``, the input
    graph's in-degree counted once (a generated graph answers it from its
    degree arrays, building no dict).
    """
    if not getattr(program.aggregator, "accumulative", False):
        return 0.0
    max_indeg = max((graph.in_degree(v) for v in graph.nodes), default=0)
    return 2.0 * query.epsilon / max(graph.num_nodes, 1) * (1 + max_indeg)


def compare(reference: Any, answer: Any, tol: float) -> Tuple[bool, float]:
    """``(ok, max diff)`` of two assembled answers, per key within
    ``tol`` (0: exact).  Equal values always match (``inf == inf``); any
    other non-numeric difference, or a different key set, never does."""
    if not (isinstance(reference, dict) and isinstance(answer, dict)
            and set(reference) == set(answer)):
        same = reference == answer
        return same, 0.0 if same else float("inf")
    worst = 0.0
    for k, rv in reference.items():
        if rv != answer[k]:
            try:
                worst = max(worst, abs(rv - answer[k]))
            except TypeError:
                return False, float("inf")
    return worst <= tol, worst


def bsp_schedule(program_cls, pg, query: Any, vectorized: bool) -> Tuple:
    """The schedule BSP has on this input: every worker with mail runs
    one round per superstep, on the previous superstep's messages."""
    ex = ScheduledExecutor(Engine(program_cls(), pg, query,
                                  vectorized=vectorized))
    ex.run_supersteps()
    return tuple(ex.rounds), ex.total_messages, ex.total_bytes


def fault_plan(cell: Cell) -> FaultPlan:
    faults = []
    for spec in cell.faults:
        kind, *given = spec.split(":")
        if kind not in FAULTS:
            raise ReproError(f"unknown fault {spec!r}; expected one of "
                             f"{', '.join(FAULTS)}")
        fault, types, defaults = FAULTS[kind]
        given += [""] * len(types)
        faults.append(fault(*(t(v) if v else d
                              for t, v, d in zip(types, given, defaults))))
    return FaultPlan(seed=cell.fault_seed, faults=tuple(faults))


def run_cell(cell: Cell, observer: Any = None,
             program_cls: Any = None) -> Verdict:
    """Run one cell and judge it against the sequential fixpoint.

    ``observer`` records a live cell's events (a simulated cell records
    into its own oracle-checking log).  ``program_cls`` replaces the
    algorithm's program class, keeping its query (an injected bug).  A
    configuration the runtime or the retry policy refuses raises its
    :class:`~repro.errors.RuntimeConfigError`: a usage error, not a
    finding about the program.
    """
    start = time.monotonic()
    graph = build_graph(cell.graph_kind, cell.graph_params)
    pg = PARTITIONERS[cell.partitioner]().partition(graph, cell.fragments)
    default_cls, query = workload(cell.algorithm, graph, cell.source)
    cls = program_cls or default_cls
    verdict = Verdict(cell=cell)
    bsp = (cell.mode, cell.faults) == ("BSP", ())
    reference = pinned = None
    run = _simulate if cell.runtime == "simulated" else _live
    # the simulator is deterministic: one run shows its only schedule
    for _ in range(BSP_REPEATS if bsp and run is _live else 1):
        try:
            # the program runs only in here (a raise is a crash); the
            # reference first, so no heartbeat waits on a lazy build
            if reference is None:
                verdict.tolerance = tolerance(cls(), graph, query)
                reference = run_sequential_fixpoint(Engine(cls(), pg, query))
                pinned = (bsp_schedule(cls, pg, query, cell.vectorized)
                          if bsp else None)
            result = run(cell, cls, pg, query, observer, verdict)
        except RuntimeConfigError:
            raise  # a refused configuration is the caller's, not a finding
        except WorkerFailureError as exc:
            verdict.rung, verdict.attempts = 3, exc.attempts
            verdict.failures = list(exc.failures)
            verdict.respawn_log = list(getattr(exc, "respawns", []))
            verdict.violate("crash", str(exc))
            break
        except Exception as exc:
            verdict.violate("crash", f"{type(exc).__name__}: {exc}")
            break
        verdict.answer, verdict.mode = result.answer, result.mode
        m = result.metrics
        verdict.schedule = (tuple(result.rounds), m.total_messages,
                            m.total_bytes)
        ok, diff = compare(reference, result.answer, verdict.tolerance)
        verdict.max_diff = max(verdict.max_diff, diff)
        if not ok:
            verdict.violate("differential", (
                f"assembled answer diverged from the sequential fixpoint "
                f"(max diff {diff}, tolerance {verdict.tolerance})"))
            break
        if pinned is not None and verdict.schedule != pinned:
            verdict.violate("schedule", (
                f"schedule {verdict.schedule} is not the strict superstep "
                f"schedule {pinned}"))
        if not verdict.ok:
            break  # one report, not one per repeat
    crashes = sum(spec.startswith("crash") for spec in cell.faults)
    if cell.rung is not None and (verdict.rung != cell.rung or (
            cell.rung == 1 and verdict.respawns != crashes)):
        verdict.violate("rung", (
            f"reached rung {verdict.rung} with {verdict.respawns} respawns "
            f"for {crashes} crashes; the cell allows rung {cell.rung}"))
    verdict.elapsed = time.monotonic() - start
    return verdict


def _simulate(cell: Cell, cls, pg, query, observer, verdict: Verdict):
    """The simulator under the cell's perturber, every oracle online."""
    suite = OracleSuite.for_run(cell.mode, cell.staleness_bound)
    log = CheckingLog(suite)
    perturber = (SchedulePerturber(PerturberConfig.from_dict(cell.perturb))
                 if cell.perturb else None)
    runtime = SimulatedRuntime(
        ContractionProbe(Engine(cls(), pg, query,
                                vectorized=cell.vectorized), suite),
        make_policy(cell.mode, staleness_bound=cell.staleness_bound),
        observer=Observer(log=log), perturber=perturber)
    try:
        return runtime.run()
    finally:
        suite.finish()
        verdict.violations.extend(suite.violations)
        verdict.signature = tuple((e.type, round(e.t, 9), e.wid, e.round)
                                  for e in log)


def _live(cell: Cell, cls, pg, query, observer, verdict: Verdict):
    """A threaded or multiprocess run through the recovery ladder."""
    from repro.runtime.multiprocess import MultiprocessRuntime
    from repro.runtime.threaded import ThreadedRuntime
    if cell.runtime not in RUNTIMES:
        raise ReproError(f"unknown runtime {cell.runtime!r}")
    armed = bool(cell.faults) or cell.checkpoint_interval is not None
    knobs: Dict[str, Any] = dict(
        timeout=cell.timeout, observer=observer,
        respawn_budget=cell.respawn_budget,
        fault_plan=fault_plan(cell) if armed else None,
        checkpoint_interval=cell.checkpoint_interval,
        heartbeat_interval=cell.heartbeat_interval,
        heartbeat_timeout=cell.heartbeat_timeout)

    def runtime_for(snapshot, attempt, crash=None):
        # a rollback disarms only the crash that fired: later crashes of
        # a multi-crash script still play out
        if crash is not None and armed:
            knobs["fault_plan"] = knobs["fault_plan"].without_crash(crash.wid)
        if cell.runtime == "multiprocess":
            rt = MultiprocessRuntime(
                cls(), pg, query, mode=cell.mode,
                staleness_bound=cell.staleness_bound,
                vectorized=cell.vectorized, **knobs)
        else:
            rt = ThreadedRuntime(
                Engine(cls(), pg, query, vectorized=cell.vectorized),
                make_policy(cell.mode, staleness_bound=cell.staleness_bound),
                **knobs)
        if snapshot is not None:
            rt.seed_from_snapshot(snapshot)
        return rt

    result = run_with_recovery(runtime_for, retry=RetryPolicy(**cell.retry),
                               observer=observer)
    rec = result.extras["recovery"]
    verdict.attempts, verdict.recoveries = rec["attempts"], rec["recoveries"]
    verdict.rung, verdict.failures = rec["rung"], rec["failures"]
    verdict.respawn_log = [dict(r) for r in rec["respawns"]]
    verdict.detection_latencies = [round(c["detection_latency"], 4)
                                   for c in rec["crashes"]]
    verdict.resumed_from_checkpoint = rec["resumed_from_checkpoint"]
    return result


def differential_grid(graph=("grid2d", {"rows": 8, "cols": 8,
                                        "weighted": True, "seed": 0}),
                      fragments: int = 4,
                      timeout: float = 120.0) -> List[Cell]:
    """{sssp, cc, pagerank} x 5 modes x 3 runtimes x 2 engines: 90."""
    return [Cell(algorithm=a, graph_kind=graph[0],
                 graph_params=dict(graph[1]), fragments=fragments, mode=m,
                 runtime=r, vectorized=v, timeout=timeout)
            for a in ALGORITHMS for m in MODES for r in RUNTIMES
            for v in PATHS]


CRASHES = {1: ("crash:1:2",), 2: ("crash:1:2", "crash:2:3")}


def chaos_grid(graph=("grid2d", {"rows": 12, "cols": 12}),
               fragments: int = 4, timeout: float = 60.0) -> List[Cell]:
    """{threaded, multiprocess} x {AAP, BSP, SSP} x {1, 2 crashes} x
    2 engines of SSSP: each crash absorbed in place (rung 1).  24.
    Checkpoints every 10 ms, heartbeats every 5 ms, a worker silent for
    250 ms is dead."""
    return [Cell(algorithm="sssp", graph_kind=graph[0],
                 graph_params=dict(graph[1]), fragments=fragments, mode=m,
                 runtime=r, vectorized=v, faults=CRASHES[k], fault_seed=7,
                 respawn_budget=1, rung=1, checkpoint_interval=0.01,
                 heartbeat_interval=0.005, heartbeat_timeout=0.25,
                 timeout=timeout)
            for r in ("threaded", "multiprocess")
            for m in ("AAP", "BSP", "SSP") for k in sorted(CRASHES)
            for v in PATHS]


GRIDS = {"differential": differential_grid, "chaos": chaos_grid}


def format_report(verdicts: Sequence[Verdict]) -> str:
    """Failures first, then ``passed/total cells match``."""
    failed = [v for v in verdicts if not v.ok]
    lines = [f"MISMATCH {v.cell.label}: " + "; ".join(
        f"{x.oracle}: {x.message}" for x in v.violations[:3])
        for v in failed]
    lines.append(f"{len(verdicts) - len(failed)}/{len(verdicts)} cells match")
    return "\n".join(lines)
