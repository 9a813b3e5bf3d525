"""Generic vs vectorized kernel benchmark (the fast-path speedup bench).

Times each algorithm (SSSP, CC, PageRank) on each runtime twice — once
through the generic per-vertex path and once through the dense vectorized
path — and cross-checks that both produce the same answer.  SSSP and CC
must match exactly; PageRank is compared within the programs' shipping
tolerance (accumulation order differs between the two paths).

Entry point is :func:`run_kernel_bench`; ``repro bench -e kernels`` and
``benchmarks/bench_kernels.py`` are thin wrappers around it that also
write ``BENCH_kernels.json``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import PartitionedGraph

ALGORITHMS = ("sssp", "cc", "pagerank")
RUNTIMES = ("simulated", "threaded", "multiprocess")


def _make_workload(algorithm: str, graph: Graph) -> Tuple[Any, Any, float]:
    """Program factory + query + match tolerance (0.0 = exact)."""
    if algorithm == "sssp":
        source = next(iter(graph.nodes))
        return SSSPProgram, SSSPQuery(source=source), 0.0
    if algorithm == "cc":
        return CCProgram, CCQuery(), 0.0
    if algorithm == "pagerank":
        n = graph.num_nodes
        query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
        # Both paths stop shipping per-node deltas below
        # eps_node = epsilon / n, so each run can leave up to eps_node
        # unpropagated at every in-neighbour of a node (plus its own
        # pending mass); two runs differ by at most twice that residual.
        eps_node = query.epsilon / max(n, 1)
        max_indeg = max((graph.in_degree(v) for v in graph.nodes),
                        default=0)
        return PageRankProgram, query, 2.0 * eps_node * (1 + max_indeg)
    raise ReproError(f"unknown bench algorithm {algorithm!r}")


def _run_result(runtime: str, program_cls, pg: PartitionedGraph,
                query: Any, mode: str, vectorized: bool, timeout: float,
                transport: Optional[str] = None) -> Any:
    """One run on the named runtime; returns its ``RunResult``."""
    program = program_cls()
    if runtime == "simulated":
        from repro import api
        return api.run(program, pg, query, mode=mode,
                       record_trace=False, vectorized=vectorized)
    if runtime == "threaded":
        from repro.core.engine import Engine
        from repro.core.modes import make_policy
        from repro.runtime.threaded import ThreadedRuntime
        engine = Engine(program, pg, query, vectorized=vectorized)
        return ThreadedRuntime(engine, make_policy(mode),
                               timeout=timeout).run()
    if runtime == "multiprocess":
        from repro.runtime.multiprocess import MultiprocessRuntime
        return MultiprocessRuntime(program, pg, query, mode=mode,
                                   timeout=timeout,
                                   vectorized=vectorized,
                                   transport=transport).run()
    raise ReproError(f"unknown runtime {runtime!r}")


def _run_once(runtime: str, program_cls, pg: PartitionedGraph, query: Any,
              mode: str, vectorized: bool, timeout: float,
              transport: Optional[str] = None
              ) -> Tuple[float, Dict[Any, Any]]:
    """One timed run; returns (wall seconds, assembled answer)."""
    t0 = time.perf_counter()
    result = _run_result(runtime, program_cls, pg, query, mode, vectorized,
                         timeout, transport)
    return time.perf_counter() - t0, result.answer


def _answers_match(generic: Dict[Any, Any], fast: Dict[Any, Any],
                   tolerance: float) -> Tuple[bool, float]:
    """Compare assembled answers; returns (ok, max observed diff)."""
    if set(generic) != set(fast):
        return False, float("inf")
    if tolerance == 0.0:
        return generic == fast, 0.0
    worst = max((abs(generic[k] - fast[k]) for k in generic), default=0.0)
    return worst <= tolerance, worst


def run_kernel_bench(graph: Graph, *, fragments: int = 4, mode: str = "AP",
                     runtimes: Sequence[str] = RUNTIMES,
                     algorithms: Sequence[str] = ALGORITHMS,
                     timeout: float = 600.0,
                     transport: Optional[str] = None,
                     progress=None) -> Dict[str, Any]:
    """Bench every algorithm x runtime, generic vs vectorized.

    Returns a JSON-serialisable report; ``results`` rows carry the two
    wall-clock times, the speedup, and whether the cross-check passed.
    ``transport`` selects the multiprocess data plane (``"shm"`` /
    ``"queue"``; None = runtime default).  ``progress`` (optional
    callable) receives one line per finished row.
    """
    from repro.core.engine import Engine
    pg = HashPartitioner().partition(graph, fragments)
    rows = []
    for algorithm in algorithms:
        program_cls, query, tolerance = _make_workload(algorithm, graph)
        # warm the partition-level caches (CSR views, memoized ship sets
        # and dense routes) once per program class so timed runs measure
        # steady-state kernel cost, not one-time setup shared by both
        # paths and amortised over every run of a query class
        Engine(program_cls(), pg, query, vectorized=False)
        Engine(program_cls(), pg, query, vectorized=True)
        for runtime in runtimes:
            t_gen, a_gen = _run_once(runtime, program_cls, pg, query,
                                     mode, False, timeout,
                                     transport=transport)
            t_vec, a_vec = _run_once(runtime, program_cls, pg, query,
                                     mode, True, timeout,
                                     transport=transport)
            ok, worst = _answers_match(a_gen, a_vec, tolerance)
            row = {
                "algorithm": algorithm,
                "runtime": runtime,
                "generic_s": round(t_gen, 4),
                "vectorized_s": round(t_vec, 4),
                "speedup": round(t_gen / t_vec, 2) if t_vec > 0
                else float("inf"),
                "match": ok,
                "max_diff": worst if tolerance else 0.0,
                "tolerance": tolerance,
            }
            rows.append(row)
            if progress is not None:
                progress(f"{algorithm}/{runtime}: generic {t_gen:.2f}s, "
                         f"vectorized {t_vec:.2f}s "
                         f"({row['speedup']}x, match={ok})")
    return {
        "bench": "kernels",
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                  "directed": graph.directed},
        "fragments": fragments,
        "mode": mode,
        "transport": transport,
        "results": rows,
        "all_match": all(r["match"] for r in rows),
    }


def format_kernel_report(report: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_kernel_bench` report."""
    from repro.bench.reporting import format_table
    g = report["graph"]
    title = (f"kernel bench - {g['nodes']} nodes / {g['edges']} edges, "
             f"{report['fragments']} fragments, mode {report['mode']}")
    rows = [[r["algorithm"], r["runtime"], r["generic_s"],
             r["vectorized_s"], f"{r['speedup']}x",
             "ok" if r["match"] else "MISMATCH"]
            for r in report["results"]]
    return format_table(title, ["algorithm", "runtime", "generic s",
                                "vectorized s", "speedup", "check"], rows)


def save_report(report: Dict[str, Any], path: str) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def parse_runtimes(spec: Optional[str]) -> Sequence[str]:
    """Parse a comma-separated runtime list, validating names."""
    if not spec:
        return RUNTIMES
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    for name in names:
        if name not in RUNTIMES:
            raise ReproError(
                f"unknown runtime {name!r}; expected one of "
                f"{', '.join(RUNTIMES)}")
    return names
