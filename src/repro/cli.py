"""Command-line interface.

::

    repro run   --algorithm sssp --graph grid:40x40 --mode AAP -m 8
    repro compare --algorithm cc --graph powerlaw:2000 --straggler 4
    repro bench --experiment table1
    repro verify --algorithm sssp --graph powerlaw:200
    repro info  --graph grid:30x30 -m 8 --partitioner bfs
    repro trace --algorithm sssp --graph grid:20x20 --mode AAP \
                --out trace.json --jsonl events.jsonl --explain 0
    repro chaos --algorithm sssp --graph grid:12x12 -m 4 \
                --crash 1:3 --runtime threaded --retries 2
    repro fuzz  --seeds 20 --smoke --artifact-dir artifacts/
    repro fuzz  --replay artifacts/sssp-AAP-simulated-generic-seed=7.json
    repro fuzz  --grid differential --graph grid:6x6 -m 3
    repro fuzz  --grid chaos --artifact-dir chaos-out/

Graph specs: ``grid:RxC``, ``powerlaw:N``, ``er:N:P``, ``smallworld:N``,
``rmat:SCALE``, ``path:N``, or ``file:PATH`` (edge list).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, Optional, Tuple

from repro import api
from repro.algorithms import CFProgram, CFQuery
from repro.core.convergence import verify_conditions
from repro.core.modes import MODES
from repro.errors import PartitionError, ReproError
from repro.fuzz.cell import (ALGORITHMS, PARTITIONERS, Cell, build_graph,
                             run_cell, workload)
from repro.graph import analysis
from repro.graph.graph import Graph
from repro.obs import (Observer, explain_delays, write_chrome_trace,
                       write_jsonl, write_report)
from repro.partition.quality import summary
from repro.runtime.costmodel import CostModel


def graph_spec(spec: str, seed: int = 0,
               weighted: bool = True) -> Tuple[str, Dict[str, Any]]:
    """A CLI graph spec as a cell's (graph kind, generator arguments)."""
    kind, _, rest = spec.partition(":")
    kind = kind.lower()
    drawn = {"weighted": weighted, "seed": seed}
    if kind == "grid":
        rows, _, cols = rest.partition("x")
        return "grid2d", {"rows": int(rows), "cols": int(cols or rows),
                          **drawn}
    if kind == "powerlaw":
        return "powerlaw", {"n": int(rest), "m": 3, **drawn}
    if kind == "er":
        n, _, p = rest.partition(":")
        return "erdos_renyi", {"n": int(n), "p": float(p or 0.05), **drawn}
    if kind == "smallworld":
        return "small_world", {"n": int(rest), "seed": seed}
    if kind == "rmat":
        return "rmat", {"scale": int(rest), **drawn}
    if kind == "path":
        return "path", {"n": int(rest), **drawn}
    if kind == "file":
        return "file", {"path": rest}
    raise ReproError(f"unknown graph spec {spec!r}")


def parse_graph(spec: str, seed: int = 0, weighted: bool = True) -> Graph:
    """Build a graph from a CLI spec string."""
    return build_graph(*graph_spec(spec, seed, weighted))


def build_program(algorithm: str, graph: Graph,
                  source: Optional[str]) -> Tuple[Any, Any]:
    if algorithm.lower() == "cf":
        return CFProgram(), CFQuery()
    program_cls, query = workload(algorithm.lower(), graph,
                                  _parse_node(source) if source else None)
    return program_cls(), query


def _parse_node(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _cost_model(args) -> CostModel:
    speed = {0: args.straggler} if args.straggler > 1 else None
    return CostModel(alpha=1.0, beta=0.002, speed=speed, latency=0.25,
                     msg_cost=0.05, send_cost=0.02, seed=args.seed)


def _summarise(result) -> dict:
    return {
        "mode": result.mode,
        "time": result.time,
        "rounds": result.rounds,
        "messages": result.metrics.total_messages,
        "bytes": result.metrics.total_bytes,
        "total_work": result.metrics.total_work,
        "idle_ratio": round(result.metrics.idle_ratio, 4),
    }


# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    graph = parse_graph(args.graph, seed=args.seed)
    program, query = build_program(args.algorithm, graph, args.source)
    partitioner = PARTITIONERS[args.partitioner]()
    result = api.run(program, graph, query, mode=args.mode,
                     num_fragments=args.fragments, partitioner=partitioner,
                     cost_model=_cost_model(args),
                     observer=Observer() if args.report else None,
                     vectorized=args.vectorized)
    if args.report:
        write_report(result, args.report,
                     extra={"graph": args.graph, "algorithm": args.algorithm,
                            "fragments": args.fragments})
    out = _summarise(result)
    if args.algorithm == "cc":
        out["components"] = len(set(result.answer.values()))
    elif args.algorithm == "cf":
        out["rmse"] = result.answer["rmse"]
    print(json.dumps(out, indent=2))
    return 0


def cmd_chaos(args) -> int:
    """Run one workload under an injected fault plan: one live cell."""
    faults = [f"crash:{spec}" for spec in args.crash or ()]
    if args.drop > 0:
        faults.append(f"drop:{args.drop}")
    if args.duplicate > 0:
        faults.append(f"duplicate:{args.duplicate}")
    if args.delay:
        faults.append(f"delay:{args.delay}")
    faults += [f"slow:{spec}" for spec in args.slow or ()]
    kind, params = graph_spec(args.graph, seed=args.seed)
    verdict = run_cell(Cell(
        algorithm=args.algorithm, graph_kind=kind, graph_params=params,
        source=_parse_node(args.source) if args.source else None,
        partitioner=args.partitioner, fragments=args.fragments,
        mode=args.mode, runtime=args.runtime, faults=tuple(faults),
        fault_seed=args.fault_seed, respawn_budget=args.respawn_budget,
        checkpoint_interval=args.checkpoint_interval,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout, timeout=args.timeout,
        retry={"max_retries": args.retries, "deadline": args.retry_deadline,
               "jitter": args.retry_jitter, "seed": args.fault_seed}))
    print(json.dumps(verdict.to_dict(), indent=2))
    return 0 if verdict.ok else 1


def cmd_trace(args) -> int:
    """Run one workload with observability on and export the event stream."""
    graph = parse_graph(args.graph, seed=args.seed)
    program, query = build_program(args.algorithm, graph, args.source)
    partitioner = PARTITIONERS[args.partitioner]()
    observer = Observer()
    pg = api.partition_graph(graph, args.fragments, partitioner)
    if args.runtime == "simulated":
        result = api.run(program, pg, query, mode=args.mode,
                         cost_model=_cost_model(args), observer=observer)
    elif args.runtime == "threaded":
        from repro.core.engine import Engine
        from repro.core.modes import make_policy
        from repro.runtime.threaded import ThreadedRuntime
        result = ThreadedRuntime(Engine(program, pg, query),
                                 make_policy(args.mode),
                                 observer=observer).run()
    else:  # multiprocess
        from repro.runtime.multiprocess import MultiprocessRuntime
        result = MultiprocessRuntime(program, pg, query, mode=args.mode,
                                     observer=observer).run()
    write_chrome_trace(observer.log, args.out,
                       process_name=f"repro {args.algorithm} {args.mode}")
    out = _summarise(result)
    out["trace"] = args.out
    out["events"] = observer.log.counts()
    if args.jsonl:
        write_jsonl(observer.log, args.jsonl)
        out["jsonl"] = args.jsonl
    print(json.dumps(out, indent=2))
    if args.explain is not None:
        for line in explain_delays(observer.log, wid=args.explain,
                                   limit=args.explain_limit):
            print(line)
    return 0


def cmd_compare(args) -> int:
    graph = parse_graph(args.graph, seed=args.seed)
    program, query = build_program(args.algorithm, graph, args.source)
    pg = api.partition_graph(graph, args.fragments,
                             PARTITIONERS[args.partitioner]())
    results = api.compare_modes(
        type(program), pg, query,
        cost_model_factory=lambda: _cost_model(args))
    print(json.dumps({mode: _summarise(r) for mode, r in results.items()},
                     indent=2))
    return 0


def cmd_verify(args) -> int:
    graph = parse_graph(args.graph, seed=args.seed)
    program, query = build_program(args.algorithm, graph, args.source)
    pg = api.partition_graph(graph, args.fragments)
    if args.algorithm == "pagerank":
        report = verify_conditions(
            program, pg, query, runs=args.runs,
            equal=lambda a, b: all(abs(a[k] - b[k]) < 1e-2 for k in a))
    else:
        report = verify_conditions(program, pg, query, runs=args.runs)
    print(json.dumps({
        "t1_finite_domain": report.t1_finite_domain,
        "t2_contracting": report.t2_contracting,
        "church_rosser": report.church_rosser,
        "runs": report.runs,
        "violations": report.violations,
        "ok": report.ok,
    }, indent=2))
    return 0 if report.ok or args.algorithm == "pagerank" else 1


def cmd_info(args) -> int:
    graph = parse_graph(args.graph, seed=args.seed)
    t0 = time.perf_counter()
    pg = api.partition_graph(graph, args.fragments,
                             PARTITIONERS[args.partitioner]())
    t1 = time.perf_counter()
    try:
        for frag in pg:
            frag.compact()
        compact_s = round(time.perf_counter() - t1, 4)
    except PartitionError:  # ids the dense view does not take
        compact_s = None
    partition = {k: round(v, 4) for k, v in summary(pg).items()}
    partition.update(
        build_s=round(t1 - t0, 4), compact_s=compact_s,
        materialised=f"{sum(f.materialised for f in pg)}"
                     f"/{pg.num_fragments} fragments")
    print(json.dumps({
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "directed": graph.directed,
        "degree_skew": round(analysis.degree_skew(graph), 3),
        "diameter_estimate": analysis.diameter_estimate(graph),
        "partition": partition,
    }, indent=2))
    return 0


def cmd_fuzz(args) -> int:
    """Seeded fuzz cases or a named grid of cells, or an artifact replay."""
    from repro import fuzz

    progress = (None if args.quiet else
                (lambda line: print(line, file=sys.stderr)))
    if args.replay:
        verdict, reproduced = fuzz.replay_artifact(args.replay)
        print(json.dumps({"artifact": args.replay, "reproduced": reproduced,
                          **verdict.to_dict()}, indent=2))
        return 1 if reproduced else 0
    if args.grid:
        given = {"fragments": args.fragments, "timeout": args.timeout,
                 "graph": args.graph and graph_spec(args.graph,
                                                    seed=args.seed or 0)}
        cells = fuzz.GRIDS[args.grid](
            **{k: v for k, v in given.items() if v is not None})
    else:
        first = args.first_seed if args.seed is None else args.seed
        count = args.seeds if args.seed is None else 1
        cells = [fuzz.case_from_seed(seed, smoke=args.smoke)
                 for seed in range(first, first + count)]
    if not cells:
        # a gate that ran no cell has checked nothing
        raise ReproError("no cells to run (--seeds must be >= 1)")
    verdicts = fuzz.run_grid(cells, artifact_dir=args.artifact_dir,
                             shrink_failures=not args.no_shrink,
                             progress=progress)
    print(fuzz.format_report(verdicts))
    return 0 if all(v.ok for v in verdicts) else 1


def cmd_bench(args) -> int:
    from repro.bench import experiments, reporting
    name = args.experiment.lower()
    if name == "table1":
        rows = experiments.run_table1(num_workers=args.fragments)
        print(reporting.format_table(
            "Table 1", ["system", "PR time", "PR comm", "SSSP time",
                        "SSSP comm"],
            [[r["system"], r["pagerank_time"],
              reporting.human_bytes(r["pagerank_comm"]), r["sssp_time"],
              reporting.human_bytes(r["sssp_comm"])] for r in rows]))
        return 0
    if name in ("sssp", "cc", "pagerank", "cf"):
        graph = parse_graph(args.graph, seed=args.seed)
        series = experiments.run_modes_experiment(
            name, graph, workers=(4, 6, 8), straggler_factor=args.straggler)
        print(reporting.format_series(f"{name} vs workers", "workers",
                                      (4, 6, 8), series))
        return 0
    if name == "partition":
        series = experiments.run_partition_impact()
        print(reporting.format_series("SSSP vs skew r", "r", (1, 3, 5, 7, 9),
                                      series))
        return 0
    raise ReproError(f"unknown experiment {args.experiment!r}")


# ----------------------------------------------------------------------
def _build_service(args):
    from repro.serve import AdmissionController, GraphService
    graph = parse_graph(args.graph, seed=args.seed)
    program, query = build_program(args.algorithm, graph, args.source)
    admission = AdmissionController(
        max_pending_batches=args.max_pending,
        max_catchup=args.max_catchup if args.max_catchup >= 0 else None)
    return GraphService(program, graph, query,
                        num_fragments=args.fragments, mode=args.mode,
                        runtime=args.runtime, admission=admission)


def cmd_serve(args) -> int:
    """Bring a service up, drive a seeded update stream through it, and
    report per-epoch integration stats plus a final differential check."""
    from repro.obs import EPOCH_APPLY
    from repro.serve import LoadGenerator, verify_against_recompute
    service = _build_service(args)
    gen = LoadGenerator(service, seed=args.seed, num_queries=1,
                        num_batches=args.batches,
                        batch_size=args.batch_size)
    accepted = shed = 0
    for _ in range(args.batches):
        batch = gen.next_batch()
        if batch is None:
            break
        if service.ingest(batch).accepted:
            accepted += 1
        else:
            shed += 1
        service.pump(1)
        ev = service.obs.log[-1]  # the pump's EPOCH_APPLY, when it applied one
        if ev.type == EPOCH_APPLY:
            print(f"epoch {ev.payload['epoch']:>4}  "
                  f"edges {ev.payload['edges']:>4}  "
                  f"changed {ev.payload['changed']:>6}  "
                  f"{ev.payload['duration'] * 1000:8.2f} ms",
                  file=sys.stderr)
    service.flush()
    matches = verify_against_recompute(service)
    epoch_hist = service.obs.metrics.histogram("serve_epoch_duration")
    status = service.status()
    print(json.dumps({
        "graph": args.graph, "algorithm": args.algorithm,
        "mode": args.mode, "runtime": args.runtime,
        "fragments": args.fragments,
        "batches_accepted": accepted, "batches_shed": shed,
        "epochs": service.epoch,
        "nodes": status["nodes"], "edges": status["edges"],
        "epoch_ms_mean": round(epoch_hist.mean * 1000, 3),
        "matches_recompute": matches,
        "status": status,
    }, indent=2))
    return 0 if matches else 1


def cmd_loadgen(args) -> int:
    """Drive a seeded mixed update/query workload and write the report."""
    from repro.serve import LoadGenerator, verify_against_recompute
    service = _build_service(args)
    gen = LoadGenerator(service, seed=args.seed,
                        num_queries=args.queries,
                        num_batches=args.batches,
                        batch_size=args.batch_size, skew=args.skew,
                        staleness_bounds=tuple(
                            int(b) for b in args.bounds.split(",")))
    report = gen.run()
    report["matches_recompute"] = verify_against_recompute(service)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    ok = (report["matches_recompute"]
          and report["staleness"]["violations"] == 0)
    return 0 if ok else 1


# ----------------------------------------------------------------------
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AAP graph-computation engine (SIGMOD'18 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algorithms=ALGORITHMS + ("cf",)):
        p.add_argument("--graph", default="powerlaw:1000",
                       help="graph spec (grid:RxC, powerlaw:N, er:N:P, "
                            "rmat:S, path:N, file:PATH)")
        if algorithms:
            p.add_argument("--algorithm", "-a", default="cc",
                           choices=list(algorithms))
            p.add_argument("--source", default=None,
                           help="SSSP source node")
        p.add_argument("--fragments", "-m", type=int, default=8)
        p.add_argument("--partitioner", default="hash",
                       choices=sorted(PARTITIONERS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--straggler", type=float, default=1.0,
                       help="slow-down factor of worker 0")

    p_run = sub.add_parser("run", help="run one algorithm under one model")
    common(p_run)
    p_run.add_argument("--mode", default="AAP", choices=list(MODES))
    p_run.add_argument("--report", default=None,
                       help="write a JSON run report (with trace) here")
    p_run.add_argument("--vectorized", action="store_true",
                       help="use the dense numpy fast path when the "
                            "algorithm/partition supports it "
                            "(see docs/performance.md)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run under every parallel model")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser(
        "trace", help="run with observability on; export Chrome trace/JSONL")
    common(p_tr)
    p_tr.add_argument("--mode", default="AAP", choices=list(MODES))
    p_tr.add_argument("--runtime", default="simulated",
                      choices=["simulated", "threaded", "multiprocess"])
    p_tr.add_argument("--out", default="trace.json",
                      help="Chrome trace_event JSON output path "
                           "(open in chrome://tracing or Perfetto)")
    p_tr.add_argument("--jsonl", default=None,
                      help="also dump raw events as JSON Lines here")
    p_tr.add_argument("--explain", type=int, default=None, metavar="WID",
                      help="print the delay-decision audit for worker WID")
    p_tr.add_argument("--explain-limit", type=int, default=20,
                      help="max audit lines to print")
    p_tr.set_defaults(func=cmd_trace)

    p_chaos = sub.add_parser(
        "chaos", help="inject faults into a live runtime; report "
                      "detection latency, recoveries and correctness")
    common(p_chaos, algorithms=ALGORITHMS)  # cells compare to a fixpoint
    p_chaos.add_argument("--runtime", default="threaded",
                         choices=["threaded", "multiprocess"])
    p_chaos.add_argument("--mode", default="AAP",
                         choices=["AP", "BSP", "SSP", "AAP"])
    p_chaos.add_argument("--crash", action="append", metavar="WID:ROUND",
                         help="kill worker WID at round ROUND (repeatable)")
    p_chaos.add_argument("--drop", type=float, default=0.0,
                         help="drop this fraction of messages")
    p_chaos.add_argument("--duplicate", type=float, default=0.0,
                         help="duplicate this fraction of messages")
    p_chaos.add_argument("--delay", default=None, metavar="RATE:SECONDS",
                         help="delay RATE of messages by SECONDS")
    p_chaos.add_argument("--slow", action="append", metavar="WID:FACTOR",
                         help="stretch worker WID's rounds by FACTOR")
    p_chaos.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the deterministic fault plan")
    p_chaos.add_argument("--checkpoint-interval", type=float, default=0.05,
                         help="seconds between live Chandy-Lamport "
                              "checkpoints")
    p_chaos.add_argument("--heartbeat-interval", type=float, default=0.02)
    p_chaos.add_argument("--heartbeat-timeout", type=float, default=0.5)
    p_chaos.add_argument("--retries", type=int, default=2,
                         help="recovery attempts before giving up")
    p_chaos.add_argument("--respawn-budget", type=int, default=1,
                         help="in-place respawns per worker slot before a "
                              "death degrades to whole-run rollback "
                              "(0 disables rung 1)")
    p_chaos.add_argument("--retry-deadline", type=float, default=None,
                         help="total wall-clock budget in seconds for the "
                              "rollback ladder rung")
    p_chaos.add_argument("--retry-jitter", type=float, default=0.0,
                         help="relative backoff jitter in [0, 1], seeded "
                              "by --fault-seed")
    p_chaos.add_argument("--timeout", type=float, default=60.0)
    p_chaos.set_defaults(func=cmd_chaos)

    p_ver = sub.add_parser("verify",
                           help="check T1/T2 + Church-Rosser empirically")
    common(p_ver)
    p_ver.add_argument("--runs", type=int, default=4)
    p_ver.set_defaults(func=cmd_verify)

    p_info = sub.add_parser("info", help="graph and partition statistics")
    common(p_info, algorithms=())
    p_info.set_defaults(func=cmd_info)

    p_fuzz = sub.add_parser(
        "fuzz", help="seeded schedule fuzzing + differential conformance "
                     "(see docs/conformance.md)")
    p_fuzz.add_argument("--seeds", type=int, default=50,
                        help="number of consecutive seeds to fuzz")
    p_fuzz.add_argument("--first-seed", type=int, default=0,
                        help="first seed of the range")
    p_fuzz.add_argument("--seed", type=int, default=None,
                        help="fuzz exactly this one seed")
    p_fuzz.add_argument("--smoke", action="store_true",
                        help="small graphs for CI (same draws otherwise)")
    p_fuzz.add_argument("--artifact-dir", default=None,
                        help="write one artifact per cell here (failing "
                             "simulated cells minimized)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    p_fuzz.add_argument("--replay", default=None, metavar="ARTIFACT",
                        help="re-run a saved cell artifact instead of "
                             "fuzzing (exit 1 iff it still reproduces)")
    p_fuzz.add_argument("--grid", default=None, choices=["differential",
                                                         "chaos"],
                        help="run a named grid of cells instead of "
                             "fuzzing: the modes x runtimes x engines "
                             "differential grid, or the crash-respawn "
                             "chaos grid")
    p_fuzz.add_argument("--graph", default=None,
                        help="graph spec for --grid (default: grid:8x8 "
                             "differential, grid:12x12 chaos)")
    p_fuzz.add_argument("--fragments", "-m", type=int, default=None,
                        help="fragments for --grid (default 4)")
    p_fuzz.add_argument("--timeout", type=float, default=None,
                        help="per-cell timeout for --grid (default: 120 s "
                             "differential, 60 s chaos)")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress on stderr")
    p_fuzz.set_defaults(func=cmd_fuzz)

    def serve_common(p):
        common(p)
        p.add_argument("--mode", default="AAP", choices=list(MODES))
        p.add_argument("--runtime", default="threaded",
                       choices=["threaded", "simulated"])
        p.add_argument("--batches", type=int, default=20,
                       help="update batches to stream in")
        p.add_argument("--batch-size", type=int, default=8,
                       help="edge insertions per batch")
        p.add_argument("--max-pending", type=int, default=64,
                       help="ingest queue bound (excess batches are shed)")
        p.add_argument("--max-catchup", type=int, default=32,
                       help="max epochs one query may force (-1: unbounded)")

    p_serve = sub.add_parser(
        "serve", help="resident bounded-staleness service: stream a seeded "
                      "update load, report per-epoch stats")
    serve_common(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_lg = sub.add_parser(
        "loadgen", help="mixed update/query workload against a fresh "
                        "service; reports latency percentiles, staleness "
                        "and throughput")
    serve_common(p_lg)
    p_lg.add_argument("--queries", type=int, default=1000,
                      help="read queries to issue")
    p_lg.add_argument("--skew", type=float, default=2.0,
                      help="key skew exponent (higher = hotter head)")
    p_lg.add_argument("--bounds", default="0,1,2,4",
                      help="comma-separated staleness bounds to draw from")
    p_lg.add_argument("--out", default=None,
                      help="write the JSON report here instead of stdout")
    p_lg.set_defaults(func=cmd_loadgen)

    p_bench = sub.add_parser("bench", help="run a named experiment")
    common(p_bench, algorithms=())
    p_bench.add_argument("--experiment", "-e", default="table1")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
