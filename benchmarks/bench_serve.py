"""Serving benchmark: seeded mixed update/query load on GraphService.

A plain CLI so CI can run it at smoke sizes
and upload the JSON artifact::

    python benchmarks/bench_serve.py --graph powerlaw:800 \
        --queries 1000 --batches 24 --out BENCH_serve.json

Drives one :class:`repro.serve.LoadGenerator` per algorithm (skewed keys,
mixed staleness bounds) and reports p50/p95/p99 query latency, the served
staleness distribution, sustained updates/sec and cache effectiveness.
Exits non-zero on any staleness-contract violation or if the drained
service disagrees with a full recomputation.
"""

import argparse
import json
import pathlib
import platform
import sys

try:
    from repro.serve import (GraphService, LoadGenerator,
                             verify_against_recompute)
except ImportError:  # run from a checkout without installing
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                           / "src"))
    from repro.serve import (GraphService, LoadGenerator,
                             verify_against_recompute)

from repro.cli import build_program, parse_graph


def bench_one(algo, args):
    graph = parse_graph(args.graph, seed=args.seed)
    program, query = build_program(algo, graph, None)
    service = GraphService(program, graph, query,
                           num_fragments=args.fragments, mode=args.mode,
                           runtime=args.runtime)
    gen = LoadGenerator(service, seed=args.seed,
                        num_queries=args.queries,
                        num_batches=args.batches,
                        batch_size=args.batch_size, skew=args.skew)
    report = gen.run()
    report["algorithm"] = algo
    report["matches_recompute"] = verify_against_recompute(service)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", default="powerlaw:800")
    parser.add_argument("--fragments", "-m", type=int, default=4)
    parser.add_argument("--mode", default="AAP")
    parser.add_argument("--runtime", default="threaded",
                        choices=["threaded", "simulated"])
    parser.add_argument("--algorithms", default="sssp,cc",
                        help="comma-separated subset of sssp,cc")
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--batches", type=int, default=24)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--skew", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    runs = []
    ok = True
    for algo in args.algorithms.split(","):
        report = bench_one(algo.strip(), args)
        runs.append(report)
        lat = report["queries"]["latency"]
        print(f"{algo:>8}: p50 {lat['p50_ms']:.3f} ms  "
              f"p95 {lat['p95_ms']:.3f} ms  p99 {lat['p99_ms']:.3f} ms  "
              f"{report['updates']['updates_per_sec']:.0f} upd/s  "
              f"violations {report['staleness']['violations']}  "
              f"match {report['matches_recompute']}", file=sys.stderr)
        ok = ok and report["matches_recompute"] \
            and report["staleness"]["violations"] == 0
    doc = {
        "bench": "serve",
        "graph": args.graph,
        "mode": args.mode,
        "runtime": args.runtime,
        "fragments": args.fragments,
        "seed": args.seed,
        "python": platform.python_version(),
        "all_ok": ok,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
