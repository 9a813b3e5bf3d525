"""Hash vs. range partition on the ``sssp-grid-mp`` configuration.

One-off measurement for docs/performance.md (ledger entry 3), not part of
``benchmarks/e2e``: the same graph, query and runtime as that workload
(``grid2d(160, 160, weighted)``, ``SSSPQuery(source=0)``, 2 fragments,
``MultiprocessRuntime(vectorized=True, transport="shm")``, AAP), once per
partitioner, so the number ROADMAP item 3 asks for — what a locality
partition buys before anyone vectorizes one — is on record::

    PYTHONPATH=src python benchmarks/partition_locality.py [--seed 1]
"""

import argparse
import json
import statistics
import time

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.messages import ENTRY_BYTES, ENVELOPE_BYTES
from repro.graph import generators
from repro.partition import quality
from repro.partition.edge_cut import HashPartitioner, RangePartitioner
from repro.runtime.multiprocess import MultiprocessRuntime


def measure(pg, runs: int):
    """One row of the table and the answer it was measured on."""
    walls, result = [], None
    for _ in range(runs + 1):  # the first run warms the partition's caches
        t0 = time.perf_counter()
        result = MultiprocessRuntime(
            SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP", timeout=60,
            vectorized=True, transport="shm").run()
        walls.append(time.perf_counter() - t0)
    m = result.metrics
    return {"edge_cut_ratio": round(quality.edge_cut_ratio(pg), 4),
            "rounds_max": max(result.rounds),
            "rounds_total": sum(result.rounds),
            "entries": (m.total_bytes - m.total_messages * ENVELOPE_BYTES)
            // ENTRY_BYTES,
            "run_s_median": round(statistics.median(walls[1:]), 4),
            }, result.answer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=9)
    args = parser.parse_args(argv)
    graph = generators.grid2d(160, 160, weighted=True, seed=args.seed)
    rows, answers = {}, []
    for partitioner in (HashPartitioner(), RangePartitioner()):
        pg = partitioner.partition(graph, 2)
        rows[partitioner.name], answer = measure(pg, args.runs)
        answers.append(answer)
    print(json.dumps({"graph": "grid2d(160,160)", "seed": args.seed,
                      "fragments": 2, "runs": args.runs, **rows},
                     indent=2))
    return 0 if answers[0] == answers[1] else 1


if __name__ == "__main__":
    raise SystemExit(main())
