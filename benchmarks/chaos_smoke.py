#!/usr/bin/env python
"""CI chaos smoke: the respawn matrix with JSON artifacts.

Runs one mid-run crash scenario per cell of
``{threaded, multiprocess} x {AAP, BSP, SSP} x {1 crash, 2 crashes}``
with the rung-1 respawn budget armed, and asserts the surgical-recovery
contract on every cell:

- the run completes without a whole-run restart (``recoveries == 0``),
- every injected crash was absorbed by an in-place respawn
  (``respawns == crashes``),
- the answer matches a fault-free reference run.

One JSON report per cell plus a ``summary.json`` land in ``--out`` for
upload as CI artifacts.  Exit status is non-zero when any cell violates
the contract — this is a gate, not a benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.graph import generators
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.faultplan import CrashFault, FaultPlan
from repro.runtime.recovery import run_chaos

RUNTIMES = ("threaded", "multiprocess")
MODES = ("AAP", "BSP", "SSP")
CRASH_SETS = {
    1: (CrashFault(wid=1, at_round=2),),
    2: (CrashFault(wid=1, at_round=2), CrashFault(wid=2, at_round=3)),
}


def run_cell(pg, runtime: str, mode: str, crashes: int,
             timeout: float) -> dict:
    plan = FaultPlan(seed=7, faults=CRASH_SETS[crashes])
    report = run_chaos(
        SSSPProgram(), pg, SSSPQuery(source=0), plan,
        runtime=runtime, mode=mode, respawn_budget=1,
        checkpoint_interval=0.01, heartbeat_interval=0.005,
        heartbeat_timeout=0.25, timeout=timeout)
    report["cell"] = {"runtime": runtime, "mode": mode, "crashes": crashes}
    report["contract_ok"] = bool(
        report.get("ok")
        and report.get("answer_matches_reference")
        and report.get("respawns") == crashes
        and report.get("recoveries") == 0
        and report.get("rung") == 1)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="12x12",
                    help="grid dimensions ROWSxCOLS (default 12x12)")
    ap.add_argument("--fragments", type=int, default=4)
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--out", default="chaos-out",
                    help="artifact directory for the per-cell reports")
    args = ap.parse_args(argv)

    rows, _, cols = args.graph.partition("x")
    grid = generators.grid2d(int(rows), int(cols))
    pg = HashPartitioner().partition(grid, args.fragments)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary, failed = [], []
    for runtime, mode, crashes in itertools.product(
            RUNTIMES, MODES, sorted(CRASH_SETS)):
        name = f"{runtime}-{mode}-{crashes}crash"
        report = run_cell(pg, runtime, mode, crashes, args.timeout)
        (out / f"{name}.json").write_text(json.dumps(report, indent=2,
                                                     default=str))
        ok = report["contract_ok"]
        summary.append({"cell": name, "contract_ok": ok,
                        "respawns": report.get("respawns"),
                        "takeovers": report.get("takeovers"),
                        "recoveries": report.get("recoveries"),
                        "rung": report.get("rung"),
                        "elapsed": round(report.get("elapsed", 0.0), 3)})
        if not ok:
            failed.append(name)
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} "
              f"respawns={report.get('respawns')} "
              f"recoveries={report.get('recoveries')} "
              f"rung={report.get('rung')} "
              f"elapsed={report.get('elapsed', 0.0):.2f}s")
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    if failed:
        print(f"\nchaos smoke FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"\nchaos smoke passed: {len(summary)} cells, "
          f"all crashes absorbed in place")
    return 0


if __name__ == "__main__":
    sys.exit(main())
