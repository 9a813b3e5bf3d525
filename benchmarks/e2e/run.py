#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the repro runtimes.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace T

runs one pass of one workload (``--trace 0``: end-to-end metrics with no
wrappers installed; ``--trace 1``: per-layer metrics from spans) and
prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``.  Without ``--trace`` both passes run; without
``--workload`` all four workloads do.  ``--quick`` shrinks the inputs for
a smoke run, ``--compare A B`` compares two ``results.json`` files
against the bounds in ``BENCHMARK.json``.  See ``README.md``.

The driver never runs a workload itself: each pass is a child process in
its own session, under a deadline, and the driver's last act is to look
for anything that child left running or mapped (see ``hygiene.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"error: {SRC}/repro not found; the benchmark measures the "
             f"repository it is checked out in")
sys.path[:0] = [str(SRC), str(HERE)]

import hygiene  # noqa: E402
import report  # noqa: E402

INJECTIONS = ("wrong-answer", "leak-child", "hang")
#: wall seconds a pass may take beyond its measured window (input
#: generation, three cold builds, the reference run, verification)
PASS_OVERHEAD = 100.0
QUICK_SECONDS = 1


class Terminated(Exception):
    """SIGTERM/SIGINT reached the driver."""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one of the BENCHMARK.json workloads "
                   "(default: all)")
    p.add_argument("--seed", type=int, default=1,
                   help="seeds the input generators only")
    p.add_argument("--seconds", type=float,
                   help="measured window of each pass "
                   "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end pass, 1: traced per-layer pass "
                   "(default: both)")
    p.add_argument("--quick", action="store_true",
                   help="small inputs, short windows (smoke run)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two results.json files and exit")
    p.add_argument("--deadline", type=float,
                   help="wall seconds one pass may take before it is "
                   "killed (default: --seconds + %g)" % PASS_OVERHEAD)
    # self-test hooks, see test_e2e.py
    p.add_argument("--inject", choices=INJECTIONS, help=argparse.SUPPRESS)
    p.add_argument("--child", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- the workload child ------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Run one pass in this process and write its result file."""
    import layers
    import workloads as wl
    from tracing import Tracer

    contract = report.load_contract()
    spec = wl.WORKLOADS[args.workload]
    rec = wl.Recorder(spec.name, args.seed, args.trace)
    spans: List[Dict[str, Any]] = []
    extra: Dict[str, float] = {}
    if args.inject == "hang":
        time.sleep(3600)
    if args.trace:
        tracer = Tracer(f"{spec.name}/seed{args.seed}")
        scalars, extra = layers.trace(
            spec, args.seed, args.seconds, args.quick, rec, tracer,
            [m["name"] for m in contract["per_layer"]])
        spans = tracer.to_json()
    else:
        measure = (wl.measure_serve if spec.kind == "serve"
                   else wl.measure_batch)
        scalars = measure(spec, args.seed, args.seconds, args.quick, rec,
                          args.inject)
    if args.inject == "leak-child":
        subprocess.Popen(["sleep", "600"])
    # leave nothing behind: join the runtimes' workers, then stop the
    # resource tracker that any SharedMemory use started
    for stuck in hygiene.stop_children():
        rec.attempt(False, f"runtime left a worker: {stuck}")
    hygiene.stop_resource_tracker()
    with open(args.child, "w", encoding="utf-8") as fh:
        json.dump({"rows": rec.rows, "scalars": scalars,
                   "extra": {n: {"value": v, "unit": layers.EXTRA_UNITS[n]}
                             for n, v in extra.items()},
                   "attempted": rec.attempted, "failures": rec.failures,
                   "spans": spans}, fh)
    return 0


# -- the driver --------------------------------------------------------
def run_pass(args: argparse.Namespace, workload: str, trace: int,
             out_dir: Path, sessions: List[int]) -> Dict[str, Any]:
    """One pass in a child session; always returns a result dict.

    ``sessions`` holds the child's session id for as long as it may have
    members, so that an interrupted driver knows what to kill."""
    result_file = out_dir / f"{workload}.trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--child", str(result_file),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    if args.inject:
        cmd += ["--inject", args.inject]
    # the child's stdout is ours to end with the result line
    child = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    sessions.append(child.pid)
    problem = None
    try:
        if child.wait(timeout=args.deadline):
            problem = f"exit status {child.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"no result within {args.deadline:.0f} s deadline"
    finally:
        if child.poll() is None:
            hygiene.kill_session(child.pid)
            child.wait()
    # the child is gone: whatever still lives in its session it leaked
    leaked = hygiene.sweep([child.pid])
    sessions.remove(child.pid)  # swept; the pid may be reused from now on
    if problem is None and result_file.is_file():
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
        result_file.unlink()
        result["attempted"] += 1  # the hygiene check of this pass
        result["failures"] += [f"left running: {p}" for p in leaked]
        return result
    return {"rows": [], "scalars": {}, "extra": {}, "attempted": 1,
            "spans": [],
            "failures": [f"{workload} trace {trace}: {problem}"]}


def summarise(result: Dict[str, Any], trace: int,
              contract: Dict[str, Any]) -> Dict[str, Any]:
    """Sections of one pass, each ``{name: {"value", "unit", ...}}``."""
    if not result["rows"]:
        return {}
    if trace == 0:
        return {"end_to_end": report.end_to_end(result["rows"],
                                                result["scalars"])}
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    return {"per_layer": {n: {"value": v, "unit": units[n]}
                          for n, v in result["scalars"].items()},
            "extra": result["extra"]}


def print_metrics(workload: str, sections: Dict[str, Any]) -> None:
    for section, metrics in sections.items():
        print(f"== {workload}: {section}")
        for name, m in metrics.items():
            spread = ""
            if "iqr" in m:
                spread = f"   (IQR {m['iqr']:.4g}, n={m['n']})"
            print(f"  {name:34} {m['value']:14.6g} {m['unit']}{spread}")


def drive(args: argparse.Namespace) -> int:
    contract = report.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"BENCHMARK.json lists {', '.join(names)}")
    selected = [args.workload] if args.workload else names
    passes = [args.trace] if args.trace is not None else [0, 1]
    if args.seconds is None:
        args.seconds = (QUICK_SECONDS if args.quick
                        else contract["run_seconds"])
    if args.deadline is None:
        args.deadline = args.seconds + PASS_OVERHEAD

    run_id = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    out_dir = HERE / "out" / run_id
    out_dir.mkdir(parents=True)
    hygiene.become_subreaper()
    shm_before = hygiene.shm_segments()
    sessions: List[int] = []

    def on_signal(signum, frame):
        raise Terminated(signal.Signals(signum).name)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)

    results: Dict[str, Any] = {
        "run_id": run_id, "seed": args.seed, "quick": args.quick,
        "seconds": args.seconds, "workloads": {}}
    rows: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    attempted = 0
    failures: List[str] = []
    interrupted = None
    started = time.monotonic()
    try:
        for workload in selected:
            entry = results["workloads"].setdefault(workload, {})
            for trace in passes:
                result = run_pass(args, workload, trace, out_dir, sessions)
                rows += result["rows"]
                spans += result["spans"]
                attempted += result["attempted"]
                failures += result["failures"]
                sections = summarise(result, trace, contract)
                entry.update(sections)
                print_metrics(workload, sections)
    except Terminated as exc:
        interrupted = str(exc)
        failures.append(f"driver received {interrupted}")
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_IGN)
        for sid in sessions:
            hygiene.kill_session(sid)
        leaked = hygiene.sweep(sessions)
        segments = hygiene.unlink_segments(
            hygiene.shm_segments() - shm_before)
    failures += [f"left running: {p}" for p in leaked]
    failures += [f"left in /dev/shm: {s}" for s in segments]
    attempted += 1  # the hygiene check itself

    results.update({"attempted": attempted, "failed": len(failures),
                    "failures": failures,
                    "wall_s": time.monotonic() - started})
    report.write_runs_csv(out_dir / "runs.csv", rows)
    with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"artifacts: {out_dir.relative_to(ROOT)}", file=sys.stderr)
    if interrupted:
        return 128 + getattr(signal, interrupted)
    if len(selected) == 1 and len(passes) == 1:
        section = "per_layer" if passes[0] else "end_to_end"
        metrics = results["workloads"][selected[0]].get(section)
        if not metrics:
            return 1  # no result to print
        print(json.dumps({
            "correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in metrics.items()}}))
    return 1 if failures else 0


def compare_main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb:
        rows = report.compare(json.load(fa), json.load(fb),
                              report.load_contract())
    print(report.format_compare(rows))
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    if args.child:
        return child_main(args)
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
