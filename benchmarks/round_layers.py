"""Where one multiprocess SSSP round spends its time.

On the input of the ``sssp-grid-mp`` workload (a weighted 160 x 160
grid, hash-partitioned into 2 fragments, source 0, AAP on the
multiprocess runtime over the shared-memory rings) the two workers
strictly alternate, so every round's kernel, its hand-off to the peer
and the run's stop-and-report tail lie on one serial path.  This script
times those layers *from outside*, by shadowing the names the engine and
the runtime call (``benchmarks/e2e/tracing.Tracer``; nothing is edited):

- the sequential schedule in process (the benchmark's ``seq_run``):
  rounds, entries, microseconds per round in ``run_peval`` /
  ``run_inceval`` and in the program's kernel (``dense_peval`` /
  ``dense_inceval``) in the fastest of ``--runs`` passes (the one the
  shared VM disturbed least; medians of these sub-millisecond layers
  move by 30 % between minutes), and array waves per round (calls of
  ``FragmentCSR.out_edges``, counted in a separate pass so that counting
  costs the timed pass nothing);
- multiprocess runs: their wall seconds (median), the stop tail
  (``_Master._collect_reports``, which starts right after the stop
  broadcast and ends when every worker's final report is in) and the
  master's ``_assemble``; then as many observed runs, whose event logs
  give the hand-off: from a worker's ``round_end`` to the peer's next
  ``round_start`` (median over every round of every observed run);
- the worker pool, for the first (cold) run on the partition and for
  warm runs (``--runs`` observed runs each; a cold run closes the pool
  first): start, from ``run()`` to the first ``round_start``; finish,
  from the last ``round_end`` to ``run()``'s return; the workers' CPU
  and minor faults per run (from ``RunResult.extras["workers"]``, or,
  at a checkout whose workers are reaped after every run, from
  ``RUSAGE_CHILDREN``) and the master's minor faults per run, beside
  the minor faults of one in-process sequential pass.

It exits 1 if any multiprocess run's answer differs from the sequential
reference (SSSP is exact: equality, floats included).  These are the
tables docs/performance.md (ledger entries 29 and 30) quotes, not part of
``benchmarks/e2e``::

    PYTHONPATH=src python benchmarks/round_layers.py [--side 160] [--runs 7]
"""

import argparse
import bisect
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
try:
    import repro  # noqa: F401
except ImportError:  # run from a checkout without installing
    sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (benchmarks/e2e)
from tracing import Tracer  # noqa: E402  (benchmarks/e2e)

from repro.core.engine import Engine  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.obs import Observer, round_slices  # noqa: E402
from repro.partition.fragment import FragmentCSR  # noqa: E402
from repro.runtime import mp_master  # noqa: E402
from repro.runtime import multiprocess as mp_runtime  # noqa: E402
from repro.runtime.multiprocess import MultiprocessRuntime  # noqa: E402

SPEC = wl.WORKLOADS["sssp-grid-mp"]


def sequential(pg, program_cls, query, reps: int) -> dict:
    """The in-process schedule: per-round layer times (the fastest of
    ``reps`` passes) and the waves one more pass makes."""
    per_pass = []
    for _ in range(reps):
        engine = Engine(program_cls(), pg, query, vectorized=True)
        tracer = Tracer("seq")
        for name in ("run_peval", "run_inceval"):
            tracer.wrap(engine, name, "round")
        for name in ("dense_peval", "dense_inceval"):
            tracer.wrap(engine.program, name, "kernel")
        answer, rounds, entries = wl.seq_run(engine)
        per_pass.append((tracer.total("round"), tracer.total("kernel")))
    engine = Engine(program_cls(), pg, query, vectorized=True)
    faults = minor_faults(resource.RUSAGE_SELF)
    wl.seq_run(engine)
    faults = minor_faults(resource.RUSAGE_SELF) - faults
    engine = Engine(program_cls(), pg, query, vectorized=True)
    tracer = Tracer("waves")
    tracer.wrap(FragmentCSR, "out_edges", "wave")
    try:
        wl.seq_run(engine)
    finally:
        tracer.unwrap_all()
    return {"answer": answer, "rounds": rounds, "entries": entries,
            "round_us": min(r for r, _ in per_pass) / rounds * 1e6,
            "kernel_us": min(k for _, k in per_pass) / rounds * 1e6,
            "waves": len(tracer.durations("wave")) / rounds,
            "faults": faults}


def minor_faults(who) -> int:
    return resource.getrusage(who).ru_minflt


def hand_offs(log) -> list:
    """Seconds from each round's end to the next round start of another
    worker: the hand-off of a strictly alternating schedule."""
    slices = round_slices(log)
    out = []
    for wid, mine in slices.items():
        starts = sorted(s.start for peer, theirs in slices.items()
                        if peer != wid for s in theirs)
        for s in mine:
            at = bisect.bisect_left(starts, s.end)
            if at < len(starts):
                out.append(starts[at] - s.end)
    return out


def multiprocess(pg, program_cls, query, runs: int, reference) -> dict:
    """Untraced-speed runs with the stop tail and Assemble timed, then
    observed runs for the hand-off; every answer checked."""
    tracer = Tracer("mp")
    tracer.wrap(mp_master._Master, "_collect_reports", "stop")
    tracer.wrap(MultiprocessRuntime, "_assemble", "assemble")
    walls, wrong = [], 0
    try:
        wl.make_run(SPEC, pg, program_cls, query)()  # warm-up
        tracer.spans.clear()
        for _ in range(runs):
            t0 = time.perf_counter()
            result = wl.make_run(SPEC, pg, program_cls, query)()
            walls.append(time.perf_counter() - t0)
            wrong += result.answer != reference
    finally:
        tracer.unwrap_all()
    gaps = []
    for _ in range(runs):
        obs = Observer()
        result = wl.make_run(SPEC, pg, program_cls, query,
                             observer=obs)()
        wrong += result.answer != reference
        gaps.extend(hand_offs(obs.log))
    return {"run_s": statistics.median(walls),
            "stop_ms": statistics.median(tracer.durations("stop")) * 1e3,
            "assemble_ms":
                statistics.median(tracer.durations("assemble")) * 1e3,
            "hand_off_us": statistics.median(gaps) * 1e6 if gaps else 0.0,
            "rounds": sum(result.rounds), "wrong": wrong}


def pool_runs(pg, program_cls, query, runs: int, reference) -> dict:
    """Observed runs, first each on a fresh pool (cold), then on the
    pool the last one left (warm): medians of start, finish, worker CPU
    and minor faults, and the master's minor faults per run."""
    close_pool = getattr(mp_runtime, "close_pool", lambda: None)
    out, wrong = {}, 0
    for label in ("cold", "warm"):
        rows = []
        for _ in range(runs):
            if label == "cold":
                close_pool()
            obs = Observer()
            rt = MultiprocessRuntime(
                program_cls(), pg, query, mode=SPEC.mode,
                timeout=wl.RUN_TIMEOUT, vectorized=True, observer=obs)
            kids = resource.getrusage(resource.RUSAGE_CHILDREN)
            master = minor_faults(resource.RUSAGE_SELF)
            result = rt.run()
            returned = time.monotonic() - rt._started
            master = minor_faults(resource.RUSAGE_SELF) - master
            wrong += result.answer != reference
            slices = [s for mine in round_slices(obs.log).values()
                      for s in mine]
            workers = result.extras.get("workers")
            if workers is None:  # reaped after the run: their rusage
                now = resource.getrusage(resource.RUSAGE_CHILDREN)
                cpu = (now.ru_utime + now.ru_stime
                       - kids.ru_utime - kids.ru_stime)
                faults = now.ru_minflt - kids.ru_minflt
            else:
                cpu = sum(w["cpu_s"] for w in workers)
                faults = sum(w["minor_faults"] for w in workers)
            rows.append((min(s.start for s in slices),
                         returned - max(s.end for s in slices),
                         cpu, faults, master))
        for at, key in enumerate(("start_ms", "finish_ms", "cpu_ms",
                                  "faults", "master_faults")):
            value = statistics.median(row[at] for row in rows)
            out[f"{label}_{key}"] = value * (1e3 if "ms" in key else 1)
    close_pool()
    out["wrong"] = wrong
    return out


ROWS = (("seq rounds", "rounds", "seq", 0),
        ("seq entries", "entries", "seq", 0),
        ("round (us/round, fastest pass)", "round_us", "seq", 1),
        ("kernel (us/round, fastest pass)", "kernel_us", "seq", 1),
        ("waves / round", "waves", "seq", 2),
        ("mp run (s, median)", "run_s", "mp", 4),
        ("mp rounds (last observed run)", "rounds", "mp", 0),
        ("hand-off (us, median)", "hand_off_us", "mp", 0),
        ("stop -> reports collected (ms)", "stop_ms", "mp", 2),
        ("assemble (ms)", "assemble_ms", "mp", 2),
        ("answers differing from the reference", "wrong", "mp", 0))

POOL_ROWS = (("start, run() -> first round_start (ms)", "start_ms", 2),
             ("finish, last round_end -> return (ms)", "finish_ms", 2),
             ("worker CPU, both workers (ms / run)", "cpu_ms", 1),
             ("worker minor faults, both workers (/ run)", "faults", 0),
             ("master minor faults (/ run)", "master_faults", 0))


def table(label: str, seq: dict, mp: dict, pool: dict) -> str:
    lines = [f"| layer | {label} |", "|---|---:|"]
    for name, key, side, digits in ROWS:
        value = (seq if side == "seq" else mp)[key]
        lines.append(f"| {name} | {value:.{digits}f} |")
    lines += ["", "| worker pool (median of observed runs) | cold | warm |",
              "|---|---:|---:|"]
    for name, key, digits in POOL_ROWS:
        lines.append(f"| {name} | {pool['cold_' + key]:.{digits}f} | "
                     f"{pool['warm_' + key]:.{digits}f} |")
    lines.append(f"| in-process sequential pass, minor faults | "
                 f"{seq['faults']} | |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=int, default=160,
                        help="grid side (the workload: 160; --quick: 40)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=7,
                        help="multiprocess runs, untraced and observed each")
    parser.add_argument("--out", help="also write the table (markdown) "
                        "and the numbers (JSON beside it) here")
    args = parser.parse_args(argv)
    graph = generators.grid2d(args.side, args.side, weighted=True,
                              seed=args.seed)
    program_cls, query, _ = wl.make_query(SPEC, graph)
    pg = wl.build_partition(graph)
    seq = sequential(pg, program_cls, query, reps=args.runs)
    reference = seq.pop("answer")
    mp = multiprocess(pg, program_cls, query, args.runs, reference)
    pool = pool_runs(pg, program_cls, query, args.runs, reference)
    text = table(f"grid {args.side}x{args.side}, seed {args.seed}", seq, mp,
                 pool)
    print(text)
    wrong = mp["wrong"] + pool["wrong"]
    if wrong:
        print(f"{wrong} multiprocess answers differ from the "
              f"sequential reference", file=sys.stderr)
    if args.out:
        out = pathlib.Path(args.out)
        out.write_text(text + "\n")
        out.with_suffix(".json").write_text(json.dumps(
            {"side": args.side, "seed": args.seed, "runs": args.runs,
             "fragments": wl.FRAGMENTS, "seq": seq, "mp": mp,
             "pool": pool}, indent=2) + "\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
