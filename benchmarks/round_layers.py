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
  ``round_start`` (median over every round of every observed run).

It exits 1 if any multiprocess run's answer differs from the sequential
reference (SSSP is exact: equality, floats included).  These are the
tables docs/performance.md (ledger entry 29) quotes, not part of
``benchmarks/e2e``::

    PYTHONPATH=src python benchmarks/round_layers.py [--side 160] [--runs 7]
"""

import argparse
import bisect
import json
import pathlib
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
    tracer = Tracer("waves")
    tracer.wrap(FragmentCSR, "out_edges", "wave")
    try:
        wl.seq_run(engine)
    finally:
        tracer.unwrap_all()
    return {"answer": answer, "rounds": rounds, "entries": entries,
            "round_us": min(r for r, _ in per_pass) / rounds * 1e6,
            "kernel_us": min(k for _, k in per_pass) / rounds * 1e6,
            "waves": len(tracer.durations("wave")) / rounds}


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


def table(label: str, seq: dict, mp: dict) -> str:
    lines = [f"| layer | {label} |", "|---|---:|"]
    for name, key, side, digits in ROWS:
        value = (seq if side == "seq" else mp)[key]
        lines.append(f"| {name} | {value:.{digits}f} |")
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
    mp = multiprocess(pg, program_cls, query, args.runs, seq.pop("answer"))
    text = table(f"grid {args.side}x{args.side}, seed {args.seed}", seq, mp)
    print(text)
    if mp["wrong"]:
        print(f"{mp['wrong']} multiprocess answers differ from the "
              f"sequential reference", file=sys.stderr)
    if args.out:
        out = pathlib.Path(args.out)
        out.write_text(text + "\n")
        out.with_suffix(".json").write_text(json.dumps(
            {"side": args.side, "seed": args.seed, "runs": args.runs,
             "fragments": wl.FRAGMENTS, "seq": seq, "mp": mp},
            indent=2) + "\n")
    return 1 if mp["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
