"""Where one epoch apply of ``GraphService`` spends its time.

Times the layers of ``GraphService._apply_one`` *from outside*, by
shadowing the names the service calls (``benchmarks/e2e/tracing.Tracer``,
the way the end-to-end benchmark's traced pass does; the service is not
edited), on the input of the ``serve-sssp-mixed`` workload — powerlaw
graph, 2 fragments, 8-edge batches, every other edge to a new node — at
two graph sizes and on both engines: the dense one the service runs by
default and the generic one it falls back on (here: the same program
declared ``dense_capable = False``).  An epoch that costs O(batch +
changed answers) shows the same row at both sizes; an O(fragment) step
shows up as a row that grows with the graph, and the script exits 1 when
a dense row other than ``integrate`` / ``run`` (whose work is the
algorithm's) more than doubles from the small size to the large one, or
when a drained service differs from a recompute.  Epochs that merged a
fragment's appended edges into its CSR (the one O(fragment) step left,
amortised) are counted and left out of the medians; ``first epoch`` is
the one right after construction.  Before it, per engine, the first
ingest: its milliseconds, and what of its allocations a second, fresh
service still holds after it (``tracemalloc``, so the timed ingest does
not carry the tracer's cost) — a service that copied the graph into
dicts for its novelty check would build them here.  The last rows are
the read blocks that follow: cost per read seen by the caller, the
latency the service reports for the same reads, and the gap between them
(the histograms and the result record, after the answer is known); then
the ``EventLog.record`` calls (``emit`` and ``append`` write through it)
and the ``AdmissionController.admit_query`` calls one more block of reads
made, counted by patching, and the script exits 1 unless both are 0 (a
served read writes no event: it counts in its latency and staleness
histograms; and a read within its bound has nothing to catch up, so the
admission controller is not asked).  These are the tables
docs/performance.md (ledger entries 4, 5, 10, 20, 25 and 26) quote, not
part of ``benchmarks/e2e``::

    PYTHONPATH=src python benchmarks/epoch_layers.py [--sizes 2000 20000]
"""

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time
import tracemalloc
from unittest import mock

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
try:
    import repro  # noqa: F401
except ImportError:  # run from a checkout without installing
    sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (benchmarks/e2e)
from tracing import Tracer  # noqa: E402  (benchmarks/e2e)

from repro.algorithms import SSSPProgram, SSSPQuery  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.obs.events import EventLog  # noqa: E402
from repro.serve import service as service_module  # noqa: E402
from repro.serve.admission import AdmissionController  # noqa: E402
from repro.serve.loadgen import verify_against_recompute  # noqa: E402
from repro.serve.service import GraphService  # noqa: E402

#: table rows, in the order an epoch runs them; "other" is what is left of
#: the total: the insertion log, the snapshot patch and the epoch's obs
#: event
LAYERS = ("grow", "contexts", "routes", "integrate", "run", "answer_delta")
#: read blocks timed after the epochs; the table shows the median block
READ_BLOCKS = 5
#: the rows whose work is the algorithm's, not the bookkeeping's: they may
#: grow with the graph (a longer shortest-path tree moves more answers)
ALGORITHM_ROWS = ("integrate", "run")
#: a bookkeeping row of the dense engine may not grow by more than this
#: from the small size to the large one ...
MAX_GROWTH = 2.0
#: ... unless it is below the timer's noise at both (milliseconds)
NOISE_MS = 0.02


class GenericSSSP(SSSPProgram):
    """The workload's program without dense kernels: how a service ends
    up on the generic engine."""

    dense_capable = False


def build_service(graph, engine: str) -> GraphService:
    """``workloads.build_service`` with the engine chosen by the program."""
    program = SSSPProgram() if engine == "dense" else GenericSSSP()
    return GraphService(program, graph, SSSPQuery(source=0),
                        num_fragments=wl.FRAGMENTS, mode="AAP",
                        runtime="threaded")


def install(tracer: Tracer, svc) -> None:
    """Shadow every layer boundary of ``svc._apply_one``."""
    tracer.wrap(service_module, "grow_edge_cut", "grow")
    tracer.wrap(service_module, "integrate_insertions", "integrate")
    tracer.wrap(svc.engine, "extend_contexts", "contexts")
    tracer.wrap(svc.engine, "refresh_routes", "routes")
    tracer.wrap(svc.engine, "answer_delta", "answer_delta")
    tracer.wrap(service_module, "resume_to_fixpoint", "run")
    tracer.wrap(svc, "_apply_one", "total")


def measure(nodes: int, seed: int, epochs: int, reads: int,
            engine: str) -> dict:
    """One column of the table: median milliseconds per epoch by layer."""
    graph = generators.powerlaw(nodes, m=3, weighted=True, seed=seed)
    svc = build_service(graph, engine)
    assert svc.status()["engine"] == engine
    script = wl.ServeScript(graph, seed)
    first = script.batch()
    gc.collect()  # what the earlier columns left is not this one's cost
    t0 = time.perf_counter()
    svc.ingest(first)
    first_ingest = time.perf_counter() - t0
    tracer = Tracer(f"powerlaw-{nodes}")
    install(tracer, svc)
    try:
        for epoch in range(epochs):
            if epoch:
                svc.ingest(script.batch())
            svc.pump(1)
    finally:
        tracer.unwrap_all()
    per_epoch = {name: [0.0] * epochs for name in LAYERS}
    totals = tracer.durations("total")
    # every layer span is a direct child of its epoch's "total" span
    epoch_of = {s[0]: i for i, s in enumerate(
        s for s in tracer.spans if s[1] == "total")}
    for _, name, start, end, parent, *_ in tracer.spans:
        if name in per_epoch:
            per_epoch[name][epoch_of[parent]] += end - start
    # an epoch that merged is the amortised O(fragment) step: counted,
    # shown as the worst case, kept out of the medians
    merged = {event.payload["epoch"] - 1 for event in svc.obs.log
              if event.type == "epoch_apply" and event.payload["merged"]}
    steady = [i for i in range(epochs) if i not in merged]
    column = {name: statistics.median(walls[i] for i in steady) * 1e3
              for name, walls in per_epoch.items()}
    column["first_ingest"] = first_ingest * 1e3
    column["first_ingest_kb"] = retained_by_first_ingest(
        graph, engine, first) / 1024
    column["other"] = statistics.median(
        totals[i] - sum(per_epoch[name][i] for name in LAYERS)
        for i in steady) * 1e3
    column["total"] = statistics.median(totals[i] for i in steady) * 1e3
    column["first_epoch"] = totals[0] * 1e3
    column["worst_epoch"] = max(totals) * 1e3
    column["merges"] = len(merged)
    column["changed_keys"] = svc.obs.metrics.histogram(
        "serve_epoch_changed").mean
    # read blocks of the workload: caller-side cost per read beside what
    # the service reports (``QueryResult.latency`` stops when the answer
    # is known); the gap is the histogram / result bookkeeping
    per_read, reported = [], []
    for _ in range(READ_BLOCKS):
        keys = [script.key() for _ in range(reads)]
        t0 = time.perf_counter()
        results = [svc.query(key, staleness_bound=wl.READ_BOUND)
                   for key in keys]
        per_read.append((time.perf_counter() - t0) / reads)
        reported.append(statistics.median(r.latency for r in results))
    column["read_us"] = statistics.median(per_read) * 1e6
    column["read_self_reported_us"] = statistics.median(reported) * 1e6
    column["read_gap_us"] = (column["read_us"]
                             - column["read_self_reported_us"])
    column["read_records"], column["read_admissions"] = count_read_calls(
        svc, script, reads)
    column["verified"] = verify_against_recompute(svc)
    return column


def retained_by_first_ingest(graph, engine: str, batch) -> int:
    """Bytes of what one ingest of ``batch`` into a fresh service
    allocated that are still allocated after it (``tracemalloc`` counts
    numpy's buffers too)."""
    svc = build_service(graph, engine)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        svc.ingest(batch)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept


def count_read_calls(svc, script, reads: int) -> tuple:
    """``EventLog.record`` calls (every ``emit`` and ``append`` is one)
    and ``AdmissionController.admit_query`` calls made by one more,
    untimed block of reads within their bound: a served read writes no
    event, and one within its bound asks no admission, so both must be
    0."""
    keys = [script.key() for _ in range(reads)]
    with counting(EventLog, "record") as record, \
            counting(AdmissionController, "admit_query") as admit:
        for key in keys:
            svc.query(key, staleness_bound=wl.READ_BOUND)
    return record.call_count, admit.call_count


def counting(cls, name):
    """Patch ``cls.name`` with a mock that calls through and counts."""
    return mock.patch.object(cls, name, autospec=True,
                             side_effect=getattr(cls, name))


def table(columns: dict) -> str:
    sizes = list(columns)
    lines = ["| layer | " + " | ".join(sizes) + " |",
             "|---|" + "---:|" * len(sizes)]
    for label, row, digits in (("first ingest (ms)", "first_ingest", 3),
                               ("first ingest retained (KB)",
                                "first_ingest_kb", 1)):
        lines.append(f"| {label} | " + " | ".join(
            f"{columns[size][row]:.{digits}f}" for size in sizes) + " |")
    for row in (*LAYERS, "other", "total", "first_epoch", "worst_epoch"):
        lines.append(f"| {row.replace('_', ' ')} (ms) | " + " | ".join(
            f"{columns[size][row]:.3f}" for size in sizes) + " |")
    lines.append("| epochs that merged | " + " | ".join(
        str(columns[size]["merges"]) for size in sizes) + " |")
    lines.append("| changed keys / epoch | " + " | ".join(
        f"{columns[size]['changed_keys']:.1f}" for size in sizes) + " |")
    for label, row in (("serve.read_us (caller side)", "read_us"),
                       ("serve.read_self_reported_us (median)",
                        "read_self_reported_us"),
                       ("gap (us)", "read_gap_us")):
        lines.append(f"| {label} | " + " | ".join(
            f"{columns[size][row]:.2f}" for size in sizes) + " |")
    for label, row in (("log records by a read block", "read_records"),
                       ("admissions by a read block", "read_admissions")):
        lines.append(f"| {label} | " + " | ".join(
            str(columns[size][row]) for size in sizes) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs=2, default=[2000, 20000],
                        metavar="NODES")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--reads", type=int, default=2000,
                        help="reads per block (%d blocks)" % READ_BLOCKS)
    parser.add_argument("--out", help="also write the table (markdown) "
                        "and the numbers (JSON beside it) here")
    args = parser.parse_args(argv)
    columns = {f"powerlaw-{n} {engine}": measure(
                   n, args.seed, args.epochs, args.reads, engine)
               for n in args.sizes for engine in ("dense", "generic")}
    text = table(columns)
    print(text)
    small, large = (columns[f"powerlaw-{n} dense"] for n in args.sizes)
    grew = [row for row in (*LAYERS, "other")
            if row not in ALGORITHM_ROWS and large[row] > NOISE_MS
            and large[row] > MAX_GROWTH * small[row]]
    for row in grew:
        print(f"dense row {row!r} grows with the graph: {small[row]:.3f} "
              f"-> {large[row]:.3f} ms", file=sys.stderr)
    called = [f"{name}: reads within their bound {what}"
              for name, column in columns.items()
              for row, what in (("read_records", "wrote to the event log"),
                                ("read_admissions",
                                 "asked the admission controller"))
              if column[row]]
    for line in called:
        print(line, file=sys.stderr)
    if args.out:
        out = pathlib.Path(args.out)
        out.write_text(text + "\n")
        out.with_suffix(".json").write_text(json.dumps(
            {"seed": args.seed, "epochs": args.epochs,
             "fragments": wl.FRAGMENTS, "batch_edges": wl.BATCH_EDGES,
             "columns": columns}, indent=2) + "\n")
    return 0 if not grew and not called and all(
        c["verified"] for c in columns.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
