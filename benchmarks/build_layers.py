"""Where a cold build spends its time, layer by layer.

A cold build is what ``setup_s`` of the end-to-end benchmark times on the
batch workloads: ``HashPartitioner().partition`` + ``compact()`` of every
fragment + ``Engine(...)``.  The layers are timed *from outside*, by
shadowing the names the build calls (``benchmarks/e2e/tracing.Tracer``,
as the traced pass of the benchmark does; the program is not edited), on
the graphs of the four ``BENCHMARK.json`` workloads at quick and full
size, once with the vectorized engine the batch workloads build and once
with the generic engine the service builds:

- ``edge pass``     ``GraphArrays.of`` over the input graph: no Python step
                    per edge for these integer-id graphs
- ``assignment``    the partitioner's fragment per node, as an array
                    (``HashPartitioner.owners``)
- ``node order``    a fragment's nodes in dict-graph order
                    (``insertion_order``): made when the dict graph is, so
                    0 in a vectorized build
- ``assembly``      the rest of ``build_edge_cut``: edge selection, local
                    node masks, routing pairs, ``Fragment(...)``
- ``containers``    node sets, routing dicts, placement map, ``lid_of`` —
                    built on first read, so 0 when nobody reads them
- ``dict graph``    ``Fragment.graph`` materialised: the bulk insert into
                    the dict ``Graph`` (generic engine only)
- ``csr sort``      ``stable_order``: one key sort for the out-rows (a
                    directed graph's in-rows are sorted on first read)
- ``csr view``      the rest of ``Fragment.compact``
- ``routes``        the engine's routing masks (the program's rule over
                    each fragment's node table, either engine)
- ``contexts``      the rest of ``Engine(...)``

Below the layers, a ``serve`` row: the whole cold build of the resident
service (``GraphService(...)``: input arrays, owner map, partition, engine,
the one PEval run, Assemble — ``setup_s`` of the serve workload), on the
dense engine it runs by default and on the generic one.

Above the layers, a ``generate`` row: the workload's generator, once
(``graph.generate_s``; not part of a cold build, nor of its total).

Medians of ``--builds`` cold builds with quartiles, in milliseconds.  The
cyclic collector is off during a build: a collection lands in whichever
layer allocates next (after a dict graph was made, in the first set built)
and would be charged to it.  A ``retained MB`` row gives what one more,
untimed cold build leaves allocated (``tracemalloc``: partition, CSR views,
engine; dict graphs with the generic engine), so the timed rows do not
carry the tracer's cost.  Exits 1 if a vectorized build — the dense
service's included — made a per-node container of the partition (node
sets, routing dicts, placement map, dict graphs), or if an undirected
fragment's CSR view holds in-rows apart from its out-rows (one adjacency:
``separate in-rows`` must read 0), or if a build iterated ``Graph.edges()``
(``edges() reads`` must read 0: a dict graph over integer ids is read from
its edge-key dict, not one generated edge at a time), or if a vectorized
cold build made what only a first read should: a dict-graph node order,
the partition's owner dict or a directed CSR's in-rows (``dict orders
built``, ``owner dicts built``, ``in-rows built`` must read 0 there),
or if a vectorized build — the dense service's and its first ingest
included — made the input graph, or any graph but a fragment's, build
its dicts (the generators hand over arrays, and the graph builds its
dicts on the first read that needs them: ``input dicts built`` must read
0 there), or if the edge pass of a generated graph
(which hands its arrays over, with no pass and no id census) took 1 ms.
This is the table docs/performance.md (ledger entry 6) quotes, not part
of ``benchmarks/e2e``::

    PYTHONPATH=src python benchmarks/build_layers.py [--sizes quick full]
"""

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time
import tracemalloc

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
try:
    import repro  # noqa: F401
except ImportError:  # run from a checkout without installing
    sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (benchmarks/e2e)
from tracing import Tracer  # noqa: E402  (benchmarks/e2e)

from repro.algorithms import SSSPProgram, SSSPQuery  # noqa: E402
from repro.core.engine import Engine  # noqa: E402
from repro.graph import csr as csr_module  # noqa: E402
from repro.graph.csr import GraphArrays  # noqa: E402
from repro.graph import graph as graph_module  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.partition import builder as builder_module  # noqa: E402
from repro.partition import fragment as fragment_module  # noqa: E402
from repro.partition.edge_cut import HashPartitioner  # noqa: E402
from repro.partition.fragment import Fragment, built_on_read  # noqa: E402
from repro.serve.service import GraphService  # noqa: E402

LAYERS = ("edge pass", "assignment", "node order", "assembly",
          "containers", "dict graph", "csr sort", "csr view", "routes",
          "contexts")
#: what a cold build should leave to a first read, counted per build
READ_MADE = ("dict orders", "owner dicts", "in-rows")
#: a generated graph's edge pass hands its arrays over: well under this
ARRAY_EDGE_PASS_MS = 1.0


def input_dicts(graph) -> int:
    """How many dicts of an array-born graph a read has built (0 for a
    dict-born one: its dicts are the graph, nobody built them on read)."""
    if getattr(graph, "_arrays", None) is None:
        return 0
    return sum(name in vars(graph) for name in graph_module._DICTS)


def cold_build(graph, program_cls, query, vectorized: bool) -> dict:
    """One cold build under wrappers: milliseconds by layer, plus the
    names of the containers it built."""
    tracer = Tracer("build")
    partitioner = HashPartitioner()
    tracer.wrap(partitioner, "owners", "assignment")
    tracer.wrap(builder_module, "build_edge_cut", "assembly")
    tracer.wrap(GraphArrays, "of", "edge pass")
    tracer.wrap(fragment_module, "insertion_order", "node order")
    tracer.wrap(built_on_read, "__get__", "containers")
    tracer.wrap(Graph, "add_novel_edges", "dict graph")
    tracer.wrap(csr_module, "stable_order", "csr sort")
    tracer.wrap(Fragment, "compact", "csr view")
    tracer.wrap(Engine, "_routing", "routes")
    tracer.wrap(Graph, "edges", "edges() reads")
    gc.collect()
    gc.disable()
    try:
        with tracer.span("total"):
            pg = partitioner.partition(graph, wl.FRAGMENTS)
            for frag in pg:
                frag.compact()
            with tracer.span("contexts"):
                Engine(program_cls(), pg, query, vectorized=vectorized)
    finally:
        gc.enable()
        tracer.unwrap_all()
    # layers nest (a generic engine's contexts read its dict graph, which
    # reads containers): each is charged its self time
    out = {name: tracer.self_time(name) * 1e3 for name in LAYERS}
    out["total"] = tracer.total("total") * 1e3
    built = [kind for kind, there in (
        ("node sets + routing", any(frag.built for frag in pg)),
        ("lid_of", any(frag.compact().built for frag in pg)),
        ("placement", pg.built)) if there]
    return {"ms": out, "built": built,
            "materialised": sum(frag.materialised for frag in pg),
            "split": sum(separate_in_rows(frag.compact().csr) for frag in pg),
            "edge_reads": len(tracer.durations("edges() reads")),
            "input_dicts": input_dicts(graph),
            "read_made": {"dict orders": len(tracer.durations("node order")),
                          "owner dicts": int("owner" in vars(pg)),
                          "in-rows": sum(has_in_rows(frag.compact().csr)
                                         for frag in pg)}}


def has_in_rows(csr) -> bool:
    """Whether a directed CSR has sorted its in-rows (an undirected one's
    are its out-rows)."""
    return csr.directed and csr._reverse is not None


def separate_in_rows(csr) -> bool:
    """Whether an undirected CSR keeps its reverse adjacency apart."""
    return not csr.directed and csr.in_indices is not csr.out_indices


def retained_mb(graph, program_cls, query, vectorized: bool) -> float:
    """Megabytes one untimed cold build leaves allocated while its
    partition and engine live (``tracemalloc`` counts numpy's buffers)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pg = HashPartitioner().partition(graph, wl.FRAGMENTS)
        for frag in pg:
            frag.compact()
        engine = Engine(program_cls(), pg, query, vectorized=vectorized)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del engine, pg  # alive until measured
    return kept / 2 ** 20


class GenericSSSP(SSSPProgram):
    """The serve workload's program without dense kernels: how a service
    ends up on the generic engine."""

    dense_capable = False


def serve_build(graph, vectorized: bool, seed: int) -> dict:
    """One cold build of the resident service: milliseconds, and what it
    and its first ingest (untimed) left built of the partition, plus how
    many graphs other than its fragments' had their dicts built (the
    service checks edge novelty against its partition: none)."""
    program = SSSPProgram() if vectorized else GenericSSSP()
    batch = wl.ServeScript(graph, seed).batch()
    tracer = Tracer("serve")
    tracer.wrap(Graph, "edges", "edges() reads")
    made = []  # the graphs whose dicts were built
    build_dicts = graph_module._dict_containers

    def recording(g):
        made.append(g)
        return build_dicts(g)
    graph_module._dict_containers = recording
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        svc = GraphService(program, graph, SSSPQuery(source=0),
                           num_fragments=wl.FRAGMENTS, mode="AAP",
                           runtime="threaded")
        wall = time.perf_counter() - t0
        svc.ingest(batch)
    finally:
        gc.enable()
        tracer.unwrap_all()
        graph_module._dict_containers = build_dicts
    assert svc.engine.vectorized == vectorized
    built = [kind for kind, there in (
        ("node sets + routing", any(frag.built for frag in svc.pg)),
        ("placement", svc.pg.built)) if there]
    return {"ms": {"serve": wall * 1e3}, "built": built,
            "materialised": sum(frag.materialised for frag in svc.pg),
            "edge_reads": len(tracer.durations("edges() reads")),
            # a generic engine reads its fragments' dict graphs; any
            # other graph's dicts are the service's own
            "input_dicts": max(input_dicts(graph), sum(
                all(g is not vars(frag).get("graph") for frag in svc.pg)
                for g in made))}


def quartiles(runs, layer: str) -> dict:
    q1, med, q3 = statistics.quantiles(
        [run["ms"][layer] for run in runs], n=4) \
        if len(runs) > 1 else [runs[0]["ms"][layer]] * 3
    return {"median": med, "q1": q1, "q3": q3}


def measure(spec: wl.Spec, quick: bool, seed: int, builds: int) -> dict:
    t0 = time.perf_counter()
    graph = spec.graph(seed, quick)
    generate = {"median": (time.perf_counter() - t0) * 1e3}
    generate.update(q1=generate["median"], q3=generate["median"])
    program_cls, query, _ = wl.make_query(spec, graph)
    column = {"nodes": graph.num_nodes, "edges": graph.num_edges,
              "array_born": getattr(graph, "_arrays", None) is not None}
    for engine, vectorized in (("vectorized", True), ("generic", False)):
        runs = [cold_build(graph, program_cls, query, vectorized)
                for _ in range(builds)]
        rows = {layer: quartiles(runs, layer) for layer in (*LAYERS, "total")}
        rows["generate"] = generate
        built, materialised = runs[-1]["built"], runs[-1]["materialised"]
        split = max(run["split"] for run in runs)
        edge_reads = max(run["edge_reads"] for run in runs)
        dicts = max(run["input_dicts"] for run in runs)
        read_made = {kind: max(run["read_made"][kind] for run in runs)
                     for kind in READ_MADE}
        if spec.kind == "serve":
            served = [serve_build(graph, vectorized, seed)
                      for _ in range(builds)]
            rows["serve"] = quartiles(served, "serve")
            built = sorted({*built, *served[-1]["built"]})
            materialised = max(materialised, served[-1]["materialised"])
            edge_reads = max(edge_reads, *(run["edge_reads"]
                                           for run in served))
            dicts = max(dicts, *(run["input_dicts"] for run in served))
        column[engine] = {"ms": rows, "built": built,
                          "materialised": materialised, "split": split,
                          "edge_reads": edge_reads, "read_made": read_made,
                          "input_dicts": dicts,
                          "retained_mb": retained_mb(graph, program_cls,
                                                     query, vectorized)}
    return column


def table(columns: dict, engine: str) -> str:
    names = list(columns)
    lines = [f"| {engine} engine (ms) | " + " | ".join(names) + " |",
             "|---|" + "---:|" * len(names)]
    for layer in ("generate", *LAYERS, "total", "serve"):
        cells = []
        for name in names:
            row = columns[name][engine]["ms"].get(layer)
            cells.append("-" if row is None else
                         f"{row['median']:.1f} "
                         f"[{row['q1']:.1f}, {row['q3']:.1f}]")
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    lines.append("| retained MB | " + " | ".join(
        f"{columns[name][engine]['retained_mb']:.1f}" for name in names)
        + " |")
    lines.append("| containers built | " + " | ".join(
        ", ".join(columns[name][engine]["built"]) or "none"
        for name in names) + " |")
    lines.append("| dict graphs | " + " | ".join(
        f"{columns[name][engine]['materialised']}/{wl.FRAGMENTS}"
        for name in names) + " |")
    lines.append("| separate in-rows | " + " | ".join(
        f"{columns[name][engine]['split']}/{wl.FRAGMENTS}"
        for name in names) + " |")
    lines.append("| edges() reads | " + " | ".join(
        str(columns[name][engine]["edge_reads"]) for name in names) + " |")
    lines.append("| input dicts built | " + " | ".join(
        str(columns[name][engine]["input_dicts"]) for name in names) + " |")
    for kind in READ_MADE:
        lines.append(f"| {kind} built | " + " | ".join(
            str(columns[name][engine]["read_made"][kind]) for name in names)
            + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", default=["quick", "full"],
                        choices=["quick", "full"])
    parser.add_argument("--workloads", nargs="+", default=list(wl.WORKLOADS),
                        choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--builds", type=int, default=7,
                        help="cold builds per column")
    parser.add_argument("--out", help="also write the tables (markdown) "
                        "and the numbers (JSON beside it) here")
    args = parser.parse_args(argv)
    columns = {}
    for size in args.sizes:
        for name in args.workloads:
            columns[f"{name} ({size})"] = measure(
                wl.WORKLOADS[name], size == "quick", args.seed, args.builds)
    text = "\n\n".join(table(columns, engine)
                       for engine in ("vectorized", "generic"))
    print(text)
    if args.out:
        out = pathlib.Path(args.out)
        out.write_text(text + "\n")
        out.with_suffix(".json").write_text(json.dumps(
            {"seed": args.seed, "builds": args.builds,
             "fragments": wl.FRAGMENTS, "columns": columns}, indent=2) + "\n")
    # a vectorized build — the dense service's included — that made a
    # per-node container, what only a first read should make or the
    # input graph's dicts, an undirected view with a second adjacency, a
    # build of these integer-id graphs that read them one generated edge
    # at a time, or an edge pass over a generated graph's arrays is the
    # regression this table exists to show
    return 1 if any(c["vectorized"]["built"] or c["vectorized"]["materialised"]
                    or c["vectorized"]["split"] or c["generic"]["split"]
                    or c["vectorized"]["edge_reads"]
                    or c["generic"]["edge_reads"]
                    or any(c["vectorized"]["read_made"].values())
                    or c["vectorized"]["input_dicts"]
                    or c["array_born"] and c["vectorized"]["ms"][
                        "edge pass"]["median"] >= ARRAY_EDGE_PASS_MS
                    for c in columns.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
