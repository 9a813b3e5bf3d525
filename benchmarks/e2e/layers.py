"""The traced pass: per-layer metrics, measured from the benchmark's side.

Spans are opened around the calls into each layer's public functions —
by wrappers shadowing a method on one instance (:meth:`Tracer.wrap`) or
by the benchmark's own loops — never inside the program.  Metric names
are prefixed with the layer (= module) they time: ``graph``,
``partition``, ``core``, ``algorithms``, ``runtime``, ``serve``, ``obs``.

``BENCHMARK.json`` lists the per-layer metrics that every workload
measures.  What only one workload can measure (the mode/transport sweep
and simulator counts of ``sssp-grid-mp``, the ``serve.*`` spans of
``serve-sssp-mixed``) is reported beside them as that workload's *extra*
metrics (:data:`EXTRA_UNITS`): printed and kept in ``results.json``, but
not part of the one-line result, where a metric has to exist on all
workloads.
"""

from __future__ import annotations

import pickle
import statistics
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import workloads as wl
from tracing import Tracer
from repro.core.delay import AAPPolicy, WorkerView
from repro.core.engine import Engine
from repro.core.messages import MessageBatch
from repro.core.modes import make_policy
from repro.graph import generators
from repro.obs import Observer
from repro.partition import quality
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.slab import SlabArena
from repro.serve import service as service_module

SWEEP_RUNS = 3
PROBE_CALLS = 2000

EXTRA_UNITS = {
    # sssp-grid-mp
    "runtime.mode.BSP.run_s": "s", "runtime.mode.AP.run_s": "s",
    "runtime.mode.SSP.run_s": "s", "runtime.transport.queue.run_s": "s",
    "runtime.sim.aap_makespan": "count", "runtime.sim.bsp_makespan": "count",
    "runtime.sim.aap_rounds_max": "count", "runtime.sim.aap_entries": "count",
    # serve-sssp-mixed
    "serve.build_s": "s", "serve.partition_build_s": "s",
    "serve.engine_build_s": "s", "serve.ingest_us": "us",
    "serve.epoch_apply_ms": "ms", "serve.catchup_query_ms": "ms",
    "serve.read_us": "us", "serve.updates_per_s": "edges/s",
    "serve.read_self_reported_us": "us",
    "serve.changed_keys_per_epoch": "count", "serve.cache_hit_rate": "ratio",
    "serve.snapshot_ms": "ms", "serve.shed_ratio": "ratio",
    "serve.verify_s": "s", "partition.grow_us_per_edge": "us",
    "obs.serve_events_retained": "count",
}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- batch workloads ---------------------------------------------------
def trace_batch(spec: wl.Spec, graph: Any, seconds: float,
                rec: wl.Recorder, tracer: Tracer,
                unit: str = "unit") -> Dict[str, float]:
    """Layer by layer through one batch query on ``graph``; the
    workload's own runtime then repeats (rows of kind ``unit``) until
    ``seconds`` have passed since the call."""
    out: Dict[str, float] = {}
    started = time.perf_counter()
    program_cls, query, tolerance = wl.make_query(spec, graph)

    pg = wl.build_partition(graph, span=tracer.span)
    with tracer.span("core.engine_build_cold"):
        Engine(program_cls(), pg, query, vectorized=True)
    with tracer.span("core.engine_build_warm"):
        Engine(program_cls(), pg, query, vectorized=True)
    for name in ("partition.build", "partition.compact",
                 "core.engine_build_cold", "core.engine_build_warm"):
        out[name + "_s"] = tracer.total(name)
    out["partition.edge_cut_ratio"] = quality.edge_cut_ratio(pg)
    out["partition.balance"] = quality.balance(pg)

    # the single-threaded baseline, first without then with wrappers
    t0 = time.perf_counter()
    reference, rounds, entries = wl.seq_run(
        Engine(program_cls(), pg, query, vectorized=True))
    untraced = time.perf_counter() - t0
    out["core.seq_run_s"] = untraced
    out["core.seq_rounds"] = rounds
    out["core.seq_entries"] = entries
    out.update(_traced_seq_run(tracer, program_cls, pg, query, untraced))

    run = wl.make_run(spec, pg, program_cls, query)
    wl.timed_run(rec, "warmup", 0, run, reference, tolerance)
    out["runtime.floor_s"] = _runtime_floor(spec, rec)
    if spec.name == "sssp-grid-mp":
        out.update(_mode_sweep(spec, pg, program_cls, query, reference,
                               tolerance, rec))
        out.update(_simulated_counts(program_cls, pg, query))
    observed = _observed_runs(spec, pg, program_cls, query, reference,
                              tolerance, rec)
    out.update(_transport_probes())
    out["core.delay_decide_us"] = _delay_probe()

    # the workload's own runtime, for whatever is left of --seconds
    results = []
    rep = 0
    while rep < 3 or time.perf_counter() - started < seconds:
        rec.calibrate(wl.PROBE_GAP)
        result = wl.timed_run(rec, unit, rep, run, reference, tolerance,
                              edges=graph.num_edges)
        if result is not None:
            results.append(result)
        rep += 1
    rows = [r for r in rec.rows if r["kind"] == unit and r["ok"]]
    run_s = median(rec.walls(unit))
    out["runtime.speedup_vs_seq"] = untraced / run_s if run_s else 0.0
    out["runtime.cpu_s"] = median([r["cpu_s"] for r in rows])
    out["runtime.rounds_max"] = median([max(r.rounds) for r in results])
    out["runtime.rounds_total"] = median([sum(r.rounds) for r in results])
    out["runtime.entries"] = median([r["entries"] for r in rows])
    out["runtime.bytes"] = median(
        [r.metrics.total_bytes for r in results])
    out["runtime.stale_round_ratio"] = (
        out["runtime.rounds_total"] / rounds if rounds else 0.0)
    transport = [r.extras.get("transport", {}) for r in results]
    out["runtime.shm_batches"] = median(
        [t.get("shm_batches", 0) for t in transport])
    out["runtime.queue_fallbacks"] = median(
        [t.get("queue_fallbacks", 0) for t in transport])
    out["runtime.idle_ratio"] = _idle_ratio(spec, results, rows)
    out["obs.enabled_run_ratio"] = (
        observed["run_s"] / run_s if run_s else 0.0)
    out["obs.events_per_run"] = observed["events"]
    return out


def _traced_seq_run(tracer: Tracer, program_cls: Any, pg: Any, query: Any,
                    untraced: float) -> Dict[str, float]:
    """Repeat the sequential pass with a span around every layer call."""
    engine = Engine(program_cls(), pg, query, vectorized=True)
    for attr in ("run_peval", "run_inceval", "derive_messages", "assemble"):
        tracer.wrap(engine, attr, "core." + attr)
    for attr in ("dense_peval", "dense_inceval", "dense_apply_incoming"):
        tracer.wrap(engine.program, attr, "algorithms." + attr)
    with tracer.span("core.seq_run") as root:
        wl.seq_run(engine)
    tracer.unwrap_all()
    traced = root[3] - root[2]
    return {
        "core.inceval_self_s": tracer.self_time("core.run_inceval"),
        "core.derive_s": tracer.total("core.derive_messages"),
        "core.assemble_s": tracer.total("core.assemble"),
        "algorithms.peval_s": tracer.total("algorithms.dense_peval"),
        "algorithms.inceval_s": tracer.total("algorithms.dense_inceval"),
        "algorithms.apply_incoming_s":
            tracer.total("algorithms.dense_apply_incoming"),
        "bench.trace_overhead_ratio": traced / untraced,
    }


def _runtime_floor(spec: wl.Spec, rec: wl.Recorder) -> float:
    """The same runtime, mode and transport on a two-node path: spawn,
    slab set-up, termination and join with no work to do."""
    tiny = generators.path_graph(2)
    floor_spec = replace(spec, algorithm="sssp")
    program_cls, query, _ = wl.make_query(floor_spec, tiny)
    pg = wl.build_partition(tiny)
    reference, _, _ = wl.seq_run(
        Engine(program_cls(), pg, query, vectorized=True))
    run = wl.make_run(floor_spec, pg, program_cls, query)
    wl.timed_run(rec, "warmup", 0, run, reference, 0.0)
    for rep in range(SWEEP_RUNS):
        wl.timed_run(rec, "floor", rep, run, reference, 0.0)
    return median(rec.walls("floor"))


def _mode_sweep(spec, pg, program_cls, query, reference, tolerance,
                rec) -> Dict[str, float]:
    """Does AAP win on a live runtime, and does shm beat the queue?"""
    out = {}
    for label, mode, transport in (("mode.BSP", "BSP", "shm"),
                                   ("mode.AP", "AP", "shm"),
                                   ("mode.SSP", "SSP", "shm"),
                                   ("transport.queue", spec.mode, "queue")):
        run = wl.make_run(spec, pg, program_cls, query, mode=mode,
                          transport=transport)
        for rep in range(SWEEP_RUNS):
            wl.timed_run(rec, label, rep, run, reference, tolerance)
        out[f"runtime.{label}.run_s"] = median(rec.walls(label))
    return out


def _simulated_counts(program_cls, pg, query) -> Dict[str, float]:
    """Deterministic simulator counts on the same partition: these must
    repeat exactly for one seed."""
    out = {}
    for mode in ("AAP", "BSP"):
        engine = Engine(program_cls(), pg, query, vectorized=True)
        result = SimulatedRuntime(engine, make_policy(mode),
                                  record_trace=False).run()
        out[f"runtime.sim.{mode.lower()}_makespan"] = result.time
        if mode == "AAP":
            out["runtime.sim.aap_rounds_max"] = max(result.rounds)
            out["runtime.sim.aap_entries"] = wl.shipped_entries(result)
    return out


def _observed_runs(spec, pg, program_cls, query, reference, tolerance,
                   rec) -> Dict[str, float]:
    """The workload's run with an ``Observer`` attached."""
    events = []
    for rep in range(SWEEP_RUNS):
        observer = Observer()
        run = wl.make_run(spec, pg, program_cls, query, observer=observer)
        wl.timed_run(rec, "observed", rep, run, reference, tolerance)
        events.append(len(observer.log))
    return {"run_s": median(rec.walls("observed")),
            "events": median(events)}


def _idle_ratio(spec: wl.Spec, results: List[Any],
                rows: List[Dict[str, Any]]) -> float:
    """Share of worker-seconds not spent computing.

    Threaded: from the ``busy_time`` the runtime reports.  Multiprocess:
    ``RunResult`` carries no busy time, so from the CPU the run burned
    (master included, poll loops count as busy) against workers x wall.
    """
    if not results:
        return 0.0
    if spec.runtime == "threaded":
        return median([1.0 - r.metrics.total_busy
                       / (wl.FRAGMENTS * r.metrics.makespan)
                       for r in results])
    return median([max(0.0, 1.0 - r["cpu_s"] / (wl.FRAGMENTS * r["wall_s"]))
                   for r in rows])


def _transport_probes() -> Dict[str, float]:
    """Ring against pickle, in-process: one 64-entry batch (latency) and
    one 64k-entry batch (throughput), written, read and released."""
    out = {}
    arena = SlabArena(2, 4 << 20)
    try:
        ring = arena.ring(0, 1)

        def via_ring(batch: MessageBatch) -> float:
            ring.try_write(batch)
            got = ring.poll(0, 1)
            total = float(got[0].payloads.sum())
            ring.release(got[-1].release_end)
            return total

        def via_pickle(batch: MessageBatch) -> float:
            return float(pickle.loads(pickle.dumps(
                batch, pickle.HIGHEST_PROTOCOL)).payloads.sum())

        for size, count in (("small", 64), ("large", 65536)):
            batch = MessageBatch(src=0, dst=1, round=1,
                                 ids=np.arange(count, dtype=np.int64),
                                 payloads=np.ones(count))
            calls = PROBE_CALLS if size == "small" else PROBE_CALLS // 20
            for name, send in (("slab", via_ring), ("queue", via_pickle)):
                if send(batch) != count:
                    raise RuntimeError(f"{name} probe lost entries")
                each = timed(lambda: [send(batch)
                                      for _ in range(calls)]) / calls
                if size == "small":
                    out[f"runtime.{name}.small_us"] = each * 1e6
                else:
                    out[f"runtime.{name}.large_mb_s"] = (
                        batch.size_bytes / each / 1e6)
    finally:
        arena.unlink_all()
    return out


def _delay_probe() -> float:
    """``AAPPolicy.decide`` on synthetic views covering its branches."""
    policy = AAPPolicy()
    views = [WorkerView(wid=i % 2, round=5 + i % 3, eta=i % 4, rmin=5,
                        rmax=7, idle_time=1e-4 * (i % 5), now=0.01 * i,
                        t_pred=1e-3, s_pred=500.0 * (i % 7),
                        fleet_avg_rate=900.0, num_workers=2, num_peers=1,
                        fleet_avg_round_time=1e-3)
             for i in range(PROBE_CALLS)]
    return timed(lambda: [policy.decide(v) for v in views]) \
        / len(views) * 1e6


# -- serve workload ----------------------------------------------------
def trace_serve(graph: Any, seed: int, seconds: float, min_cycles: int,
                rec: wl.Recorder, tracer: Tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    # the service builds its partition and engine itself: time them by
    # shadowing the names its module calls
    tracer.wrap(service_module, "build_edge_cut", "serve.partition")
    tracer.wrap(service_module, "Engine", "serve.engine")
    tracer.wrap(service_module, "grow_edge_cut", "partition.grow")
    try:
        with tracer.span("serve.build"):
            svc = wl.build_service(graph)
        tracer.wrap(svc, "snapshot", "serve.snapshot")
        out["serve.build_s"] = tracer.total("serve.build")
        out["serve.partition_build_s"] = tracer.total("serve.partition")
        out["serve.engine_build_s"] = tracer.total("serve.engine")
        loop = wl.serve_cycles(svc, wl.ServeScript(graph, seed), seconds,
                               min_cycles, rec, span=tracer.span)
        for _ in range(SWEEP_RUNS):
            svc.snapshot(staleness_bound=wl.READ_BOUND)
        out["serve.verify_s"] = wl.verify_service(svc, rec)
    finally:
        tracer.unwrap_all()

    rows = rec.walls
    edges = wl.BATCHES_PER_CYCLE * wl.BATCH_EDGES
    out["partition.grow_us_per_edge"] = (
        tracer.total("partition.grow") * 1e6
        / (edges * len(rows("update"))))
    out["serve.ingest_us"] = median(rows("ingest")) * 1e6
    out["serve.epoch_apply_ms"] = median(rows("pump")) * 1e3
    out["serve.catchup_query_ms"] = median(rows("catchup")) * 1e3
    out["serve.read_us"] = median(rows("read")) * 1e6
    out["serve.updates_per_s"] = edges / median(rows("update"))
    out["serve.read_self_reported_us"] = median(
        loop["self_reported"]) * 1e6
    out["serve.changed_keys_per_epoch"] = svc.obs.metrics.histogram(
        "serve_epoch_changed").mean
    out["serve.cache_hit_rate"] = svc.cache.stats()["hit_rate"]
    out["serve.snapshot_ms"] = median(
        tracer.durations("serve.snapshot")) * 1e3
    out["serve.shed_ratio"] = loop["shed"] / loop["ops"]
    out["obs.serve_events_retained"] = len(svc.obs.log)
    return out


def trace(spec: wl.Spec, seed: int, seconds: float, quick: bool,
          rec: wl.Recorder, tracer: Tracer,
          names: List[str]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The traced pass of one workload: ``(listed, extra)`` metrics."""
    with tracer.span("graph.generate"):
        graph = spec.graph(seed, quick)
    out = {"graph.generate_s": tracer.total("graph.generate"),
           "graph.nodes": graph.num_nodes, "graph.edges": graph.num_edges}
    if spec.kind == "serve":
        out.update(trace_serve(graph, seed, seconds,
                               20 if quick else wl.RSS_CYCLES, rec, tracer))
        # the batch layers on the served graph: what answering by a
        # vectorized recompute costs, the yardstick for an epoch apply
        out.update(trace_batch(spec, graph, 0.0, rec, tracer,
                               unit="recompute"))
    else:
        out.update(trace_batch(spec, graph, seconds, rec, tracer))
    # the times of this pass are as measured; the speed probe beside them
    # says how they compare with the end-to-end pass's nominal seconds
    out["bench.probe_s"] = median(rec.walls("cal"))
    extra = {n: float(v) for n, v in out.items() if n in EXTRA_UNITS}
    listed = {n: float(out[n]) for n in names}
    unknown = sorted(set(out) - set(listed) - set(extra))
    if unknown:
        raise RuntimeError(f"metrics without a declared unit: {unknown}")
    return listed, extra
