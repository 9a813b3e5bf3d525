"""Ablations of AAP's design choices (DESIGN.md section 5).

Not a paper figure: these isolate the knobs of the adjustment function
delta (Eq. 1) that the paper motivates qualitatively:

- L⊥ (accumulation floor): 0 makes AAP degenerate toward AP; the paper's
  Appendix B initialises it at 60% of the workers for CF and notes users
  may set it to start stale-computation reduction early.
- the arrival-prediction guard (Example 4's "no messages are predicted to
  arrive within the next time unit" rule), ablated via dt_fraction=0.
- incremental evaluation: IncEval's work on re-deliveries is zero
  (bounded incrementality), ablated by comparing message-batch sizes.
"""

from conftest import run_once, table

from repro import api
from repro.algorithms import SSSPProgram, SSSPQuery
from repro.bench import workloads
from repro.bench.reporting import format_table


def run_l_bottom_ablation():
    graph = workloads.traffic()
    pg = workloads.partition(graph, 8)
    rows = []
    for frac in (0.0, 0.25, 0.5, 1.0):
        r = api.run(SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP",
                    cost_model=workloads.default_cost(straggler=0,
                                                      factor=4.0),
                    l_bottom_fraction=frac)
        rows.append({"l_bottom_fraction": frac, "time": r.time,
                     "total_rounds": sum(r.rounds),
                     "messages": r.metrics.total_messages})
    return rows


def test_ablation_l_bottom(benchmark, emit):
    rows = run_once(benchmark, run_l_bottom_ablation)
    emit(format_table(
        "Ablation - accumulation floor L_bottom (SSSP, traffic, straggler)",
        ["L_bottom fraction", "time", "total rounds", "messages"],
        [[r["l_bottom_fraction"], r["time"], r["total_rounds"],
          r["messages"]] for r in rows]))


def test_ablation_l_bottom_shape():
    rows = table("test_ablation_l_bottom")
    # stronger accumulation -> fewer total rounds (less stale computation)
    assert rows[-1]["total rounds"] < rows[0]["total rounds"]
    # and the default (1.0) must not be slower than the AP-like setting
    assert rows[-1]["time"] <= rows[0]["time"] * 1.10


def run_window_ablation():
    graph = workloads.friendster()
    pg = workloads.partition(graph, 8)
    rows = []
    for dt in (0.0, 0.25, 0.5, 1.0):
        r = api.run(SSSPProgram(), pg, SSSPQuery(source=0), mode="AAP",
                    cost_model=workloads.default_cost(straggler=0,
                                                      factor=4.0),
                    dt_fraction=dt)
        rows.append({"dt_fraction": dt, "time": r.time,
                     "suspended": r.metrics.total_suspended,
                     "messages": r.metrics.total_messages})
    return rows


def test_ablation_accumulation_window(benchmark, emit):
    rows = run_once(benchmark, run_window_ablation)
    emit(format_table(
        "Ablation - accumulation window dt (SSSP, friendster, straggler)",
        ["dt fraction", "time", "suspended time", "messages"],
        [[r["dt_fraction"], r["time"], r["suspended"], r["messages"]]
         for r in rows]))


def test_ablation_accumulation_window_shape():
    rows = table("test_ablation_accumulation_window")
    # a zero window disables waiting entirely
    assert rows[0]["suspended time"] == min(r["suspended time"]
                                            for r in rows)


def run_virtual_workers():
    """The paper's setting has m virtual workers on n < m physical workers
    sharing resources; a suspended virtual worker's host is handed to the
    next runnable one.  Compare 16 virtual workers on 16 vs 4 hosts."""
    graph = workloads.friendster()
    pg = workloads.partition(graph, 16)
    rows = []
    for hosts_desc, hosts in (("16 (dedicated)", None),
                              ("8 (2 per host)", [w // 2 for w in range(16)]),
                              ("4 (4 per host)", [w // 4 for w in range(16)])):
        row = {"hosts": hosts_desc}
        for mode in ("AAP", "BSP"):
            r = api.run(SSSPProgram(), pg, SSSPQuery(source=0), mode=mode,
                        cost_model=workloads.default_cost(seed=1),
                        hosts=hosts)
            row[mode] = r.time
        rows.append(row)
    return rows


def test_ablation_virtual_workers(benchmark, emit):
    rows = run_once(benchmark, run_virtual_workers)
    emit(format_table(
        "Ablation - m=16 virtual workers on n physical hosts (SSSP)",
        ["hosts", "AAP time", "BSP time"],
        [[r["hosts"], r["AAP"], r["BSP"]] for r in rows]))


def test_ablation_virtual_workers_shape():
    rows = table("test_ablation_virtual_workers")
    # fewer hosts -> serialised rounds -> slower, for both models
    assert rows[-1]["AAP time"] > rows[0]["AAP time"]
    assert rows[-1]["BSP time"] > rows[0]["BSP time"]
    # AAP keeps its edge (or parity) under host sharing
    assert rows[-1]["AAP time"] <= rows[-1]["BSP time"] * 1.10


def run_latency_sensitivity():
    graph = workloads.friendster()
    pg = workloads.partition(graph, 8)
    rows = []
    for latency in (0.05, 0.25, 1.0, 3.0):
        res = api.compare_modes(
            SSSPProgram, pg, SSSPQuery(source=0), modes=("AAP", "BSP"),
            cost_model_factory=lambda lat=latency: workloads.default_cost(
                straggler=0, factor=4.0).__class__(
                alpha=1.0, beta=0.002, speed={0: 4.0}, latency=lat,
                msg_cost=0.05, send_cost=0.02, seed=1))
        rows.append({"latency": latency, "AAP": res["AAP"].time,
                     "BSP": res["BSP"].time})
    return rows


def test_ablation_latency(benchmark, emit):
    rows = run_once(benchmark, run_latency_sensitivity)
    emit(format_table(
        "Ablation - network latency sensitivity (SSSP, friendster)",
        ["latency", "AAP time", "BSP time"],
        [[r["latency"], r["AAP"], r["BSP"]] for r in rows]))


def test_ablation_latency_shape():
    rows = table("test_ablation_latency")
    # both models get slower as latency rises
    assert rows[-1]["AAP time"] > rows[0]["AAP time"]
    assert rows[-1]["BSP time"] > rows[0]["BSP time"]
