"""Fig. 1 / Examples 1+4: the three-worker CC scenario.

P1, P2 take 3 time units per round, P3 takes 6, messages take 1 unit.
Checks of Example 1's qualitative claims: under BSP every superstep costs
the straggler's 6 units; AP is not blocked but computes redundant rounds;
AAP converges with the straggler doing no more rounds than under BSP and
finishes no later than BSP.
"""

from conftest import run_once, table

from repro import api
from repro.algorithms import CCProgram, CCQuery
from repro.bench.reporting import format_table
from repro.bench.workloads import fig1_cost_model, fig1_partition
from repro.obs import Observer, ascii_gantt


def run_fig1():
    pg = fig1_partition()
    out = {}
    for mode in ("BSP", "AP", "SSP", "AAP"):
        out[mode] = api.run(CCProgram(), pg, CCQuery(), mode=mode,
                            cost_model=fig1_cost_model(),
                            staleness_bound=1 if mode == "SSP" else None,
                            observer=Observer())
    return out


def test_fig1_example(benchmark, emit):
    runs = run_once(benchmark, run_fig1)
    rows = [[mode, r.time, max(r.rounds), r.rounds[2], sum(r.rounds),
             r.metrics.total_messages]
            for mode, r in runs.items()]
    report = [format_table(
        "Fig 1 - CC at three workers (P1,P2: 3 units/round, P3: 6)",
        ["mode", "time", "max rounds", "P3 rounds", "total rounds",
         "messages"], rows)]
    for mode, r in runs.items():
        report.append("")
        report.append(ascii_gantt(r.extras["obs"].log, width=70,
                                  label=f"[{mode}]"))
    emit("\n".join(report))

    for mode, r in runs.items():
        assert set(r.answer.values()) == {0}, mode


def test_fig1_example_shape():
    runs = {r["mode"]: r for r in table("test_fig1_example")}
    # BSP supersteps are gated by P3
    bsp = runs["BSP"]
    assert bsp["time"] >= 6 * (bsp["max rounds"] - 1)
    # AAP finishes no later than BSP, straggler does no more rounds
    assert runs["AAP"]["time"] <= bsp["time"]
    assert runs["AAP"]["P3 rounds"] <= bsp["P3 rounds"]
    # AP runs more total rounds than AAP (redundant stale computation)
    assert runs["AP"]["total rounds"] >= runs["AAP"]["total rounds"]
