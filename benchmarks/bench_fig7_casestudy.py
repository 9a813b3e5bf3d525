"""Appendix B: the PageRank and CF case studies.

(1) PageRank with one straggler among the workers: timing diagrams under
BSP/AP/SSP/AAP.  Paper's findings: BSP dominated by the straggler with
idle fast workers (174s); AP reduces idling but fast workers churn (166s);
SSP degrades to BSP once the c budget is spent (145s); AAP adapts delay
stretches, the straggler converges in fewer rounds, fastest run (112s).

(2) CF: BSP converges in the fewest rounds but idles; AP takes the most
rounds; SSP needs a hand-tuned c; AAP is robust to the choice of c.
"""

from conftest import run_once, table

from repro.bench.experiments import run_cf_casestudy, run_fig7_casestudy
from repro.bench.reporting import format_table
from repro.obs import ascii_gantt


def test_fig7_pagerank_straggler(benchmark, emit):
    runs = run_once(benchmark, run_fig7_casestudy, 8)
    rows = [[mode, d["time"], d["straggler_rounds"], d["idle"]]
            for mode, d in runs.items()]
    report = [format_table(
        "Fig 7 - PageRank with straggler P0 (4x slower), 8 workers",
        ["mode", "time", "straggler rounds", "total idle"], rows)]
    for mode, d in runs.items():
        report.append("")
        report.append(ascii_gantt(d["log"], width=70, label=f"[{mode}]"))
    emit("\n".join(report))


def test_fig7_pagerank_straggler_shape():
    runs = {r["mode"]: r for r in table("test_fig7_pagerank_straggler")}
    aap, rounds = runs["AAP"], "straggler rounds"
    # AAP fastest of the four models
    assert aap["time"] <= min(r["time"] for m, r in runs.items()
                              if m != "AAP") * 1.02
    # the straggler needs under half the rounds it needs under the barrier
    # models, and within 10% of AP's, whose straggler never waits: AAP
    # holds it only while its arrival-rate predictor expects messages,
    # and in the endgame none are coming (EXPERIMENTS.md, Appendix B)
    assert 2 * aap[rounds] < min(runs["BSP"][rounds], runs["SSP"][rounds])
    assert aap[rounds] <= 1.10 * runs["AP"][rounds]
    # BSP idles the most
    assert runs["BSP"]["total idle"] >= aap["total idle"]


def test_appendixB_cf_staleness(benchmark, emit):
    rows = run_once(benchmark, run_cf_casestudy, 6)
    emit(format_table(
        "Appendix B - CF under the four models, varying staleness bound c",
        ["mode", "c", "time", "rounds", "rmse"],
        [[r["mode"], r["c"], r["time"], r["rounds"], r["rmse"]]
         for r in rows]))


def test_appendixB_cf_staleness_shape():
    rows = table("test_appendixB_cf_staleness")
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r["mode"], []).append(r)
    # BSP converges in the fewest rounds; AP takes the most
    assert max(r["rounds"] for r in by_mode["BSP"]) <= \
        min(r["rounds"] for r in by_mode["AP"])
    # AAP is robust to c: its times vary less than SSP's across c
    aap_times = [r["time"] for r in by_mode["AAP"]]
    ssp_times = [r["time"] for r in by_mode["SSP"]]
    aap_spread = max(aap_times) / min(aap_times)
    ssp_spread = max(ssp_times) / min(ssp_times)
    assert aap_spread <= ssp_spread * 1.25
    # every configuration actually learns something
    assert all(r["rmse"] < 0.6 for r in rows)
