"""Fig. 6(e)/(f): PageRank response time vs worker count (Friendster, UKWeb).

Paper's shapes: GRAPE+ beats BSP/AP/SSP variants by 1.80/1.90/1.25x on
average (stragglers took 50/27/28 rounds under BSP/AP/SSP vs 24 under AAP);
time decreases with n (2.16x on average).
"""

import pytest
from conftest import run_once, series

from repro.bench import workloads
from repro.bench.experiments import run_modes_experiment
from repro.bench.reporting import format_series

WORKERS = (4, 6, 8, 10)


@pytest.mark.parametrize("dataset", ["friendster", "ukweb"])
def test_fig6_pagerank(benchmark, emit, dataset):
    graph = (workloads.friendster() if dataset == "friendster"
             else workloads.ukweb())
    times = run_once(benchmark, run_modes_experiment, "pagerank", graph,
                     WORKERS)
    emit(format_series(
        f"Fig 6({'e' if dataset == 'friendster' else 'f'}) - "
        f"PageRank on {dataset}, varying workers (straggler 4x)",
        "workers", WORKERS, times))


@pytest.mark.parametrize("dataset", ["friendster", "ukweb"])
def test_fig6_pagerank_shape(dataset):
    times = series(f"test_fig6_pagerank[{dataset}]")
    aap = times["AAP"]
    # AAP within 10% of every mode at every point, strictly best somewhere
    for mode in ("BSP", "AP", "SSP"):
        assert all(a <= o * 1.10 for a, o in zip(aap, times[mode])), mode
    assert any(aap[i] < min(times[m][i] for m in ("BSP", "AP", "SSP"))
               for i in range(len(WORKERS)))
