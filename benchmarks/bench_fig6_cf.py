"""Fig. 6(g)/(h): CF training time vs worker count (movieLens, Netflix).

Paper's shapes: GRAPE+ beats BSP/AP/SSP by 1.38/1.80/1.26x on average;
CF requires bounded staleness (c) for SSP and AAP.
"""

import pytest
from conftest import run_once, series

from repro.bench import workloads
from repro.bench.experiments import run_modes_experiment
from repro.bench.reporting import format_series

WORKERS = (3, 4, 6, 8)


@pytest.mark.parametrize("dataset", ["movielens", "netflix"])
def test_fig6_cf(benchmark, emit, dataset):
    graph, _, _ = (workloads.movielens() if dataset == "movielens"
                   else workloads.netflix())
    times = run_once(benchmark, run_modes_experiment, "cf", graph, WORKERS,
                     straggler_factor=3.0)
    emit(format_series(
        f"Fig 6({'g' if dataset == 'movielens' else 'h'}) - "
        f"CF on {dataset}, varying workers (straggler 3x)",
        "workers", WORKERS, times))


@pytest.mark.parametrize("dataset", ["movielens", "netflix"])
def test_fig6_cf_shape(dataset):
    times = series(f"test_fig6_cf[{dataset}]")
    aap, bsp = times["AAP"], times["BSP"]
    # AAP does not lose to the barrier model under a straggler
    assert sum(aap) <= sum(bsp) * 1.10
