"""Fig. 6(a)/(b): SSSP response time vs worker count (traffic, Friendster).

Paper's shapes: GRAPE+ (AAP) fastest at every n; time decreases with n
(on average 2.37x faster from 64 to 192 workers); AAP's advantage over BSP
largest on traffic (high diameter).  Workers are scaled 64..192 -> 4..12.
"""

import pytest
from conftest import run_once, series

from repro.bench import workloads
from repro.bench.experiments import FIG6_MODES, run_modes_experiment
from repro.bench.reporting import format_series

WORKERS = (4, 6, 8, 10, 12)


@pytest.mark.parametrize("dataset", ["traffic", "friendster"])
def test_fig6_sssp(benchmark, emit, dataset):
    graph = (workloads.traffic() if dataset == "traffic"
             else workloads.friendster())
    times = run_once(benchmark, run_modes_experiment, "sssp", graph,
                     WORKERS)
    emit(format_series(
        f"Fig 6({'a' if dataset == 'traffic' else 'b'}) - "
        f"SSSP on {dataset}, varying workers (straggler 4x)",
        "workers", WORKERS, times))


@pytest.mark.parametrize("dataset", ["traffic", "friendster"])
def test_fig6_sssp_shape(dataset):
    times = series(f"test_fig6_sssp[{dataset}]")
    aap, bsp = times["AAP"], times["BSP"]
    # AAP never loses to BSP by more than noise, and wins somewhere
    assert all(a <= b * 1.10 for a, b in zip(aap, bsp))
    assert any(a < b for a, b in zip(aap, bsp))
    # parallel speed-up: more workers help AAP on balanced-per-worker data
    assert aap[-1] < aap[0]
    # AAP is the best or within 15% of the best mode at max workers
    best_last = min(times[m][-1] for m in FIG6_MODES)
    assert aap[-1] <= best_last * 1.15
