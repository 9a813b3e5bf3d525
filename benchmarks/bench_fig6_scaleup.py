"""Fig. 6(i)/(j): scale-up of SSSP and PageRank.

Graph size and worker count grow proportionally; the paper reports a
"reasonable scale-up": the time ratio vs the smallest configuration stays
bounded (their plots stay within ~1.2 of flat).
"""

import pytest
from conftest import run_once, series

from repro.bench.experiments import run_scaleup
from repro.bench.reporting import format_series

WORKERS = (4, 8, 12, 16)


@pytest.mark.parametrize("algorithm", ["sssp", "pagerank"])
def test_fig6_scaleup(benchmark, emit, algorithm):
    data = run_once(benchmark, run_scaleup, algorithm, WORKERS)
    emit(format_series(
        f"Fig 6({'i' if algorithm == 'sssp' else 'j'}) - "
        f"scale-up of {algorithm} under AAP (graph grows with workers)",
        "workers", data["workers"],
        {"time": data["time"], "ratio": data["ratio"]}))


@pytest.mark.parametrize("algorithm", ["sssp", "pagerank"])
def test_fig6_scaleup_shape(algorithm):
    ratios = series(f"test_fig6_scaleup[{algorithm}]")["ratio"]
    # reasonable scale-up: 4x data on 4x workers costs < 3x time
    assert all(r < 3.0 for r in ratios)
