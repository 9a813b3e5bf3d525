"""Fig. 6(l): AAP speedup on the large synthetic graph with many workers.

Paper's shape: on the 10B-edge synthetic graphs with 192..320 workers, AAP
is on average 4.3/14.7/4.7x faster than BSP/AP/SSP — the advantage is larger
than on the small real-life graphs because stragglers and stale computation
are heavier at scale.
"""

from conftest import run_once, series

from repro.bench.experiments import run_largescale
from repro.bench.reporting import format_series

WORKERS = (8, 12, 16)


def test_fig6_largescale(benchmark, emit):
    emit(format_series(
        "Fig 6(l) - PageRank on the large synthetic graph (skew 3, "
        "straggler 3x)", "workers", WORKERS,
        run_once(benchmark, run_largescale, WORKERS)))


def test_fig6_largescale_shape():
    times = series("test_fig6_largescale")
    aap = times["AAP"]
    for mode in ("BSP", "AP", "SSP"):
        # AAP is at least as good as every other model on aggregate
        assert sum(aap) <= sum(times[mode]) * 1.05, mode
    # and strictly better than the barrier models
    assert sum(aap) < sum(times["BSP"])
