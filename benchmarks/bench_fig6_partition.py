"""Fig. 6(k): impact of partition skew r on SSSP.

Paper's shape: the more skewed the partition, the more effective AAP is —
at r=9 AAP beats BSP/AP/SSP by 9.5/2.3/4.9x; at r=1 (balanced) BSP works
well and AAP works as well as BSP.
"""

from conftest import run_once, series

from repro.bench.experiments import run_partition_impact
from repro.bench.reporting import format_series

RATIOS = (1, 3, 5, 7, 9)


def test_fig6_partition_impact(benchmark, emit):
    emit(format_series(
        "Fig 6(k) - SSSP vs partition skew ratio r (no CPU straggler)",
        "skew r", RATIOS, run_once(benchmark, run_partition_impact, RATIOS)))


def test_fig6_partition_impact_shape():
    times = series("test_fig6_partition_impact")
    aap, bsp = times["AAP"], times["BSP"]
    # balanced partition: AAP roughly matches BSP
    assert aap[0] <= bsp[0] * 1.25
    # skewed partitions: AAP ahead of BSP, and the advantage grows with r
    assert aap[-1] < bsp[-1]
    gain_low = bsp[0] / aap[0]
    gain_high = bsp[-1] / aap[-1]
    assert gain_high > gain_low
    # AAP stays within 15% of the best mode at the highest skew
    best = min(values[-1] for values in times.values())
    assert aap[-1] <= best * 1.15
