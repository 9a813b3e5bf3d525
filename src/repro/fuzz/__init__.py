"""Conformance: one cell, one runner, one verdict (``repro fuzz``).

Theorem 2 of the paper promises that *any* schedule converges to the
same answer.  :mod:`repro.fuzz.cell` holds a run to it: a serializable
:class:`Cell`, :func:`run_cell` and its :class:`Verdict`, the seeded fuzz
cases and the named grids.  :mod:`repro.fuzz.perturb` biases the
simulator's schedule from a seed, :mod:`repro.fuzz.oracles` checks the
event stream online, and :mod:`repro.fuzz.shrink` runs lists of cells,
minimizes failing ones and writes replayable artifacts.  See
``docs/conformance.md``.
"""

from repro.fuzz.cell import (ALGORITHMS, FUZZ_ALGORITHMS, GRIDS, RUNTIMES,
                             Cell, Verdict, build_graph, case_from_seed,
                             compare, format_report, run_cell, tolerance)
from repro.fuzz.oracles import (BoundsOracle, CheckingLog, ContractionProbe,
                                LedgerOracle, OracleSuite, OracleViolation,
                                WakeGateOracle)
from repro.fuzz.perturb import PerturberConfig, SchedulePerturber
from repro.fuzz.shrink import (ShrinkResult, load_artifact, replay_artifact,
                               run_grid, save_artifact, shrink)

__all__ = [
    "Cell", "Verdict", "run_cell", "case_from_seed", "build_graph",
    "compare", "tolerance", "format_report", "GRIDS", "ALGORITHMS",
    "FUZZ_ALGORITHMS", "RUNTIMES",
    "SchedulePerturber", "PerturberConfig",
    "OracleSuite", "OracleViolation", "BoundsOracle", "LedgerOracle",
    "WakeGateOracle", "ContractionProbe", "CheckingLog",
    "shrink", "ShrinkResult", "save_artifact", "load_artifact",
    "replay_artifact", "run_grid",
]
