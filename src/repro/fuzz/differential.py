"""Differential conformance: one workload across the whole grid.

Theorem 2 (Church-Rosser) says every run of a well-formed PIE program —
under any of the five parallel models, on any runtime, through either
execution path — assembles the same answer.  :func:`run_differential`
turns that into an executable check: it runs one (algorithm, graph,
partition) across ``modes x runtimes x paths`` and compares every
assembled answer against a sequential-fixpoint reference.

Comparison reuses the kernel bench's tolerance machinery
(:func:`repro.bench.kernels._make_workload` /
:func:`~repro.bench.kernels._answers_match`): SSSP and CC must match
exactly, accumulative PageRank within the shipping-threshold residual.

BSP on the multiprocess runtime is the one cell whose *schedule* is a
function of the input too: a master-driven superstep consumes exactly
the previous superstep's messages.  That cell is run
:data:`BSP_REPEATS` times, and every run's per-worker rounds, messages
and bytes shipped must equal :func:`bsp_schedule`'s — the strict
superstep execution of the same engine on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.kernels import (ALGORITHMS, RUNTIMES, _answers_match,
                                 _make_workload, _run_result)
from repro.core.engine import Engine
from repro.core.fixpoint import ScheduledExecutor, run_sequential_fixpoint
from repro.core.modes import MODES
from repro.graph.graph import Graph
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import PartitionedGraph

#: generic first: its cell failing makes the vectorized diff easier to read
PATHS = (False, True)
#: runs of the multiprocess BSP cell; each must repeat the schedule
BSP_REPEATS = 5

#: (rounds per worker, messages shipped, bytes shipped)
Schedule = Tuple[Tuple[int, ...], int, int]


@dataclass
class DiffCell:
    """One grid cell's verdict."""

    algorithm: str
    mode: str
    runtime: str
    vectorized: bool
    match: bool
    max_diff: float = 0.0
    error: str = ""
    #: what the run did to get there (``None`` when it raised)
    schedule: Optional[Schedule] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"algorithm": self.algorithm, "mode": self.mode,
                "runtime": self.runtime, "vectorized": self.vectorized,
                "match": self.match, "max_diff": self.max_diff,
                "error": self.error, "schedule": self.schedule}

    @property
    def label(self) -> str:
        path = "vectorized" if self.vectorized else "generic"
        return f"{self.algorithm}/{self.mode}/{self.runtime}/{path}"


@dataclass
class DiffReport:
    """All cells of one differential sweep."""

    cells: List[DiffCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.match for c in self.cells)

    @property
    def failures(self) -> List[DiffCell]:
        return [c for c in self.cells if not c.match]

    def to_dict(self) -> Dict[str, Any]:
        return {"ok": self.ok,
                "cells": [c.to_dict() for c in self.cells]}


def reference_answer(program_cls, pg: PartitionedGraph, query: Any) -> Any:
    """The sequential-fixpoint answer every grid cell must reproduce."""
    return run_sequential_fixpoint(Engine(program_cls(), pg, query))


def schedule_of(result: Any) -> Schedule:
    """What a finished run did: rounds per worker and traffic shipped."""
    m = result.metrics
    return tuple(result.rounds), m.total_messages, m.total_bytes


def bsp_schedule(program_cls, pg: PartitionedGraph, query: Any,
                 vectorized: bool) -> Schedule:
    """The schedule BSP has on this input: every worker with mail runs
    one round per superstep, on the previous superstep's messages."""
    ex = ScheduledExecutor(Engine(program_cls(), pg, query,
                                  vectorized=vectorized))
    ex.run_supersteps()
    return tuple(ex.rounds), ex.total_messages, ex.total_bytes


def run_differential(graph: Graph, *,
                     pg: Optional[PartitionedGraph] = None,
                     fragments: int = 4,
                     algorithms: Sequence[str] = ALGORITHMS,
                     modes: Sequence[str] = MODES,
                     runtimes: Sequence[str] = RUNTIMES,
                     paths: Sequence[bool] = PATHS,
                     timeout: float = 120.0,
                     progress=None) -> DiffReport:
    """Sweep the conformance grid; every cell vs the sequential reference.

    A cell that raises is recorded as a non-match with the exception text
    (a crash is a conformance failure too — the shrinker minimizes those
    the same way).  ``progress`` (optional callable) gets one line per
    finished cell.
    """
    if pg is None:
        pg = HashPartitioner().partition(graph, fragments)
    report = DiffReport()
    for algorithm in algorithms:
        program_cls, query, tolerance = _make_workload(algorithm, graph)
        reference = reference_answer(program_cls, pg, query)
        for mode in modes:
            for runtime in runtimes:
                for vectorized in paths:
                    pinned = (bsp_schedule(program_cls, pg, query,
                                           vectorized)
                              if (mode, runtime) == ("BSP", "multiprocess")
                              else None)
                    cell = _run_cell(algorithm, program_cls, pg, query,
                                     tolerance, reference, mode, runtime,
                                     vectorized, timeout, pinned)
                    report.cells.append(cell)
                    if progress is not None:
                        verdict = ("ok" if cell.match else
                                   f"MISMATCH ({cell.error or cell.max_diff})")
                        progress(f"{cell.label}: {verdict}")
    return report


def _run_cell(algorithm: str, program_cls, pg: PartitionedGraph, query: Any,
              tolerance: float, reference: Any, mode: str, runtime: str,
              vectorized: bool, timeout: float,
              pinned: Optional[Schedule] = None) -> DiffCell:
    """One cell; with a ``pinned`` schedule, :data:`BSP_REPEATS` runs
    that must each reproduce it."""
    cell = DiffCell(algorithm=algorithm, mode=mode, runtime=runtime,
                    vectorized=vectorized, match=True)
    for _ in range(BSP_REPEATS if pinned is not None else 1):
        try:
            result = _run_result(runtime, program_cls, pg, query, mode,
                                 vectorized, timeout)
        except Exception as exc:
            cell.match = False
            cell.max_diff = float("inf")
            cell.error = f"{type(exc).__name__}: {exc}"
            break
        cell.schedule = schedule_of(result)
        ok, worst = _answers_match(reference, result.answer, tolerance)
        cell.max_diff = max(cell.max_diff, worst)
        if ok and pinned is not None and cell.schedule != pinned:
            ok = False
            cell.error = (f"schedule {cell.schedule} is not the strict "
                          f"superstep schedule {pinned}")
        if not ok:
            cell.match = False
            break
    return cell


def format_report(report: DiffReport) -> str:
    """Human-readable summary; failures first."""
    lines = []
    for cell in report.failures:
        detail = cell.error or f"max_diff={cell.max_diff}"
        lines.append(f"MISMATCH {cell.label}: {detail}")
    lines.append(f"{len(report.cells) - len(report.failures)}/"
                 f"{len(report.cells)} cells match")
    return "\n".join(lines)
