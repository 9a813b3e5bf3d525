"""High-level convenience API.

:func:`run` parallelises a PIE program over a graph under a named parallel
model and returns a :class:`~repro.core.result.RunResult`::

    from repro import api
    from repro.algorithms.sssp import SSSPProgram, SSSPQuery
    from repro.graph import generators

    g = generators.grid2d(40, 40, seed=1)
    result = api.run(SSSPProgram(), g, SSSPQuery(source=0),
                     num_fragments=8, mode="AAP")
    print(result.time, result.answer[1599])

:func:`compare_modes` runs the same workload under every model with identical
cost parameters — the paper's GRAPE+ vs GRAPE+BSP/AP/SSP methodology.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Union

from repro.core.delay import DelayPolicy
from repro.core.engine import Engine
from repro.core.modes import MODES, make_policy
from repro.core.pie import PIEProgram
from repro.core.result import RunResult
from repro.errors import RuntimeConfigError
from repro.graph.graph import Graph
from repro.partition.base import EdgePartitioner, NodePartitioner
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import PartitionedGraph
from repro.runtime.costmodel import CostModel
from repro.runtime.simulator import SimulatedRuntime

Partitioner = Union[NodePartitioner, EdgePartitioner]


def partition_graph(graph: Graph, num_fragments: int,
                    partitioner: Optional[Partitioner] = None
                    ) -> PartitionedGraph:
    """Partition ``graph`` with ``partitioner`` (default: hash edge-cut)."""
    strategy = partitioner if partitioner is not None else HashPartitioner()
    return strategy.partition(graph, num_fragments)


def run(program: PIEProgram, graph_or_partition: Union[Graph,
                                                       PartitionedGraph],
        query: Any, *, mode: str = "AAP", num_fragments: int = 4,
        partitioner: Optional[Partitioner] = None,
        policy: Optional[DelayPolicy] = None,
        cost_model: Optional[CostModel] = None,
        hosts: Optional[Sequence[int]] = None,
        staleness_bound: Optional[int] = None,
        observer: Optional[Any] = None,
        vectorized: bool = False,
        perturber: Optional[Any] = None,
        **policy_kwargs: Any) -> RunResult:
    """Parallelise ``program`` on ``graph`` under one parallel model.

    Accepts either a raw :class:`Graph` (partitioned on the fly) or an
    existing :class:`PartitionedGraph`.  ``policy`` overrides ``mode``.
    When the program declares :attr:`PIEProgram.needs_bounded_staleness`
    and no bound is given, its default bound is applied (the paper: CF).
    ``observer`` (a :class:`repro.obs.Observer`) enables structured event
    and metrics recording (the rounds a timing diagram draws included);
    the default ``None`` records nothing.
    ``vectorized`` opts into the dense fast path (see
    ``docs/performance.md``); it silently falls back to the generic path
    when the program or partition does not support it.
    ``perturber`` (a :class:`repro.fuzz.SchedulePerturber`) biases the
    simulated schedule for conformance fuzzing (see
    ``docs/conformance.md``); ``None`` leaves the schedule untouched.
    """
    if isinstance(graph_or_partition, PartitionedGraph):
        pg = graph_or_partition
    elif isinstance(graph_or_partition, Graph):
        pg = partition_graph(graph_or_partition, num_fragments, partitioner)
    else:
        raise RuntimeConfigError(
            f"expected Graph or PartitionedGraph, got "
            f"{type(graph_or_partition).__name__}")
    if staleness_bound is None and program.needs_bounded_staleness:
        staleness_bound = program.default_staleness_bound
    if policy is None:
        policy = make_policy(mode, staleness_bound=staleness_bound,
                             **policy_kwargs)
    engine = Engine(program, pg, query, vectorized=vectorized)
    runtime = SimulatedRuntime(engine, policy, cost_model=cost_model,
                               hosts=hosts, observer=observer,
                               perturber=perturber)
    return runtime.run()


def compare_modes(program_factory, graph_or_partition, query: Any, *,
                  modes: Iterable[str] = MODES,
                  num_fragments: int = 4,
                  partitioner: Optional[Partitioner] = None,
                  cost_model_factory=None,
                  staleness_bound: Optional[int] = None,
                  **policy_kwargs: Any) -> Dict[str, RunResult]:
    """Run the identical workload under several models.

    ``program_factory`` builds a fresh program per run (programs may be
    stateless, but fresh instances keep runs independent);
    ``cost_model_factory`` likewise builds a fresh seeded cost model so each
    mode sees identical timing parameters.
    """
    if isinstance(graph_or_partition, Graph):
        pg = partition_graph(graph_or_partition, num_fragments, partitioner)
    else:
        pg = graph_or_partition
    results: Dict[str, RunResult] = {}
    for mode in modes:
        cm = cost_model_factory() if cost_model_factory is not None else None
        results[mode] = run(
            program_factory(), pg, query, mode=mode,
            cost_model=cm, staleness_bound=staleness_bound,
            **(policy_kwargs if mode.upper() == "AAP" else {}))
    return results
