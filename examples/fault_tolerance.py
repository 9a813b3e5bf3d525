"""Fault tolerance: Chandy-Lamport checkpoints and recovery (Section 6).

A CC computation is checkpointed mid-run with the token-based snapshot
protocol; the run then "crashes" and a fresh runtime is restored from the
consistent checkpoint (worker states + in-channel messages).  Theorem 2
guarantees the recovered run converges to the same answer.

On the simulator a checkpoint-and-restore is three calls:
``ChandyLamportCoordinator.request_at``, a runtime built with
``snapshot_coordinator=...``, and ``seed_from_snapshot`` on a fresh one.
Live runtimes recover through ``repro.runtime.recovery.run_with_recovery``
(docs/fault_tolerance.md).

Run:  python examples/fault_tolerance.py
"""

from repro.algorithms import CCProgram, CCQuery
from repro.bench import workloads
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.graph import analysis
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.snapshot import ChandyLamportCoordinator


def main() -> None:
    graph = workloads.friendster(scale=0.8, seed=9)
    pg = workloads.partition(graph, 6, seed=9)
    reference = analysis.connected_components(graph)
    print(f"graph: {graph}, 6 workers, AAP\n")

    coord = ChandyLamportCoordinator()
    runtime = SimulatedRuntime(Engine(CCProgram(), pg, CCQuery()),
                               make_policy("AAP"),
                               snapshot_coordinator=coord)
    coord.request_at(runtime, time=2.0)
    result = runtime.run()
    snap = coord.finalize()
    in_channel = sum(len(v) for v in snap.channel_messages.values())
    print(f"checkpoint at t=2.0: {snap.num_workers_recorded} worker states, "
          f"{in_channel} in-channel messages recorded")
    print(f"uninterrupted run finished at t={result.time:.2f}, "
          f"answer correct: {result.answer == reference}")

    # the crash: everything after the checkpoint is lost; a fresh runtime
    # rolls back to it and resumes the incremental phase
    restored = SimulatedRuntime(Engine(CCProgram(), pg, CCQuery()),
                                make_policy("AAP"))
    restored.seed_from_snapshot(snap)
    recovered = restored.run()
    print(f"\ncrash after checkpoint -> rollback -> resume:")
    print(f"recovered run finished at t={recovered.time:.2f} "
          f"(relative to the restored state)")
    print(f"recovered answer correct: {recovered.answer == reference}")
    assert result.answer == reference and recovered.answer == reference


if __name__ == "__main__":
    main()
