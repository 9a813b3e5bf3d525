"""Runtimes: deterministic discrete-event simulator and live executors."""

from repro.runtime.costmodel import CostModel
from repro.runtime.detection import (FailureDetector, FailureEvent,
                                     Suspicion)
from repro.runtime.faultplan import (CrashFault, DelayFault, DropFault,
                                     DuplicateFault, FaultInjector,
                                     FaultPlan, InjectedCrash,
                                     StragglerFault)
from repro.runtime.metrics import RunMetrics, WorkerMetrics
from repro.runtime.recovery import RetryPolicy, run_with_recovery
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.snapshot import (ChandyLamportCoordinator,
                                    GlobalSnapshot, LiveCheckpointer,
                                    WorkerSnapshot)

__all__ = ["CostModel", "RunMetrics", "WorkerMetrics", "SimulatedRuntime",
           "FaultPlan", "FaultInjector", "CrashFault", "DropFault",
           "DuplicateFault", "DelayFault", "StragglerFault",
           "InjectedCrash", "FailureDetector", "FailureEvent", "Suspicion",
           "ChandyLamportCoordinator", "GlobalSnapshot", "LiveCheckpointer",
           "WorkerSnapshot", "RetryPolicy", "run_with_recovery"]
