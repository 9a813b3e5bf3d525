"""Delay-stretch policies: the heart of the AAP model.

Each (virtual) worker ``P_i`` maintains a *delay stretch* ``DS_i``: after
finishing a round, the worker is put on hold for ``DS_i`` time to accumulate
updates before starting the next round (Section 3).  A
:class:`DelayPolicy` computes ``DS_i`` from the worker's snapshot
(:class:`WorkerView`).  The runtime re-evaluates the policy whenever the
worker's state changes (round completion, message arrival, progress of other
workers), as the paper prescribes.

BSP, AP and SSP are special cases (paper, "Special cases"):

====  =====================================================================
BSP   ``DS_i = 0`` — the barrier is the step's strict superstep rule.
AP    ``DS_i = 0`` always — run as soon as the buffer is non-empty.
SSP   ``DS_i = +inf`` if ``r_i > r_min + c`` else ``0`` — bounded staleness.
AAP   Eq. (1): dynamic ``DS_i`` from staleness ``eta_i``, target ``L_i``,
      predicted round time ``t_i`` and arrival rate ``s_i``.
====  =====================================================================

``r_min``/``r_max`` are computed over workers that still have pending work
(suspended-or-runnable); finished workers do not pin the bound, which keeps
the emulation deadlock-free while preserving barrier semantics among workers
that actually participate.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import RuntimeConfigError

INF = math.inf


@dataclass
class WorkerView:
    """Read-only snapshot of one worker's progress handed to a policy."""

    wid: int
    #: rounds completed at this worker (PEval is round 0)
    round: int
    #: staleness eta_i: message batches currently buffered
    eta: int
    #: smallest round among workers with pending work
    rmin: int
    #: largest round among workers with pending work
    rmax: int
    #: time this worker has already been idle since its last round
    idle_time: float
    #: current (simulated or wall-clock) time
    now: float
    #: predicted duration t_i of the next round
    t_pred: float
    #: predicted message arrival rate s_i at this worker
    s_pred: float
    #: average arrival rate across the fleet
    fleet_avg_rate: float
    #: number of (virtual) workers m
    num_workers: int
    #: number of fragments that can send messages to this worker
    num_peers: int = 1
    #: average predicted round time across the fleet
    fleet_avg_round_time: float = 1.0


class DelayPolicy(abc.ABC):
    """Computes the delay stretch ``DS_i`` for a worker snapshot.

    A policy instance is shared by all workers of one run, so stateful
    policies (Hsync) can coordinate globally.
    """

    name = "policy"
    #: whether the step runs strict supersteps (BSP) under this policy
    supersteps = False

    @abc.abstractmethod
    def delay(self, view: WorkerView) -> float:
        """Return ``DS_i`` in time units; ``math.inf`` means "suspend until
        the next state change re-evaluates the policy"."""

    def decide(self, view: WorkerView) -> Tuple[float, Dict[str, Any]]:
        """``DS_i`` plus the decision's audit details.

        The observability layer records these as ``ds_decision`` events
        ("why did worker *i* wait?").  The default wraps :meth:`delay`;
        policies with interesting internals (AAP) override it, and their
        :meth:`delay` must return exactly ``decide(view)[0]`` so attaching
        an observer never changes scheduling.
        """
        return self.delay(view), {}

    def on_round_complete(self, view: WorkerView, duration: float) -> None:
        """Hook invoked when any worker finishes a round (for Hsync)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class APPolicy(DelayPolicy):
    """Asynchronous Parallel: never wait (``DS_i = 0``)."""

    name = "AP"

    def delay(self, view: WorkerView) -> float:
        return 0.0


class BSPPolicy(DelayPolicy):
    """Bulk Synchronous Parallel: the step's supersteps are the barrier."""

    name = "BSP"
    supersteps = True

    def delay(self, view: WorkerView) -> float:
        return 0.0


class SSPPolicy(DelayPolicy):
    """Stale Synchronous Parallel with fixed staleness bound ``c``."""

    name = "SSP"

    def __init__(self, staleness_bound: int = 1):
        if staleness_bound < 0:
            raise RuntimeConfigError("staleness_bound must be >= 0")
        self.staleness_bound = staleness_bound

    def delay(self, view: WorkerView) -> float:
        return 0.0 if view.round <= view.rmin + self.staleness_bound else INF

    def __repr__(self) -> str:
        return f"SSPPolicy(c={self.staleness_bound})"


class AAPPolicy(DelayPolicy):
    """Adaptive Asynchronous Parallel: Eq. (1) of the paper.

    ::

        DS_i = +inf              if not S(r_i, rmin, rmax) or eta_i = 0
        DS_i = T_L - T_idle      if S and 1 <= eta_i < L_i
        DS_i = 0                 if S and eta_i >= L_i

    where ``L_i`` predicts how many messages to accumulate: when the arrival
    rate ``s_i`` is above the fleet average, ``L_i = max(eta_i, L_bottom) +
    dt * s_i`` with ``dt`` a fraction of the predicted round time ``t_i``; and
    ``T_L = (L_i - eta_i) / s_i`` estimates the remaining wait.  ``T_idle``
    (time already idled) prevents indefinite waiting.

    Parameters
    ----------
    l_bottom:
        The user-settable uniform bound L⊥ (Appendix B initialises it to 60%
        of the workers for CF).  Absolute number of message batches.
    l_bottom_fraction:
        Alternative to ``l_bottom`` as a fraction of the worker's potential
        *senders* (its fragment neighbours); the effective bound is the max
        of both.  This is what groups fast workers into implicit BSP rounds.
    dt_fraction:
        The fraction of ``t_i`` used as the accumulation window ``dt``.
    wait_cap_fraction:
        Upper bound on any computed wait, as a multiple of the predicted
        round time ``t_i`` — stragglers may hold up to one of their (long)
        rounds to accumulate, fast workers only a short time.  Guards against
        stale arrival-rate estimates in the endgame.
    staleness_bound:
        Optional bound ``c``; when set, the predicate ``S`` is false whenever
        the worker is the fastest and exceeds ``r_min`` by more than ``c``
        (bounded staleness for CF-like programs).
    predicate:
        Full override of ``S(r_i, rmin, rmax)``.
    """

    name = "AAP"

    def __init__(self, l_bottom: int = 0, l_bottom_fraction: float = 1.0,
                 dt_fraction: float = 0.5, wait_cap_fraction: float = 1.0,
                 staleness_bound: Optional[int] = None,
                 predicate: Optional[Callable[[int, int, int], bool]] = None):
        if l_bottom < 0 or not 0.0 <= l_bottom_fraction <= 1.0:
            raise RuntimeConfigError("invalid L_bottom configuration")
        if dt_fraction < 0 or wait_cap_fraction < 0:
            raise RuntimeConfigError("dt/wait_cap fractions must be >= 0")
        self.l_bottom = l_bottom
        self.l_bottom_fraction = l_bottom_fraction
        self.dt_fraction = dt_fraction
        self.wait_cap_fraction = wait_cap_fraction
        self.staleness_bound = staleness_bound
        self.predicate = predicate

    def _s_predicate(self, r: int, rmin: int, rmax: int) -> bool:
        if self.predicate is not None:
            return self.predicate(r, rmin, rmax)
        if self.staleness_bound is None:
            return True
        return not (r >= rmax and r - rmin > self.staleness_bound)

    def effective_l_bottom(self, num_peers: int) -> float:
        """L⊥ adjusted with the number of potential senders."""
        return max(float(self.l_bottom),
                   self.l_bottom_fraction * max(num_peers, 1))

    def delay(self, view: WorkerView) -> float:
        return self.decide(view)[0]

    def decide(self, view: WorkerView) -> Tuple[float, Dict[str, Any]]:
        if not self._s_predicate(view.round, view.rmin, view.rmax):
            return INF, {"reason": "predicate_false"}
        if view.eta == 0:
            return INF, {"reason": "empty_buffer"}
        l_bottom = self.effective_l_bottom(view.num_peers)
        s = view.s_pred
        target = l_bottom
        # the accumulation window: a fraction of one fleet-typical round,
        # i.e. long enough to catch the fast workers' next burst but never
        # scaled by this worker's own (possibly straggling) round time
        window = self.dt_fraction * min(view.t_pred,
                                        view.fleet_avg_round_time)
        if s > 0 and not math.isinf(s) and s > view.fleet_avg_rate:
            target = max(view.eta, l_bottom) + window * s
        why = {"l_bottom": l_bottom, "target": target, "window": window}
        if view.eta >= target:
            return 0.0, {"reason": "target_met", **why}
        if s <= 0.0 or math.isinf(s):
            # no (finite) arrival estimate: do not hold the worker hostage
            return 0.0, {"reason": "no_arrival_estimate", **why}
        if s * window < 1.0:
            # Example 4's rule: no messages are predicted to arrive within
            # the accumulation window, so waiting cannot pay off
            return 0.0, {"reason": "window_below_one_message", **why}
        t_wait = (target - view.eta) / s
        t_wait = min(t_wait, self.wait_cap_fraction
                     * min(view.t_pred, view.fleet_avg_round_time))
        return max(t_wait - view.idle_time, 0.0), \
            {"reason": "accumulate", **why}

    def __repr__(self) -> str:
        return (f"AAPPolicy(L_bottom={self.l_bottom}, "
                f"frac={self.l_bottom_fraction}, dt={self.dt_fraction}, "
                f"c={self.staleness_bound})")


class HsyncPolicy(DelayPolicy):
    """PowerSwitch-style Hsync: globally switch between AP and BSP.

    The published heuristic predicts throughput under both modes; we use the
    observable proxies the prediction is built from: in **BSP** mode, a high
    straggler ratio (slowest/mean round time) argues for AP; in **AP** mode,
    high average staleness at trigger time (many superseded message batches)
    argues for BSP.  Each switch costs ``switch_cost`` time units, paid by
    every worker on its next round — the explicit cost AAP avoids.
    """

    name = "Hsync"

    def __init__(self, straggler_threshold: float = 2.0,
                 staleness_threshold: float = 3.0,
                 window: int = 8, switch_cost: float = 1.0):
        self.straggler_threshold = straggler_threshold
        self.staleness_threshold = staleness_threshold
        self.window = window
        self.switch_cost = switch_cost
        self.mode = "AP"
        self.switches = 0
        self._durations = []
        self._etas = []
        self._paid = {}

    def on_round_complete(self, view: WorkerView, duration: float) -> None:
        self._durations.append(duration)
        self._etas.append(view.eta)
        if len(self._durations) >= self.window:
            self._maybe_switch()
            self._durations.clear()
            self._etas.clear()

    def _maybe_switch(self) -> None:
        mean_dur = sum(self._durations) / len(self._durations)
        straggle = (max(self._durations) / mean_dur) if mean_dur > 0 else 1.0
        mean_eta = sum(self._etas) / len(self._etas)
        if self.mode == "BSP" and straggle > self.straggler_threshold:
            self._switch("AP")
        elif self.mode == "AP" and mean_eta > self.staleness_threshold:
            self._switch("BSP")

    def _switch(self, mode: str) -> None:
        self.mode = mode
        self.switches += 1

    def delay(self, view: WorkerView) -> float:
        if self.mode == "BSP":
            base = 0.0 if view.round <= view.rmin else INF
        else:
            base = 0.0
        if math.isinf(base):
            # a worker blocked at the barrier has not paid anything yet;
            # it must still be charged when it is eventually released
            return base
        penalty = 0.0
        if self.switches and self._paid.get(view.wid) != self.switches:
            # each worker pays the switching cost once per switch, on the
            # same decision that actually adds the penalty
            self._paid[view.wid] = self.switches
            penalty = self.switch_cost
        return base + penalty

    def __repr__(self) -> str:
        return f"HsyncPolicy(mode={self.mode!r}, switches={self.switches})"
