"""Tests for seeded deterministic fault plans."""

import pytest

from repro.core.messages import Message
from repro.errors import RuntimeConfigError
from repro.runtime.faultplan import (CrashFault, DelayFault, DropFault,
                                     DuplicateFault, FaultPlan,
                                     StragglerFault)


def msg(src=0, dst=1, round=0):
    return Message(src=src, dst=dst, round=round, entries=(("x", 1),))


def verdicts(plan, n=200):
    """One injector pass over ``n`` messages -> list of (count, delays)."""
    inj = plan.injector()
    out = []
    for i in range(n):
        deliveries = inj.on_send(msg(src=i % 3, dst=(i + 1) % 3))
        out.append((len(deliveries), tuple(d for _, d in deliveries)))
    return out


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        plan = FaultPlan(seed=7, faults=(
            DropFault(rate=0.2), DuplicateFault(rate=0.2),
            DelayFault(rate=0.3, delay=0.01)))
        assert verdicts(plan) == verdicts(plan)

    def test_different_seed_different_verdicts(self):
        a = FaultPlan(seed=1, faults=(DropFault(rate=0.5),))
        b = FaultPlan(seed=2, faults=(DropFault(rate=0.5),))
        assert verdicts(a) != verdicts(b)

    def test_verdict_depends_on_channel_not_shared_state(self):
        # the decision for (src, dst, index) is a pure hash: interleaving
        # sends on other channels must not perturb it
        plan = FaultPlan(seed=3, faults=(DropFault(rate=0.5),))
        solo = plan.injector()
        alone = [len(solo.on_send(msg(src=0, dst=1))) for _ in range(50)]
        mixed_inj = plan.injector()
        mixed = []
        for _ in range(50):
            mixed_inj.on_send(msg(src=2, dst=0))  # unrelated traffic
            mixed.append(len(mixed_inj.on_send(msg(src=0, dst=1))))
        assert alone == mixed


class TestActions:
    def test_drop_removes_message(self):
        inj = FaultPlan(seed=0, faults=(DropFault(rate=1.0),)).injector()
        assert inj.on_send(msg()) == []

    def test_duplicate_doubles_message(self):
        inj = FaultPlan(seed=0,
                        faults=(DuplicateFault(rate=1.0),)).injector()
        deliveries = inj.on_send(msg())
        assert len(deliveries) == 2

    def test_delay_attaches_positive_delay(self):
        inj = FaultPlan(seed=0, faults=(
            DelayFault(rate=1.0, delay=0.25),)).injector()
        [(m, delay)] = inj.on_send(msg())
        assert delay == pytest.approx(0.25)

    def test_no_faults_passthrough(self):
        inj = FaultPlan(seed=0, faults=()).injector()
        m = msg()
        assert inj.on_send(m) == [(m, 0.0)]

    def test_crash_due_fires_once(self):
        inj = FaultPlan(seed=0, faults=(
            CrashFault(wid=1, at_round=3),)).injector()
        assert not inj.crash_due(1, 2)
        assert inj.crash_due(1, 3)
        assert not inj.crash_due(1, 3)  # once-semantics
        assert not inj.crash_due(0, 3)  # other workers unaffected

    def test_straggler_slowdown(self):
        inj = FaultPlan(seed=0, faults=(
            StragglerFault(wid=2, factor=3.0),)).injector()
        assert inj.round_slowdown(2, 0.1) == pytest.approx(0.2)
        assert inj.round_slowdown(0, 0.1) == 0.0


class TestValidation:
    @pytest.mark.parametrize("fault", [
        lambda: DropFault(rate=1.5),
        lambda: DuplicateFault(rate=-0.1),
        lambda: DelayFault(rate=0.5, delay=-1.0),
        lambda: StragglerFault(wid=0, factor=0.5),
        lambda: CrashFault(wid=-1, at_round=1),
    ])
    def test_bad_parameters_rejected(self, fault):
        with pytest.raises(RuntimeConfigError):
            FaultPlan(seed=0, faults=(fault(),))
