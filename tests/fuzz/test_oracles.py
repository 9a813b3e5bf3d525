"""Each oracle catches its seeded synthetic violation; clean streams pass."""

import math

from repro.fuzz import (BoundsOracle, CheckingLog, LedgerOracle,
                        OracleSuite, WakeGateOracle)
from repro.obs import events as obs


def _decision(wid, rnd, *, t=1.0, action="start", ds=0.0, eta=0,
              rmin=0, rmax=0):
    return obs.ObsEvent(
        type=obs.DS_DECISION, t=t, wid=wid, round=rnd,
        payload={"ds": ds, "action": action, "eta": eta, "t_pred": 1.0,
                 "s_pred": 1.0, "rmin": rmin, "rmax": rmax, "t_idle": 0.0,
                 "reason": "test"})


def _send(wid, dst, seq, *, t=1.0):
    return obs.ObsEvent(type=obs.MSG_SEND, t=t, wid=wid, round=0,
                        payload={"dst": dst, "bytes": 8, "seq": seq,
                                 "entries": 1})


def _deliver(wid, src, seq, depth, *, t=2.0):
    return obs.ObsEvent(type=obs.MSG_DELIVER, t=t, wid=wid, round=0,
                        payload={"src": src, "bytes": 8, "seq": seq,
                                 "depth": depth})


def _round_start(wid, rnd, batches, *, t=3.0, kind="inceval"):
    return obs.ObsEvent(type=obs.ROUND_START, t=t, wid=wid, round=rnd,
                        payload={"kind": kind, "batches": batches})


class TestBoundsOracle:
    def test_round_outside_bounds(self):
        o = BoundsOracle("AAP")
        o.on_event(_decision(0, 5, rmin=1, rmax=3))
        assert len(o.violations) == 1
        assert "outside" in o.violations[0].message

    def test_clean_decision_passes(self):
        o = BoundsOracle("AAP")
        o.on_event(_decision(0, 2, rmin=1, rmax=3))
        o.finish()
        assert not o.violations

    def test_bsp_is_left_to_the_schedule_check(self):
        # BSP's rounds are held to the whole superstep schedule by
        # run_cell; the bounds oracle checks only r_min <= r_i <= r_max
        o = BoundsOracle("BSP")
        o.on_event(_decision(0, 2, rmin=0, rmax=2, action="start"))
        assert not o.violations

    def test_ssp_start_gating(self):
        o = BoundsOracle("SSP", staleness_bound=1)
        # starting at rmin + c is legal, rmin + c + 1 is not
        o.on_event(_decision(0, 1, rmin=0, rmax=2, action="start"))
        assert not [v for v in o.violations if "started" in v.message]
        o.on_event(_decision(0, 2, rmin=0, rmax=2, action="start"))
        assert [v for v in o.violations if "started" in v.message]

    def test_span_suppressed_after_late_reentry(self):
        o = BoundsOracle("SSP", staleness_bound=0)
        o.on_event(_decision(0, 4, rmin=4, rmax=4))
        # an inactive worker re-enters below the frontier: rmin collapses
        o.on_event(obs.ObsEvent(
            type=obs.STATUS_CHANGE, t=5.0, wid=1, round=1,
            payload={"frm": "inactive", "to": "waiting"}))
        o.on_event(_decision(0, 4, rmin=1, rmax=4, action="wake_scheduled",
                             ds=0.5))
        assert not [v for v in o.violations if "span" in v.message]


class TestLedgerOracle:
    def test_clean_exchange(self):
        o = LedgerOracle()
        o.on_event(_send(0, 1, seq=1))
        o.on_event(_deliver(1, 0, seq=1, depth=1))
        o.on_event(_decision(1, 0, eta=1))
        o.on_event(_round_start(1, 1, batches=1))
        o.finish()
        assert not o.violations

    def test_duplicate_send(self):
        o = LedgerOracle()
        o.on_event(_send(0, 1, seq=1))
        o.on_event(_send(0, 1, seq=1))
        assert any("duplicate send" in v.message for v in o.violations)

    def test_delivery_never_sent(self):
        o = LedgerOracle()
        o.on_event(_deliver(1, 0, seq=99, depth=1))
        assert any("never sent" in v.message for v in o.violations)

    def test_route_mismatch(self):
        o = LedgerOracle()
        o.on_event(_send(0, 1, seq=1))
        o.on_event(_deliver(2, 0, seq=1, depth=1))
        assert any("delivered" in v.message for v in o.violations)

    def test_depth_mismatch(self):
        o = LedgerOracle()
        o.on_event(_send(0, 1, seq=1))
        o.on_event(_deliver(1, 0, seq=1, depth=7))
        assert any("depth" in v.message for v in o.violations)

    def test_eta_mismatch(self):
        o = LedgerOracle()
        o.on_event(_send(0, 1, seq=1))
        o.on_event(_deliver(1, 0, seq=1, depth=1))
        o.on_event(_decision(1, 0, eta=0))
        assert any("eta" in v.message for v in o.violations)

    def test_partial_drain_outside_bsp(self):
        # an AP / AAP / SSP round takes every buffered batch: one that
        # strands a batch is flagged at the drain and again at the end
        o = OracleSuite.for_run("AP").oracles[1]
        for seq in (1, 2):
            o.on_event(_send(0, 1, seq=seq))
            o.on_event(_deliver(1, 0, seq=seq, depth=seq))
        o.on_event(_round_start(1, 1, batches=1))
        o.finish()
        assert any("drained 1 batches, ledger says 2" in v.message
                   for v in o.violations)
        assert any("1 batches still buffered" in v.message
                   for v in o.violations)

    def test_bsp_drains_its_superstep_and_ends_empty(self):
        o = OracleSuite.for_run("BSP").oracles[1]
        for seq in (1, 2):
            o.on_event(_send(0, 1, seq=seq))
            o.on_event(_deliver(1, 0, seq=seq, depth=seq))
        o.on_event(_round_start(1, 1, batches=1))
        o.on_event(_decision(1, 1, eta=1))
        assert not o.violations
        o.finish()  # the second batch was never drained
        assert [v.message for v in o.violations] == [
            "1 batches still buffered at termination"]
        o.on_event(_round_start(1, 2, batches=3))
        assert "drained 3 batches" in o.violations[-1].message

    def test_in_flight_at_termination(self):
        o = LedgerOracle()
        o.on_event(_send(0, 1, seq=1))
        o.finish()
        assert any("in flight" in v.message for v in o.violations)
        assert any("sent 1 != delivered 0" in v.message
                   for v in o.violations)


class TestWakeGateOracle:
    def test_released_start_is_clean(self):
        o = WakeGateOracle()
        o.on_event(_decision(0, 1, action="start", ds=0.0))
        o.on_event(_round_start(0, 1, batches=1))
        assert not o.violations

    def test_start_without_decision(self):
        o = WakeGateOracle()
        o.on_event(_round_start(0, 1, batches=1))
        assert any("no policy decision" in v.message for v in o.violations)

    def test_start_while_suspended(self):
        o = WakeGateOracle()
        o.on_event(_decision(0, 1, action="suspend", ds=math.inf))
        o.on_event(_round_start(0, 1, batches=1))
        assert any("suspend" in v.message for v in o.violations)

    def test_release_is_consumed(self):
        o = WakeGateOracle()
        o.on_event(_decision(0, 1, action="start", ds=0.0))
        o.on_event(_round_start(0, 1, batches=1))
        o.on_event(_round_start(0, 2, batches=1))
        assert len(o.violations) == 1

    def test_decision_self_consistency(self):
        o = WakeGateOracle()
        o.on_event(_decision(0, 1, action="start", ds=3.0))
        o.on_event(_decision(0, 1, action="suspend", ds=2.0))
        o.on_event(_decision(0, 1, action="wake_scheduled", ds=0.0))
        assert len(o.violations) == 3


class TestSuitePlumbing:
    def test_checking_log_feeds_suite_online(self):
        suite = OracleSuite.for_run("AAP")
        log = CheckingLog(suite)
        log.emit(obs.ROUND_START, 1.0, wid=0, round=1,
                 kind="inceval", batches=0)
        assert not suite.ok  # wake-gate fired during emit, not at finish
        assert len(log.events) == 1

    def test_for_run_wires_mode(self):
        suite = OracleSuite.for_run("SSP", staleness_bound=2)
        bounds = suite.oracles[0]
        assert bounds.mode == "SSP" and bounds.c == 2

    def test_extra_violations_counted(self):
        from repro.fuzz import OracleViolation
        suite = OracleSuite.for_run("AAP")
        suite.extra.append(OracleViolation(oracle="contraction",
                                           message="x"))
        assert not suite.ok
        assert suite.violations[0].oracle == "contraction"
