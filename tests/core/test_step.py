"""The worker step, driven by hand: no runtime, a fake clock, a list sink.

The contract under test is the "Worker step" section of
docs/architecture.md: the canonical per-round event order, payloads equal
to the shared schema, the counters and predictor inputs, and the exported
``WorkerMetrics``.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core import step as step_module
from repro.core.delay import AAPPolicy, APPolicy, DelayPolicy
from repro.core.engine import Engine, RoundOutput
from repro.core.master import local_fleet
from repro.core.messages import Message
from repro.core.predictors import ArrivalRatePredictor, RoundTimePredictor
from repro.core.step import Fleet, WorkerStep
from repro.core.worker import WorkerStatus
from repro.graph import generators
from repro.obs import Observer
from repro.obs.events import SCHEMA
from repro.partition.edge_cut import HashPartitioner


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def pair():
    """Two steps over a two-fragment grid, one clock, one list sink."""
    graph = generators.grid2d(5, 5, weighted=True, seed=1)
    pg = HashPartitioner().partition(graph, 2)
    engine = Engine(SSSPProgram(), pg, SSSPQuery(source=0))
    clock, sink = Clock(), []
    steps = [WorkerStep(engine, wid, APPolicy(), clock=clock,
                        emit=lambda *record: sink.append(record),
                        default_round_time=0.5)
             for wid in range(2)]
    return steps, clock, sink


def _fleet(steps, clock):
    return local_fleet([s.state for s in steps], clock(), 0.5)


class TestOneWorkerByHand:
    def test_peval_arrivals_decide_inceval_send(self, pair):
        steps, clock, sink = pair
        # both run PEval over [0, 2]; the source's fragment is the peer
        # (s0), the worker under test (s1) is the one its output goes to
        outs = [step.begin() for step in steps]
        assert steps[1].state.status is WorkerStatus.RUNNING
        clock.t = 2.0
        assert [step.finish(out) for step, out in zip(steps, outs)] == [2., 2.]
        (s0, out0), (s1, out1) = sorted(
            zip(steps, outs), key=lambda pair: not pair[1].messages)
        me, peer = s1.state.wid, s0.state.wid
        inbound = out0.messages
        assert inbound and not out1.messages
        assert s1.state.status is WorkerStatus.INACTIVE
        # arrivals at t=3 and t=3.5, decision and IncEval start at t=4
        arrivals = inbound + [Message(src=peer, dst=me, round=0,
                                      entries=inbound[0].entries)]
        for t, msg in zip((3.0, 3.5), arrivals):
            clock.t = t
            s1.arrived(msg)
        assert s1.state.status is WorkerStatus.WAITING
        clock.t = 4.0
        ds, action = s1.decide(_fleet(steps, clock))
        assert (ds, action) == (0.0, "start")
        batches = s1.state.buffer.drain()
        out = s1.begin(batches)
        clock.t = 5.0
        s1.finish(out)
        assert out.messages, "the IncEval must answer across the border"
        for msg in out.messages:
            s1.sent(msg)

        mine = [(type_, t, round_no, payload)
                for type_, t, wid, round_no, payload in sink if wid == me]
        expected = ([("status_change", "created>running"),
                     ("round_start", "peval"), ("round_end", "peval"),
                     ("status_change", "running>inactive"),
                     ("msg_deliver", 1),
                     ("status_change", "inactive>waiting"),
                     ("msg_deliver", 2), ("ds_decision", "start"),
                     ("status_change", "waiting>running"),
                     ("round_start", "inceval"), ("round_end", "inceval"),
                     ("status_change", "running>inactive")]
                    + [("msg_send", None)] * len(out.messages))
        detail = {"status_change": lambda p: f"{p['frm']}>{p['to']}",
                  "round_start": lambda p: p["kind"],
                  "round_end": lambda p: p["kind"],
                  "msg_send": lambda p: None,
                  "msg_deliver": lambda p: p["depth"],
                  "ds_decision": lambda p: p["action"]}
        assert [(t, detail[t](p)) for t, _, _, p in mine] == expected
        # every payload is exactly the shared schema (AP adds no audit keys)
        for type_, _, _, payload in mine:
            assert set(payload) == set(SCHEMA[type_]), type_
        # rounds are labelled by index: decision, start, end and sends of
        # the IncEval all say round 1, the deliveries before it too
        by_type = {}
        for type_, t, round_no, payload in mine:
            by_type.setdefault(type_, []).append((t, round_no, payload))
        assert [r for _, r, _ in by_type["round_start"]] == [0, 1]
        assert [r for _, r, _ in by_type["round_end"]] == [0, 1]
        assert [r for _, r, _ in by_type["ds_decision"]] == [1]
        assert [t for t, _, _ in by_type["round_start"]] == [0.0, 4.0]
        assert [t for t, _, _ in by_type["round_end"]] == [2.0, 5.0]
        assert by_type["round_start"][1][2]["batches"] == 2
        assert by_type["round_end"][1][2]["duration"] == 1.0

        # counters, predictor inputs, exported metrics
        w = s1.state
        n_sent = len(out.messages)
        assert w.messages_sent == n_sent
        assert w.bytes_sent == sum(m.size_bytes for m in out.messages)
        t_i, s_i = RoundTimePredictor(), ArrivalRatePredictor()
        for d in (2.0, 1.0):
            t_i.observe_round(d)
        for t in (3.0, 3.5):
            s_i.observe_arrival(t)
        assert w.round_time.predict() == t_i.predict()
        assert w.arrival_rate.predict(now=5.0) == s_i.predict(now=5.0)
        clock.t = 6.0
        m = s1.metrics()
        assert (m.rounds, m.work_done) == (2, out1.work + out.work)
        assert (m.messages_sent, m.messages_received) == (n_sent, 2)
        assert m.bytes_received == sum(a.size_bytes for a in arrivals)
        assert m.busy_time == 3.0
        # idle 2->3 (nothing to do) and 5->6 (the tail); suspended 3->4
        # (work buffered, not yet started)
        assert m.idle_time == pytest.approx(2.0)
        assert m.suspended_time == pytest.approx(1.0)
        assert m.busy_time + m.idle_time + m.suspended_time == 6.0

    def test_decision_carries_the_view_and_the_audit(self, pair):
        steps, clock, sink = pair
        step = steps[1]
        step.policy = AAPPolicy()
        step.finish(step.begin(), duration=2.0)
        clock.t = 1.0
        step.arrived(Message(src=0, dst=1, round=0, entries=((0, 1.0),)))
        clock.t = 1.5
        fleet = Fleet(rmin=1, rmax=4, avg_rate=0.25, avg_round_time=3.0,
                      num_workers=2)
        view = step.view(fleet)
        assert (view.round, view.eta, view.rmin, view.rmax) == (1, 1, 1, 4)
        assert (view.t_pred, view.idle_time, view.now) == (2.0, 0.5, 1.5)
        assert view.fleet_avg_round_time == 3.0 and view.num_peers == 1
        ds, action = step.decide(fleet)
        assert ds == step.policy.delay(view)
        payload = sink[-1][4]
        assert sink[-1][0] == "ds_decision"
        assert set(payload) >= set(SCHEMA["ds_decision"]) | {"l_bottom"}
        assert (payload["ds"], payload["action"]) == (ds, action)
        # nobody pending: the worker's own round stands in for the bounds
        lonely = step.view(Fleet(None, None, 0.0, 1.0, 2))
        assert (lonely.rmin, lonely.rmax) == (1, 1)

    def test_actions_name_what_the_driver_must_do(self, pair):
        steps, clock, _ = pair
        step, fleet = steps[0], Fleet(0, 0, 0.0, 1.0, 2)
        for ds, busy, action in ((0.0, False, "start"),
                                 (1e-12, True, "host_queued"),
                                 (math.inf, False, "suspend"),
                                 (0.25, False, "wake_scheduled")):
            step.policy = _Scripted([ds])
            assert step.decide(fleet, host_busy=busy) == (ds, action)

    def test_a_silent_step_decides_the_same(self, pair):
        steps, clock, sink = pair
        loud = steps[1]
        quiet = WorkerStep(loud.engine, 1, AAPPolicy(), clock=clock)
        loud.policy = quiet.policy
        for step in (loud, quiet):
            step.finish(step.begin(), duration=1.0)
            step.arrived(Message(src=0, dst=1, round=0, entries=((0, 1.),)))
        fleet = Fleet(1, 1, 0.0, 1.0, 2)
        assert quiet.decide(fleet) == loud.decide(fleet)

    def test_resume_stands_in_for_peval(self, pair):
        steps, clock, sink = pair
        clock.t = 7.0
        steps[0].resume()
        steps[1].resume([Message(src=0, dst=1, round=0,
                                 entries=((0, 1.0),))])
        assert [s.state.rounds for s in steps] == [1, 1]
        assert steps[0].state.status is WorkerStatus.INACTIVE
        assert steps[1].state.status is WorkerStatus.WAITING
        assert not sink, "seeding is not an event"
        clock.t = 9.0
        m0, m1 = (s.metrics() for s in steps)
        assert (m0.idle_time, m0.suspended_time) == (2.0, 0.0)
        assert (m1.idle_time, m1.suspended_time) == (0.0, 2.0)
        assert m1.messages_received == 1

    def test_measured_duration_includes_the_stretch(self, pair,
                                                    monkeypatch):
        # the stretch is handed the kernel's CPU seconds, not its wall
        # time: a round that waited for the CPU half its length
        steps, clock, _ = pair
        step, seen, cpu = steps[0], [], Clock()
        monkeypatch.setattr(step_module, "time",
                            SimpleNamespace(thread_time=cpu))

        def stretch(cpu_s):
            seen.append(cpu_s)
            clock.t += 3 * cpu_s  # a 4x straggler, stalling on the clock

        step.stretch = stretch
        out = step.begin()
        clock.t, cpu.t = 0.5, 0.25
        assert step.finish(out) == 1.25
        assert seen == [0.25]
        assert step.state.busy_time == 1.25
        assert step.state.round_time.predict() == 1.25

    def test_a_round_closes_under_the_guard_but_never_stalls_under_it(
            self, pair):
        # the driver delivers from other threads under `guard`; the status
        # a finished round leaves must be written under it too, and the
        # kernel / the straggler stall must not hold it
        import threading

        steps, clock, sink = pair
        step, lock = steps[0], threading.Lock()
        step.guard = lock
        step.stretch = lambda elapsed: held.append(lock.locked())
        step.emit = lambda *record: (sink.append(record),
                                     held.append(lock.locked()))
        held = []
        out = step.begin()
        assert held == [False, False]      # status_change, round_start
        step.finish(out)
        assert held[2:] == [False, True, True]  # stall, round_end, status
        assert not lock.locked()


class _Scripted(DelayPolicy):
    """delta that replays a list of stretches (then says "start")."""

    def __init__(self, stretches):
        self.stretches = list(stretches)

    def delay(self, view):
        return self.stretches.pop(0) if self.stretches else 0.0


class _StubEngine:
    """Just enough engine for a step: one peer, rounds that send."""

    def __init__(self):
        self.pg = SimpleNamespace(fragments=[
            SimpleNamespace(peer_fragments=lambda: {1})] * 2)

    def run_peval(self, wid):
        return self.run_inceval(wid, (), 0)

    def run_inceval(self, wid, batches, round_no):
        return RoundOutput(wid=wid, round=round_no, work=len(batches) + 1,
                           messages=[Message(src=wid, dst=1 - wid,
                                             round=round_no,
                                             entries=((0, 1.0),))
                                     for _ in range(len(batches) % 3)])


_turns = st.lists(st.tuples(
    st.integers(0, 3),                                  # arrivals
    st.sampled_from([0.0, 0.0, 0.5, math.inf]),         # delta's answer
    st.floats(0.001, 5.0)), max_size=12)                # round duration


class TestOneInstrumentationSource:
    @given(turns=_turns)
    @settings(max_examples=60, deadline=None)
    def test_inline_registry_equals_replayed_registry(self, turns):
        """What an in-process sink builds while the step runs is what the
        merge path rebuilds from the same records shipped home later."""
        inline, shipped, clock = Observer(), [], Clock()

        def sink(*record):
            inline.record(*record)
            shipped.append(record)

        step = WorkerStep(_StubEngine(), 0, _Scripted([]), clock=clock,
                          emit=sink)
        fleet = Fleet(0, 0, 0.0, 1.0, 2)
        step.finish(step.begin(), duration=1.0)
        for arrivals, ds, duration in turns:
            for _ in range(arrivals):
                clock.t += 0.25
                step.arrived(Message(src=1, dst=0, round=0,
                                     entries=((0, 1.0),)))
            if not step.state.buffer:
                continue
            step.policy.stretches = [ds]
            _, action = step.decide(fleet)
            if action == "suspend":
                continue
            out = step.begin(step.state.buffer.drain())
            clock.t += duration
            step.finish(out, duration)
            for msg in out.messages:
                step.sent(msg)
        started = 0.0  # the merge path normalises worker clocks like this
        replayed = Observer()
        for type_, t, wid, round_no, payload in shipped:
            replayed.record(type_, max(t - started, 0.0), wid, round_no,
                            payload)
        assert replayed.metrics.as_dict() == inline.metrics.as_dict()
        assert replayed.log.snapshot() == inline.log.snapshot()
        assert inline.metrics.get("round_duration", 0).count == \
            step.state.rounds
