"""Tests for the multiprocessing runtime (true cross-process execution)."""

import pytest

from repro import api
from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.errors import RuntimeConfigError
from repro.graph import analysis, generators
from repro.runtime.multiprocess import MultiprocessRuntime


@pytest.fixture(scope="module")
def graph():
    return generators.powerlaw(300, m=2, weighted=True, seed=3)


@pytest.fixture(scope="module")
def pg(graph):
    return api.partition_graph(graph, 4)


@pytest.mark.parametrize("mode", ["AP", "AAP", "BSP"])
class TestCorrectness:
    def test_cc(self, graph, pg, mode):
        r = MultiprocessRuntime(CCProgram(), pg, CCQuery(), mode=mode,
                                timeout=90).run()
        assert r.answer == analysis.connected_components(graph)
        assert r.mode == f"{mode}-multiprocess"

    def test_sssp(self, graph, pg, mode):
        r = MultiprocessRuntime(SSSPProgram(), pg, SSSPQuery(source=0),
                                mode=mode, timeout=90).run()
        ref = analysis.dijkstra(graph, 0)
        assert all(r.answer[v] == pytest.approx(ref[v]) for v in ref)


class TestPageRankMp:
    def test_pagerank_ap(self, graph, pg):
        r = MultiprocessRuntime(
            PageRankProgram(), pg,
            PageRankQuery(epsilon=1e-3, num_nodes=graph.num_nodes),
            mode="AP", timeout=90).run()
        ref = analysis.pagerank(graph, epsilon=1e-10)
        for v in ref:
            assert r.answer[v] == pytest.approx(ref[v], abs=5e-3)


class TestMechanics:
    def test_unknown_mode(self, pg):
        with pytest.raises(RuntimeConfigError):
            MultiprocessRuntime(CCProgram(), pg, CCQuery(), mode="nope")

    def test_metrics_reported(self, graph, pg):
        r = MultiprocessRuntime(CCProgram(), pg, CCQuery(), mode="AP",
                                timeout=90).run()
        assert r.metrics.total_messages > 0
        assert r.metrics.total_bytes > 0
        assert all(rounds >= 1 for rounds in r.rounds)
        assert r.metrics.makespan > 0


def delivered_stamps(obs):
    """Per receiver: the sender-side rounds of the messages it got,
    joined on the wire ``seq``.  A strict superstep consumes one stamp,
    so a worker that ran k IncEval rounds got k distinct stamps; a round
    that took two supersteps' traffic at once leaves more stamps than
    rounds."""
    sent = {(e.wid, e.payload["dst"], e.payload["seq"]): e.round
            for e in obs.log.filter("msg_send")}
    out = {}
    for e in obs.log.filter("msg_deliver"):
        src = e.payload["src"]
        out.setdefault(e.wid, set()).add(sent[(src, e.wid, e.payload["seq"])])
    return out


class TestBspSupersteps:
    """A superstep consumes the previous superstep's traffic, nothing
    else: the schedule is a function of the input."""

    @staticmethod
    def strict_schedule(program, pg, query, vectorized):
        from repro.core.engine import Engine
        from repro.core.fixpoint import ScheduledExecutor
        ex = ScheduledExecutor(Engine(program, pg, query,
                                      vectorized=vectorized))
        ex.run_supersteps()
        return ex.rounds, ex.total_bytes

    @pytest.mark.parametrize("slow", [0, 1])
    def test_slow_peval_does_not_open_the_barrier(self, slow):
        """PEval is the 0th superstep.  With one worker's PEval stretched
        50x, the other used to answer an empty superstep 1 and then take
        the straggler's round-0 and round-1 output in one batch."""
        from repro.obs import Observer
        from repro.runtime.faultplan import FaultPlan, StragglerFault
        g = generators.powerlaw(400, m=3, weighted=True, seed=5)
        pg2 = api.partition_graph(g, 2)
        query = PageRankQuery(epsilon=1e-3 * g.num_nodes,
                              num_nodes=g.num_nodes)
        want = self.strict_schedule(PageRankProgram(), pg2, query, True)
        obs = Observer()
        r = MultiprocessRuntime(
            PageRankProgram(), pg2, query, mode="BSP", timeout=60,
            vectorized=True, observer=obs,
            fault_plan=FaultPlan(faults=(StragglerFault(slow, 50.0),))
        ).run()
        stamps = delivered_stamps(obs)
        assert [len(stamps.get(w, ())) for w in range(2)] == \
            [rounds - 1 for rounds in r.rounds]
        assert (r.rounds, r.metrics.total_bytes) == want

    @pytest.mark.parametrize("transport", ["shm", "queue"])
    def test_schedule_repeats(self, graph, pg, transport):
        """Four workers, some idle in some supersteps: every run has the
        strict superstep schedule."""
        query = PageRankQuery(epsilon=1e-4 * graph.num_nodes,
                              num_nodes=graph.num_nodes)
        want = self.strict_schedule(PageRankProgram(), pg, query, True)
        for _ in range(3):
            r = MultiprocessRuntime(
                PageRankProgram(), pg, query, mode="BSP", timeout=60,
                vectorized=True, transport=transport).run()
            assert (r.rounds, r.metrics.total_bytes) == want

    def test_frames_larger_than_the_pipe_cross_before_the_barrier(self):
        """On the pickled plane an 80 KB frame does not fit the 64 KB
        pipe.  Its tail must not wait for the reader's next superstep
        (it would arrive one barrier late, together with the next
        round's): the barrier report waits for the frame."""
        g = generators.powerlaw(12_000, m=2, seed=2)
        pg2 = api.partition_graph(g, 2)
        query = PageRankQuery(epsilon=5e-4 * g.num_nodes,
                              num_nodes=g.num_nodes)
        from repro.core.engine import Engine
        first = Engine(PageRankProgram(), pg2, query,
                       vectorized=True).run_peval(0).messages
        assert first[0].size_bytes > 1 << 16  # the premise
        want = self.strict_schedule(PageRankProgram(), pg2, query, True)
        r = MultiprocessRuntime(
            PageRankProgram(), pg2, query, mode="BSP", timeout=60,
            vectorized=True, transport="queue").run()
        assert (r.rounds, r.metrics.total_bytes) == want
