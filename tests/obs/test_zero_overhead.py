"""Observability must never change what a run computes.

The hook is designed as zero-overhead-when-disabled and *zero-influence*
when enabled: ``DelayPolicy.decide`` returns exactly the value ``delay``
would, so attaching an observer to the deterministic simulator must leave
the run bit-for-bit identical — same answer, same simulated makespan, same
event count, same message totals.
"""

import pytest

from repro import api
from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.obs import Observer
from repro.runtime.costmodel import CostModel


def _run(graph, program, query, mode, observer):
    return api.run(program, graph, query, num_fragments=4, mode=mode,
                   cost_model=CostModel(latency_jitter=0.2, seed=7),
                   observer=observer)


@pytest.mark.parametrize("mode", ["AAP", "AP", "BSP", "SSP"])
class TestBitIdentical:
    def test_sssp(self, small_grid, mode):
        plain = _run(small_grid, SSSPProgram(), SSSPQuery(source=0), mode,
                     observer=None)
        observed = _run(small_grid, SSSPProgram(), SSSPQuery(source=0),
                        mode, observer=Observer())
        assert observed.answer == plain.answer
        assert observed.time == plain.time
        assert observed.rounds == plain.rounds
        assert observed.extras["events"] == plain.extras["events"]
        assert (observed.metrics.total_messages
                == plain.metrics.total_messages)
        assert observed.metrics.total_bytes == plain.metrics.total_bytes
        assert observed.metrics.total_busy == plain.metrics.total_busy

    def test_cc(self, small_powerlaw, mode):
        plain = _run(small_powerlaw, CCProgram(), CCQuery(), mode,
                     observer=None)
        observed = _run(small_powerlaw, CCProgram(), CCQuery(), mode,
                        observer=Observer())
        assert observed.answer == plain.answer
        assert observed.time == plain.time
        assert observed.extras["events"] == plain.extras["events"]


class TestObserverPopulated:
    def test_observer_surfaces_in_extras_and_report(self, small_grid):
        from repro.obs.export import run_report

        obs = Observer()
        result = _run(small_grid, SSSPProgram(), SSSPQuery(source=0), "AAP",
                      observer=obs)
        assert result.extras["obs"] is obs
        assert len(obs.log) > 0
        assert "round_duration" in obs.metrics.names()
        doc = run_report(result)
        assert doc["observability"]["event_counts"] == obs.log.counts()

    def test_disabled_run_has_no_obs_extras(self, small_grid):
        result = _run(small_grid, SSSPProgram(), SSSPQuery(source=0), "AAP",
                      observer=None)
        assert "obs" not in result.extras
