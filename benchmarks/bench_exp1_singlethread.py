"""Exp-1's "Single-thread" paragraph: parallel GRAPE+ vs one machine.

The paper reports GRAPE+ 1.63-5.2x faster than single-thread execution for
SSSP/CC over traffic (and notes parallelisation has overheads a single
machine avoids, while large graphs simply do not fit on one).  We compare
the same program on 1 fragment (no messages, PEval alone) against 8
fragments under AAP, in simulated time with uniform worker speed.
"""

import pytest
from conftest import run_once, table

from repro import api
from repro.algorithms import (CCProgram, CCQuery, SSSPProgram, SSSPQuery)
from repro.bench import workloads
from repro.bench.reporting import format_table


def run_single_vs_parallel():
    from repro.runtime.costmodel import CostModel
    g = workloads.traffic(scale=2.0)
    rows = []

    def cpu_bound_cost():
        # the real single-thread comparison is CPU-bound: per-work-unit
        # time dominates round/message overheads
        return CostModel(alpha=0.2, beta=0.01, latency=0.1, msg_cost=0.01,
                         send_cost=0.005, seed=1)

    for name, prog_factory, query in (
            ("SSSP", SSSPProgram, SSSPQuery(source=0)),
            ("CC", CCProgram, CCQuery())):
        times = {}
        for m in (1, 8):
            pg = workloads.partition(g, m, locality=True)
            r = api.run(prog_factory(), pg, query, mode="AAP",
                        cost_model=cpu_bound_cost(), record_trace=False)
            times[m] = r.time
        rows.append({"algorithm": name, "single": times[1],
                     "parallel8": times[8],
                     "speedup": times[1] / times[8]})
    return rows


def test_exp1_single_thread(benchmark, emit):
    rows = run_once(benchmark, run_single_vs_parallel)
    emit(format_table(
        "Exp-1 (single-thread) - 1 fragment vs 8 fragments under AAP "
        "(traffic, uniform speeds)",
        ["algorithm", "single", "8 workers", "speedup"],
        [[r["algorithm"], r["single"], r["parallel8"],
          round(r["speedup"], 2)] for r in rows]))


def test_exp1_single_thread_shape():
    rows = table("test_exp1_single_thread")
    # parallel execution wins despite communication overheads (the paper
    # measures 1.63-5.2x on real hardware; pure-Python simulated work
    # accounting keeps our margin smaller but positive)
    for r in rows:
        assert r["speedup"] > 1.1, r["algorithm"]
        # ...but far less than linearly (the paper's overhead point)
        assert r["speedup"] < 8.0, r["algorithm"]
