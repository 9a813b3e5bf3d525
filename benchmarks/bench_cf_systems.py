"""CF across architectures: GRAPE+ (PIE/AAP) vs a Petuum-style SSP
parameter server.

The paper's summary reports GRAPE+ 30.9x faster than Petuum for CF (text
of Section 7, Table-1 discussion).  The architectural difference this
bench reproduces: the parameter server re-pulls every touched parameter
each clock (communication proportional to clocks x touched parameters),
while GRAPE+ ships only accumulated gradient deltas of shared items.
Both run the same rank/learning-rate/epochs to comparable RMSE.
"""

from conftest import run_once, table

from repro import api
from repro.algorithms import CFProgram, CFQuery
from repro.baselines.parameter_server import ParameterServerCF
from repro.bench import workloads
from repro.bench.reporting import format_table, human_bytes


def run_cf_systems(num_workers: int = 6, epochs: int = 8, seed: int = 5):
    g, _, _ = workloads.netflix(scale=0.6, seed=seed)
    speed = {0: 3.0}
    rows = []

    # Petuum's general-purpose parameter-server stack pays consistency-
    # manager and table-access overheads per operation; the constants grant
    # it a 3x per-op handicap vs GRAPE+'s compiled fragment loops — far
    # less than the paper's measured 30.9x end-to-end gap
    ps = ParameterServerCF(g, num_workers, rank=4, learning_rate=0.02,
                           epochs=epochs, staleness=2, seed=seed,
                           epoch_cost=2.0, per_rating_cost=0.006,
                           per_param_cost=0.002, speed=speed).run()
    rows.append({"system": "Petuum (param server, SSP c=2)",
                 "time": ps.time, "rmse": ps.rmse,
                 "comm": ps.comm_bytes, "stall": ps.stall_time})

    pg = workloads.partition(g, num_workers, seed=seed)
    query = CFQuery(rank=4, learning_rate=0.02, epochs=epochs, seed=seed)
    for label, program, mode in (
            ("GRAPE+ (AAP, gossip)", CFProgram(rank=4), "AAP"),
            ("GRAPE+ (AAP, server aggregation)",
             CFProgram(rank=4, aggregation="server"), "AAP"),
            ("GRAPE+ (SSP)", CFProgram(rank=4), "SSP"),
            ("GRAPE+ (BSP)", CFProgram(rank=4), "BSP")):
        r = api.run(program, pg, query, mode=mode, staleness_bound=2,
                    cost_model=workloads.grape_cost(straggler=0, factor=3.0,
                                                    seed=seed),
                    record_trace=False)
        rows.append({"system": label,
                     "time": r.time, "rmse": r.answer["rmse"],
                     "comm": r.communication_bytes,
                     "stall": r.metrics.total_suspended})
    return rows


def test_cf_systems(benchmark, emit):
    rows = run_once(benchmark, run_cf_systems)
    emit(format_table(
        "CF across architectures (Netflix stand-in, straggler 3x)",
        ["system", "time", "train RMSE", "comm", "stall"],
        [[r["system"], r["time"], round(r["rmse"], 4),
          human_bytes(r["comm"]), r["stall"]] for r in rows]))


def test_cf_systems_shape():
    rows = table("test_cf_systems")
    ps = rows[0]
    gossip = next(r for r in rows if "gossip" in r["system"])
    server = next(r for r in rows if "server" in r["system"])
    # gossip aggregation: comparable model quality at lower time
    assert abs(gossip["train RMSE"] - ps["train RMSE"]) < 0.1
    assert gossip["time"] < ps["time"]
    # server aggregation trades convergence speed for traffic: it ships
    # no more than the parameter server re-pulls
    assert server["comm"] <= ps["comm"] * 1.25
    assert server["comm"] < gossip["comm"]
