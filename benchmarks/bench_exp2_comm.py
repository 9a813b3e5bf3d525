"""Exp-2: communication cost (bytes shipped) per mode.

Paper's findings: GRAPE+'s communication is 1.22x / 2.5x(=1/0.40) / 1.02x
that of GRAPE+BSP / GRAPE+AP / GRAPE+SSP — i.e. AP ships the most (many
small stale updates), BSP the least (fully batched), AAP close to SSP and
"not much worse" than BSP despite running asynchronously.
"""

from conftest import run_once, table

from repro.bench.experiments import run_communication
from repro.bench.reporting import format_table, human_bytes


def test_exp2_communication(benchmark, emit):
    rows = run_once(benchmark, run_communication)
    emit(format_table(
        "Exp-2 - communication per mode (SSSP + PageRank, Friendster)",
        ["algorithm", "mode", "time", "bytes", "messages"],
        [[r["algorithm"], r["mode"], r["time"],
          human_bytes(r["bytes"]), r["messages"]] for r in rows]))


def test_exp2_communication_shape():
    rows = table("test_exp2_communication")
    by = {(r["algorithm"], r["mode"]): r for r in rows}
    for algorithm in ("sssp", "pagerank"):
        bsp = by[(algorithm, "BSP")]["bytes"]
        ap = by[(algorithm, "AP")]["bytes"]
        aap = by[(algorithm, "AAP")]["bytes"]
        # AP ships the most; AAP ships less than AP
        assert ap >= aap, algorithm
        # AAP's overhead over fully-batched BSP is bounded (paper: 1.22x)
        assert aap <= bsp * 2.0, algorithm
