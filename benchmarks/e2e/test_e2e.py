"""Self-tests of the benchmark: ``python -m pytest benchmarks/e2e -q``.

They run the real driver in ``--quick`` mode, so they also are the smoke
test that it leaves no process and no ``/dev/shm`` segment behind.  Not
part of the tier-1 suite (``testpaths = ["tests"]``).
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hygiene
import report
from tracing import Tracer

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
CONTRACT = report.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD = "sssp-grid-mp"  # exercises processes, rings and the sweeps


def drive(*extra, workload=WORKLOAD, seed=3, trace=0):
    """One contract-shaped invocation; returns (exit code, result|None)."""
    before = set(os.listdir("/dev/shm"))
    proc = subprocess.run(
        RUN + ["--quick", "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170)
    assert set(os.listdir("/dev/shm")) <= before, "segment left behind"
    assert not descendants_of_tests(), "process left behind"
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    result = json.loads(last[0]) if last[0].startswith("{") else None
    return proc.returncode, result


def descendants_of_tests():
    """What a returned driver may have left: anything below this pytest
    process, and (an orphan is re-parented away from us) any driver,
    workload, resource tracker or injected sleeper anywhere."""
    table = hygiene.proc_table()
    found = [table[pid] for pid in hygiene.descendants(table, os.getpid())]
    for pid, proc in table.items():
        if pid == os.getpid() or not proc.comm.startswith(("python",
                                                           "sleep")):
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if any(mark in cmdline for mark in (
                str(HERE / "run.py"), "multiprocessing.resource_tracker",
                "sleep 600")):
            found.append(proc)
    return found


# -- the contract ------------------------------------------------------
def test_benchmark_json_is_within_the_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = []
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower",
                                                             "higher")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in CONTRACT["end_to_end"])


def test_driver_is_not_collected_by_tier1():
    for path in HERE.glob("*.py"):
        assert not path.name.startswith("bench_")


@pytest.mark.parametrize("workload", [w["name"]
                                      for w in CONTRACT["workloads"]])
def test_each_pass_reports_exactly_the_listed_metrics(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = drive(workload=workload, trace=trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        listed = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} \
            == listed
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_for_a_seed_and_differ_between_seeds():
    exact = ("core.seq_rounds", "core.seq_entries",
             "runtime.sim.aap_makespan", "runtime.sim.bsp_makespan",
             "runtime.sim.aap_rounds_max", "runtime.sim.aap_entries")

    def counts(seed):
        code, result = drive(seed=seed, trace=1)
        assert code == 0
        # the simulator counts are extras of this workload: they are in
        # the newest artifact folder, not in the one-line result
        newest = max((HERE / "out").iterdir(), key=os.path.getmtime)
        with open(newest / "results.json") as fh:
            stored = json.load(fh)["workloads"][WORKLOAD]
        assert {n: m["value"] for n, m in result["metrics"].items()} == \
            {n: m["value"] for n, m in stored["per_layer"].items()}
        return [{**stored["per_layer"], **stored["extra"]}[n]["value"]
                for n in exact]

    first = counts(3)
    assert counts(3) == first
    assert counts(4) != first


# -- failures are counted and change the exit status -------------------
def test_wrong_answer_fails_the_run():
    code, result = drive("--inject", "wrong-answer")
    assert code != 0
    assert result["failed"] >= 1 and not result["correct"]


def test_leaked_child_fails_the_run_and_is_killed():
    code, result = drive("--inject", "leak-child")
    assert code != 0
    assert result["failed"] >= 1 and not result["correct"]


def test_deadline_kills_the_workload_and_prints_no_result():
    code, result = drive("--inject", "hang", "--deadline", "2")
    assert code != 0 and result is None


def test_sigterm_to_the_driver_leaves_nothing():
    before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        RUN + ["--quick", "--workload", WORKLOAD, "--seconds", "30",
               "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    time.sleep(4.0)  # well inside the measured window: workers are up
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 128 + signal.SIGTERM
    assert not out.strip().endswith("}")
    assert not descendants_of_tests()
    assert set(os.listdir("/dev/shm")) <= before


def test_nothing_to_measure_is_an_error(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()


# -- pieces ------------------------------------------------------------
def result_with(run_s, iqr=0.0):
    return {"workloads": {"w": {"end_to_end": {
        "run_s": {"value": run_s, "unit": "s", "median": run_s,
                  "iqr": iqr, "n": 10}}}}}


def test_compare_classifies_against_the_bound():
    bound = next(m["bound"] for m in CONTRACT["end_to_end"]
                 if m["name"] == "run_s")

    def status(b, iqr=0.0):
        rows = report.compare(result_with(1.0), result_with(b, iqr),
                              CONTRACT)
        return [r["status"] for r in rows if r["metric"] == "run_s"]

    assert status(1.0 + bound / 2) == ["ok"]
    assert status(0.5) == ["ok"]
    assert status(1.0 + 2 * bound) == ["worse"]
    assert status(1.0, iqr=2 * bound) == ["unresolved"]


def test_timings_are_divided_by_the_probes_beside_them():
    def row(kind, wall_s, ok=1):
        return {"kind": kind, "wall_s": wall_s, "ok": ok}

    slow = report.NOMINAL_PROBE_S * 2
    rows = [row("cal", slow), row("unit", 1.0), row("unit", 3.0, ok=0),
            row("cal", slow), row("unit", 1.0),
            row("cal", report.NOMINAL_PROBE_S), row("unit", 1.0)]
    seconds = [s for _, s in report.at_nominal_speed(rows, ("unit",))]
    # between two slow probes; between a slow and a nominal one; after
    # the last probe; the failed unit is left out
    assert seconds == pytest.approx([0.5, 1 / 1.5, 1.0])
    with pytest.raises(ValueError):
        report.at_nominal_speed(rows[1:2], ("unit",))


def test_self_time_is_duration_minus_children():
    tracer = Tracer("t")
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.01)
    inner = tracer.total("inner")
    assert inner >= 0.02
    assert tracer.self_time("outer") == pytest.approx(
        (outer[3] - outer[2]) - inner)
    assert all(s["parent"] == outer[0]
               for s in tracer.to_json() if s["name"] == "inner")


def test_wrap_shadows_one_instance_and_unwraps():
    class Layer:
        def call(self):
            return 7

    tracer = Tracer("t")
    a, b = Layer(), Layer()
    tracer.wrap(a, "call", "layer.call")
    assert (a.call(), b.call()) == (7, 7)
    assert len(tracer.durations("layer.call")) == 1
    tracer.unwrap_all()
    assert "call" not in vars(a)
