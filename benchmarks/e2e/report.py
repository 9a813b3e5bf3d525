"""Run table, summary statistics and the parent-vs-change comparison.

One CSV row per timed unit of work (the experiment-runner shape: a run
table plus a per-run artifact folder).  Every end-to-end timing is
derived from these rows by :func:`end_to_end`, so a number in
``results.json`` can always be recomputed from ``runs.csv``.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

MIN_SPREAD_SAMPLES = 5
#: a timing is reported as on a machine where ``workloads.SpeedProbe``
#: takes this long (the quiet reference box takes 0.100-0.105 s)
NOMINAL_PROBE_S = 0.1

RUN_COLUMNS = ("workload", "seed", "trace", "kind", "rep", "wall_s",
               "cpu_s", "rounds", "entries", "edges", "ok")


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- run table ---------------------------------------------------------
def write_runs_csv(path: Path, rows: Iterable[Dict[str, Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_runs_csv(path: Path) -> List[Dict[str, Any]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("seed", "trace", "rep", "rounds", "entries", "edges",
                    "ok"):
            row[key] = int(row[key])
        for key in ("wall_s", "cpu_s"):
            row[key] = float(row[key])
    return rows


# -- statistics --------------------------------------------------------
def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def at_nominal_speed(rows: Iterable[Dict[str, Any]], kinds: Sequence[str]
                     ) -> List[Tuple[Dict[str, Any], float]]:
    """``(row, seconds)`` for the passed rows of ``kinds``: ``wall_s``
    divided by how slow the machine was around the row, taken from the
    ``cal`` rows before and after it (their mean over the nominal)."""
    out: List[Tuple[Dict[str, Any], float]] = []
    waiting: List[Dict[str, Any]] = []
    before = None

    def flush(probes: List[float]) -> None:
        if waiting and not probes:
            raise ValueError(f"no speed probe beside the {kinds} rows")
        for row in waiting:
            out.append((row, row["wall_s"] * NOMINAL_PROBE_S
                        / statistics.mean(probes)))
        waiting.clear()

    for row in rows:
        if row["kind"] == "cal":
            flush([p for p in (before, row["wall_s"]) if p is not None])
            before = row["wall_s"]
        elif row["kind"] in kinds and row["ok"]:
            waiting.append(row)
    flush([before] if before is not None else [])
    return out


def end_to_end(rows: List[Dict[str, Any]],
               scalars: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of one untraced pass, from its run-table rows.

    ``unit`` rows are the workload's timed units of work (one batch
    query, one serve cycle).  A row with ``edges`` > 0 absorbed that many
    edges into a fresh answer in its ``wall_s``: the unit itself on the
    batch workloads, the ``update`` part of each cycle on serve.  Every
    timing is taken :func:`at_nominal_speed`.
    """
    run = spread([s for _, s in at_nominal_speed(rows, ("unit",))])
    setup = spread([s for _, s in at_nominal_speed(rows, ("setup",))])
    rate = spread([r["edges"] / s for r, s in at_nominal_speed(
        rows, ("unit", "update")) if r["edges"] > 0])
    return {
        "setup_s": {"value": setup["median"], "unit": "s", **setup},
        "run_s": {"value": run["median"], "unit": "s", **run},
        "edges_per_s": {"value": rate["median"], "unit": "edges/s", **rate},
        "peak_rss_mb": {"value": scalars["peak_rss_mb"], "unit": "MB"},
    }


# -- comparison --------------------------------------------------------
def compare(a: Dict[str, Any], b: Dict[str, Any],
            contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows of workload x end-to-end metric: is B no worse than A?

    ``worse``: B's value is worse than A's by more than the metric's
    bound.  ``unresolved``: either side's own spread (IQR / median of
    its samples) is wider than the bound, so the two cannot be told
    apart.  Otherwise ``ok``.  Quartiles of fewer than
    ``MIN_SPREAD_SAMPLES`` samples say nothing, so ``setup_s`` (three
    cold builds) is judged on its medians alone, as the contract does.
    """
    out = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma = a["workloads"][workload]["end_to_end"].get(name)
            mb = b["workloads"][workload]["end_to_end"].get(name)
            if ma is None or mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            change = (vb - va) / va
            worse_by = change if metric["better"] == "lower" else -change
            noise = max((m["iqr"] / m["median"] for m in (ma, mb)
                         if m.get("n", 0) >= MIN_SPREAD_SAMPLES),
                        default=0.0)
            if worse_by > bound:
                status = "worse"
            elif noise > bound:
                status = "unresolved"
            else:
                status = "ok"
            out.append({"workload": workload, "metric": name,
                        "unit": metric["unit"], "a": va, "b": vb,
                        "change": change, "bound": bound,
                        "spread": noise, "status": status})
    return out


def format_compare(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':28} {'metric':12} {'A':>12} {'B':>12} "
             f"{'change':>8} {'bound':>6} {'spread':>7}  status"]
    for r in rows:
        lines.append(
            f"{r['workload']:28} {r['metric']:12} {r['a']:12.5g} "
            f"{r['b']:12.5g} {r['change']:+8.1%} {r['bound']:6.0%} "
            f"{r['spread']:7.1%}  {r['status']}")
    return "\n".join(lines)
