"""Exporters: Chrome ``trace_event`` JSON, JSONL event dumps, the run
report and the ASCII timing diagram.  Every one that shows rounds reads
them from the event log through :func:`round_slices`.

The Chrome format (one JSON document with a ``traceEvents`` array) loads
directly in ``chrome://tracing`` and in Perfetto's legacy-trace importer
(https://ui.perfetto.dev → "Open trace file").  Rounds become complete
("X") slices on one track per worker; everything else becomes instant
("i") events on the same track; buffer depth additionally becomes a
counter ("C") series, so the staleness build-up the delay policies react
to is visible as a graph above the timeline.

Simulated time units are mapped 1:1 onto microseconds (the viewer's native
unit); wall-clock runtimes record seconds, which are scaled likewise.

The run report (:func:`run_report`) is the statistics collector's output
(Section 6) as one machine-readable document, for dashboards and
regression tracking; ``repro run --report out.json`` writes one.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

from repro.obs.events import (BARRIER, MSG_DELIVER, ROUND_END, ROUND_START,
                              EventLog, ObsEvent)

#: timestamp scale: event-log time units -> trace microseconds
_TS_SCALE = 1e6


class RoundSlice(NamedTuple):
    """One round of one worker, read off the log by :func:`round_slices`."""

    start: float
    end: float
    #: ``"peval"`` / ``"inceval"``
    kind: str
    round: int
    #: the ``round_end`` payload; ``{"unfinished": True}`` for a round
    #: still open at the last record
    payload: Dict[str, Any]


def round_slices(log: Iterable[ObsEvent]) -> Dict[int, List[RoundSlice]]:
    """Each worker's rounds, in order: its ``round_start`` / ``round_end``
    pairs from ``log`` (an :class:`EventLog` or a list of its records).

    The log is the only record of a run's rounds; the Chrome trace, the
    run report and :func:`ascii_gantt` all read it here.  A round still
    open at the end (a crashed or a live run) runs to the last record.
    """
    slices: Dict[int, List[RoundSlice]] = {}
    open_rounds: Dict[int, ObsEvent] = {}
    last = 0.0
    for e in log:
        last = max(last, e.t)
        if e.type == ROUND_START:
            open_rounds[e.wid] = e
        elif e.type == ROUND_END:
            start = open_rounds.pop(e.wid, None)
            begin = (start.t if start is not None
                     else e.t - e.payload.get("duration", 0.0))
            slices.setdefault(e.wid, []).append(RoundSlice(
                begin, e.t, e.payload.get("kind", "round"), e.round,
                e.payload))
    for wid, start in open_rounds.items():
        slices.setdefault(wid, []).append(RoundSlice(
            start.t, last, start.payload.get("kind", "round"), start.round,
            {"unfinished": True}))
    return slices


def ascii_gantt(log: Iterable[ObsEvent], width: int = 78,
                makespan: Optional[float] = None, label: str = "") -> str:
    """Render each worker's rounds as one text row, time left to right:
    ``P`` marks PEval, ``#`` IncEval, a space no round (the paper's
    Fig. 1 / Fig. 7 timing diagrams).  ``makespan`` defaults to the last
    round's end."""
    slices = round_slices(log)
    span = makespan if makespan is not None else max(
        (s.end for rounds in slices.values() for s in rounds), default=0.0)
    if span <= 0:
        return f"{label} (empty trace)"
    lines = [f"{label}  (0 .. {span:.2f} time units)"] if label else []
    for wid in sorted(slices):
        row = [" "] * width
        for s in slices[wid]:
            lo = int(s.start / span * (width - 1))
            hi = max(int(s.end / span * (width - 1)), lo)
            ch = "P" if s.kind == "peval" else "#"
            for i in range(lo, min(hi + 1, width)):
                row[i] = ch
        lines.append(f"P{wid:<3d}|{''.join(row)}|")
    return "\n".join(lines)


def to_chrome_trace(log: EventLog, process_name: str = "repro",
                    time_scale: float = _TS_SCALE) -> Dict[str, Any]:
    """Convert an event log into a Chrome ``trace_event`` document.

    Each worker is one thread (track) of one process; its
    :func:`round_slices` become duration slices named after the round
    kind (``peval`` / ``inceval``), placed where their ``round_end`` is.
    """
    # one consistent copy: a live log may be appended to while we convert
    records = log.snapshot()
    events: List[Dict[str, Any]] = []
    events.append({"ph": "M", "pid": 0, "tid": 0,
                   "name": "process_name",
                   "args": {"name": process_name}})
    wids = sorted({e.wid for e in records if e.wid >= 0})
    for wid in wids:
        events.append({"ph": "M", "pid": 0, "tid": wid,
                       "name": "thread_name",
                       "args": {"name": f"worker {wid}"}})

    def complete(wid: int, s: RoundSlice) -> Dict[str, Any]:
        begin = s.start * time_scale
        return {"ph": "X", "pid": 0, "tid": wid, "name": s.kind,
                "cat": "round", "ts": begin,
                "dur": max(s.end * time_scale - begin, 0.0),
                "args": {"round": s.round, **s.payload}}

    rounds = {wid: iter(s) for wid, s in round_slices(records).items()}
    for e in records:
        if e.type == ROUND_START:
            continue
        if e.type == ROUND_END:
            events.append(complete(e.wid, next(rounds[e.wid])))
            continue
        ts = e.t * time_scale
        tid = e.wid if e.wid >= 0 else 0
        scope = "g" if e.type == BARRIER else "t"
        events.append({
            "ph": "i", "pid": 0, "tid": tid, "name": e.type,
            "cat": e.type, "ts": ts, "s": scope,
            "args": {"round": e.round, **e.payload}})
        if e.type == MSG_DELIVER:
            events.append({
                "ph": "C", "pid": 0, "tid": tid,
                "name": f"buffer_depth_w{e.wid}", "ts": ts,
                "args": {"depth": e.payload.get("depth", 0)}})
    # what is left is a round still open at the last record
    for wid, rest in rounds.items():
        events.extend(complete(wid, s) for s in rest)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(log: EventLog, path: str,
                       process_name: str = "repro") -> None:
    """Write the Chrome-trace JSON document to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(log, process_name=process_name), fh)


def write_jsonl(log: EventLog, path: str) -> None:
    """Dump the log as JSON Lines (one event object per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in log.snapshot():
            fh.write(json.dumps(e.to_dict()) + "\n")


def read_jsonl(path: str) -> EventLog:
    """Load a JSONL dump back into an :class:`EventLog`."""
    log = EventLog()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            log.append(ObsEvent(type=doc["type"], t=doc["t"],
                                wid=doc.get("wid", -1),
                                round=doc.get("round", -1),
                                payload=doc.get("payload", {})))
    return log


def run_report(result, include_answer: bool = False) -> Dict[str, Any]:
    """One run (a :class:`~repro.core.result.RunResult`) as a JSON-ready
    document: the totals and per-worker statistics field for field, plus
    what the run's observer collected, its rounds (``trace``, one
    :class:`RoundSlice` per round) included.

    The answer is excluded by default (it can be huge and its node ids may
    not be JSON keys); pass ``include_answer=True`` for small runs.
    """
    metrics = asdict(result.metrics)
    workers = metrics.pop("workers")  # last, where the document has them
    metrics["idle_ratio"] = result.metrics.idle_ratio
    metrics["workers"] = workers
    doc: Dict[str, Any] = {
        "mode": result.mode,
        "time": result.time,
        "rounds": result.rounds,
        "metrics": metrics,
        "extras": {k: v for k, v in result.extras.items()
                   if isinstance(v, (int, float, str, bool))},
    }
    observer = result.extras.get("obs")
    if observer is not None:
        doc["observability"] = {
            "event_counts": observer.log.counts(),
            "metrics": observer.metrics.as_dict(),
        }
        doc["trace"] = [{"wid": wid, **s._asdict()} for wid, rounds
                        in sorted(round_slices(observer.log).items())
                        for s in rounds]
    if include_answer:
        doc["answer"] = {repr(k): v for k, v in result.answer.items()} \
            if isinstance(result.answer, dict) else repr(result.answer)
    return doc


def write_report(result, path: str, include_answer: bool = False,
                 extra: Optional[Dict[str, Any]] = None) -> None:
    """Write :func:`run_report`'s document to ``path`` (``extra`` becomes
    its ``context``)."""
    doc = run_report(result, include_answer=include_answer)
    if extra:
        doc["context"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
