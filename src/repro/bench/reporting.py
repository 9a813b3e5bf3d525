"""Table/series formatting for the experiment harness.

The benches print the same row/series structure as the paper's tables and
figures; these helpers keep the output uniform and grep-friendly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    """Fixed-width text table with a title rule."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [f"== {title} ==",
           " | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def format_series(title: str, x_label: str, xs: Sequence[Any],
                  series: Mapping[str, Sequence[float]]) -> str:
    """One row per series, one column per x value (a figure as text)."""
    headers = [x_label] + [str(x) for x in xs]
    rows = [[name] + list(vals) for name, vals in series.items()]
    return format_table(title, headers, rows)


def speedups(times: Mapping[str, float], baseline: str) -> Dict[str, float]:
    """time(baseline) / time(mode) for every mode (>1 = faster)."""
    base = times[baseline]
    return {mode: (base / t if t > 0 else float("inf"))
            for mode, t in times.items()}


def human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024:
            return f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}TB"


_BYTE_UNITS = {"B": 1, "KB": 1024, "MB": 1024 ** 2, "GB": 1024 ** 3,
               "TB": 1024 ** 4}


def parse_cell(cell: str) -> Any:
    """A printed cell back as a number where it is one (``1,427``,
    ``0.125``, ``3.2MB``), the string otherwise."""
    text = cell.strip()
    for unit in sorted(_BYTE_UNITS, key=len, reverse=True):
        if text.endswith(unit) and text[:-len(unit)][-1:].isdigit():
            return float(text[:-len(unit)]) * _BYTE_UNITS[unit]
    try:
        return float(text.replace(",", ""))
    except ValueError:
        return text


def parse_table(text: str) -> List[Dict[str, Any]]:
    """The first table :func:`format_table` (or :func:`format_series`)
    printed in ``text``, as one ``{header: value}`` dict per row."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("== "))
    headers = [h.strip() for h in lines[start + 1].split(" | ")]
    rows = []
    for line in lines[start + 3:]:
        if not line.strip():
            break
        rows.append(dict(zip(headers, map(parse_cell, line.split(" | ")))))
    return rows


def parse_series(text: str) -> Dict[str, List[float]]:
    """The series :func:`format_series` printed in ``text``: name ->
    values in x order."""
    rows = parse_table(text)
    label = next(iter(rows[0]))
    return {row.pop(label): list(row.values()) for row in rows}
