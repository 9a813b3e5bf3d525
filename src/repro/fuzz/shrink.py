"""Running cells, shrinking failing ones, and replayable artifacts.

:func:`run_grid` runs cells and, given a directory, writes each one's
artifact: ``{"version": 2, "kind": "repro-cell", **Verdict.to_dict(),
"shrink_trail": [...], "shrink_attempts": N}`` — the cell, its
violations and what the run did.  ``repro fuzz --replay``
(:func:`replay_artifact`) re-runs the cell.  A failing *simulated* cell
is first minimized by :func:`shrink`: try one simplification (fewer
perturbation features, fragments, nodes), keep it iff the *same kind* of
violation still fires, repeat.  Live cells are not shrunk: their schedule
is the machine's, not a seed's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.errors import ReproError
from repro.fuzz.cell import Cell, Verdict, run_cell

ARTIFACT_VERSION = 2
ARTIFACT_KIND = "repro-cell"


@dataclass
class ShrinkResult:
    """A minimized failing cell plus how it got there."""

    cell: Cell
    verdict: Verdict
    trail: List[str] = field(default_factory=list)
    attempts: int = 0


def _variants(cell: Cell) -> Iterator[Tuple[str, Cell]]:
    """One-step simplifications, cheapest first.  Perturber features are
    independent seeded streams: disabling one keeps the others' draws."""
    for feat in ("pokes", "phases", "latency_profile", "tie_shuffle"):
        if (cell.perturb or {}).get(feat):
            yield f"disable {feat}", replace(
                cell, perturb={**cell.perturb, feat: False})
    if cell.fragments > 2:
        yield (f"fragments {cell.fragments}->{cell.fragments - 1}",
               replace(cell, fragments=cell.fragments - 1))
    gp = dict(cell.graph_params)
    if cell.graph_kind == "grid2d":
        for axis in ("rows", "cols"):
            if gp.get(axis, 0) > 2:
                smaller = {**gp, axis: max(gp[axis] // 2, 2)}
                yield (f"{axis} {gp[axis]}->{smaller[axis]}",
                       replace(cell, graph_params=smaller))
    else:
        floor = 5 if cell.graph_kind == "powerlaw" else 4
        smaller = {**gp, "n": max(gp.get("n", 0) // 2, floor)}
        if smaller["n"] < gp.get("n", 0):
            yield (f"n {gp['n']}->{smaller['n']}",
                   replace(cell, graph_params=smaller))


def shrink(cell: Cell, initial: Optional[Verdict] = None,
           program_cls: Any = None, max_attempts: int = 64,
           progress: Optional[Callable[[str], None]] = None
           ) -> ShrinkResult:
    """Greedily minimize a failing simulated cell: keep a candidate iff
    it violates an oracle the original violated (so the shrinker cannot
    wander off to another bug).  ``program_cls`` as in the failing run.
    """
    baseline = initial if initial is not None else run_cell(
        cell, program_cls=program_cls)
    if baseline.ok:
        raise ReproError("refusing to shrink a passing cell")
    kinds = baseline.oracles
    current, current_verdict = cell, baseline
    trail: List[str] = []
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for description, candidate in _variants(current):
            attempts += 1
            verdict = run_cell(candidate, program_cls=program_cls)
            if verdict.oracles & kinds:
                current, current_verdict = candidate, verdict
                trail.append(description)
                if progress is not None:
                    progress(f"shrink: {description} "
                             f"({verdict.summary()})")
                improved = True
                break
            if attempts >= max_attempts:
                break
    return ShrinkResult(cell=current, verdict=current_verdict, trail=trail,
                        attempts=attempts)


def save_artifact(shrunk: ShrinkResult, path: str) -> Dict[str, Any]:
    """Write the replayable JSON artifact; returns the written dict."""
    data = {"version": ARTIFACT_VERSION, "kind": ARTIFACT_KIND,
            **shrunk.verdict.to_dict(), "shrink_trail": list(shrunk.trail),
            "shrink_attempts": shrunk.attempts}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return json.loads(json.dumps(data))


def load_artifact(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"artifact {path} is not valid JSON: {exc}") \
            from exc
    if data.get("kind") == "repro-fuzz-failure":
        raise ReproError(
            f"{path} is a version-1 artifact; to convert it, rename its "
            f"'case' to 'cell', drop 'case.seed' ('perturb.seed' has it) "
            f"and set 'kind' to {ARTIFACT_KIND!r}, 'version' to 2")
    if data.get("kind") != ARTIFACT_KIND:
        raise ReproError(f"{path} is not a {ARTIFACT_KIND} artifact")
    if data.get("version") != ARTIFACT_VERSION:
        raise ReproError(
            f"artifact version {data.get('version')} unsupported "
            f"(expected {ARTIFACT_VERSION})")
    return data


def replay_artifact(path: str, program_cls: Any = None
                    ) -> Tuple[Verdict, bool]:
    """Re-run an artifact's cell; ``(verdict, reproduced)``.

    ``reproduced``: the replay violates an oracle the artifact recorded
    (exact for a simulated cell; after a fix it flips to False, which is
    a committed artifact's purpose as a regression probe).
    """
    data = load_artifact(path)
    verdict = run_cell(Cell.from_dict(data["cell"]), program_cls=program_cls)
    recorded = {v["oracle"] for v in data["violations"]}
    return verdict, bool(verdict.oracles & recorded)


def run_grid(cells: Iterable[Cell], *, artifact_dir: Optional[str] = None,
             shrink_failures: bool = True,
             progress: Optional[Callable[[str], None]] = None
             ) -> List[Verdict]:
    """Run every cell, shrink failing simulated ones, and write each
    cell's artifact (the shrunk one for a shrunk failure) into
    ``artifact_dir``, named after its label."""
    verdicts = []
    for cell in cells:
        verdict = run_cell(cell)
        verdicts.append(verdict)
        if progress is not None:
            progress(f"{cell.label}: {verdict.summary()}")
        shrunk = ShrinkResult(cell=cell, verdict=verdict)
        if not verdict.ok and shrink_failures and cell.runtime == "simulated":
            shrunk = shrink(cell, initial=verdict, progress=progress)
        if artifact_dir is not None:
            name = "".join("-" if c in "/ :" else c for c in cell.label)
            save_artifact(shrunk, os.path.join(artifact_dir, f"{name}.json"))
    return verdicts
