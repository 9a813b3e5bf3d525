"""Injected-bug pipeline: oracle catches it, shrinker minimizes it,
artifact replays it.

The acceptance scenario from the issue: a deliberately non-monotonic
IncEval (violating condition T2) must be caught by the contraction
oracle, shrunk to a smaller failing case, and saved as a replayable
artifact that reproduces the failure under the broken program and passes
once the program is fixed.
"""

import pytest

from repro.algorithms.sssp import SSSPProgram
from repro.errors import ReproError
from repro.fuzz import (Cell, PerturberConfig, load_artifact,
                        replay_artifact, run_cell, save_artifact, shrink)
from repro.fuzz.shrink import _variants


class InflatingSSSP(SSSPProgram):
    """Deliberately breaks T2: inflates one finite distance per IncEval."""

    def inceval(self, frag, ctx, activated, query):
        out = super().inceval(frag, ctx, activated, query)
        for v in sorted(ctx.values, key=repr):
            d = ctx.values[v]
            if d not in (float("inf"), 0.0):
                ctx.set(v, d + 0.5)
                break
        return out


class RaisingSSSP(SSSPProgram):
    """Deliberately raises in IncEval (and so in every run of it)."""

    def inceval(self, frag, ctx, activated, query):
        raise ValueError("planted IncEval failure")


def _broken_case(mode="AAP"):
    return Cell(algorithm="sssp", graph_kind="grid2d",
                graph_params={"rows": 4, "cols": 4, "seed": 7},
                fragments=3, mode=mode,
                perturb=PerturberConfig.from_seed(11).to_dict())


class TestInjectedBug:
    def test_contraction_oracle_catches_it(self):
        verdict = run_cell(_broken_case(), program_cls=InflatingSSSP)
        assert not verdict.ok
        assert "contraction" in verdict.oracles

    def test_raising_program_is_a_crash_verdict(self):
        # the reference runs the program too: its exception must end up
        # in the verdict, not escape the runner (or the shrinker)
        verdict = run_cell(_broken_case(), program_cls=RaisingSSSP)
        assert verdict.oracles == {"crash"}
        assert "planted IncEval failure" in verdict.violations[0].message
        shrunk = shrink(_broken_case(), initial=verdict,
                        program_cls=RaisingSSSP, max_attempts=4)
        assert shrunk.verdict.oracles == {"crash"} and shrunk.trail

    def test_fixed_program_passes_same_case(self):
        verdict = run_cell(_broken_case(), program_cls=SSSPProgram)
        assert verdict.ok, verdict.summary()


class TestShrinker:
    def test_refuses_passing_case(self):
        with pytest.raises(ReproError):
            shrink(_broken_case())  # default (correct) program passes

    def test_minimizes_and_keeps_failure_kind(self):
        case = _broken_case()
        shrunk = shrink(case, program_cls=InflatingSSSP, max_attempts=32)
        assert not shrunk.verdict.ok
        assert "contraction" in shrunk.verdict.oracles
        # strictly simpler than where it started
        assert shrunk.trail
        assert shrunk.attempts >= len(shrunk.trail)
        gp, orig = shrunk.cell.graph_params, case.graph_params
        simpler = (shrunk.cell.fragments < case.fragments
                   or gp != orig
                   or sum(bool(v) for v in shrunk.cell.perturb.values())
                   < sum(bool(v) for v in case.perturb.values()))
        assert simpler

    def test_variants_never_yield_noops(self):
        cell = Cell(algorithm="sssp", graph_kind="powerlaw",
                    graph_params={"n": 5, "m": 2, "seed": 1},
                    fragments=2,
                    perturb=PerturberConfig(
                        seed=0, tie_shuffle=False, latency_profile=False,
                        phases=False, pokes=False).to_dict())
        assert list(_variants(cell)) == []


class TestArtifacts:
    def test_save_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        shrunk = shrink(_broken_case(), program_cls=InflatingSSSP,
                        max_attempts=16)
        data = save_artifact(shrunk, path)
        assert data == load_artifact(path)
        assert data["kind"] == "repro-cell" and data["version"] == 2
        assert Cell.from_dict(data["cell"]) == shrunk.cell

        verdict, reproduced = replay_artifact(path,
                                              program_cls=InflatingSSSP)
        assert reproduced
        assert not verdict.ok

        # the artifact's purpose: after the fix it stops reproducing
        verdict, reproduced = replay_artifact(path)
        assert not reproduced
        assert verdict.ok

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else", "version": 2}')
        with pytest.raises(ReproError):
            load_artifact(str(path))

    def test_version_1_is_refused_with_the_conversion(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text('{"kind": "repro-fuzz-failure", "version": 1, '
                        '"case": {"seed": 3}, "violations": []}')
        with pytest.raises(ReproError, match="rename its 'case' to 'cell'"):
            load_artifact(str(path))
