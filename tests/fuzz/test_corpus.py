"""The pinned corpus stays green and its artifacts stay fixed.

``tests/corpus/pinned-seeds.json`` holds seeds that must pass forever;
``tests/corpus/artifacts/*.json`` holds minimized failures from bugs
that were since fixed — replaying them must NOT reproduce (they are
regression probes, see tests/corpus/README.md).
"""

import glob
import json
import os

import pytest

from repro.fuzz import case_from_seed, replay_artifact, run_cell

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def _pinned():
    with open(os.path.join(CORPUS, "pinned-seeds.json")) as fh:
        data = json.load(fh)
    assert data["kind"] == "repro-fuzz-corpus"
    return data


_DATA = _pinned()
_ARTIFACTS = sorted(glob.glob(os.path.join(CORPUS, "artifacts", "*.json")))


class TestPinnedSeeds:
    @pytest.mark.parametrize("seed", _DATA["seeds"])
    def test_seed_green(self, seed):
        verdict = run_cell(case_from_seed(seed, smoke=_DATA["smoke"]))
        assert verdict.ok, f"seed {seed}: {verdict.summary()}"

    def test_corpus_is_nontrivial(self):
        assert len(_DATA["seeds"]) >= 20

    def test_first_seed_deterministic(self):
        seed = _DATA["seeds"][0]
        cell = case_from_seed(seed, smoke=_DATA["smoke"])
        assert run_cell(cell).signature == run_cell(cell).signature


class TestFixedArtifacts:
    def test_artifacts_exist(self):
        assert _ARTIFACTS

    @pytest.mark.parametrize(
        "path", _ARTIFACTS, ids=[os.path.basename(p) for p in _ARTIFACTS])
    def test_artifact_no_longer_reproduces(self, path):
        verdict, reproduced = replay_artifact(path)
        assert not reproduced, (
            f"{os.path.basename(path)} reproduces again: "
            f"{verdict.summary()}")
