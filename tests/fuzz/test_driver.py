"""Seeded fuzz cells: generation, determinism, clean verdicts."""

import pytest

from repro.errors import ReproError
from repro.fuzz import (FUZZ_ALGORITHMS, Cell, build_graph, case_from_seed,
                        run_cell)

SMOKE_SEEDS = list(range(8))


class TestCaseGeneration:
    def test_deterministic(self):
        for seed in SMOKE_SEEDS:
            assert case_from_seed(seed) == case_from_seed(seed)

    def test_roundtrip(self):
        for seed in SMOKE_SEEDS:
            cell = case_from_seed(seed, smoke=True)
            assert Cell.from_dict(cell.to_dict()) == cell

    def test_smoke_changes_only_size(self):
        big = case_from_seed(4)
        small = case_from_seed(4, smoke=True)
        assert big.algorithm == small.algorithm
        assert big.mode == small.mode
        assert big.graph_kind == small.graph_kind
        assert big.perturb == small.perturb

    def test_seeds_cover_the_space(self):
        cells = [case_from_seed(s, smoke=True) for s in range(60)]
        assert {c.algorithm for c in cells} == set(FUZZ_ALGORITHMS)
        assert len({c.mode for c in cells}) >= 4
        # fuzz cells are simulated, generic and fault-free
        assert {(c.runtime, c.vectorized, c.faults) for c in cells} == \
            {("simulated", False, ())}

    def test_build_graph_rejects_unknown_kind(self):
        cell = case_from_seed(0, smoke=True)
        with pytest.raises(ReproError):
            build_graph("nope", cell.graph_params)


class TestRunCase:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_smoke_seeds_pass(self, seed):
        verdict = run_cell(case_from_seed(seed, smoke=True))
        assert verdict.ok, verdict.summary()
        assert verdict.answer is not None
        assert len(verdict.signature) > 0

    def test_same_seed_same_schedule(self):
        cell = case_from_seed(2, smoke=True)
        r1 = run_cell(cell)
        r2 = run_cell(cell)
        assert r1.signature == r2.signature
        assert r1.answer == r2.answer

    def test_different_seeds_differ(self):
        sigs = {run_cell(case_from_seed(s, smoke=True)).signature
                for s in SMOKE_SEEDS[:4]}
        assert len(sigs) == 4
