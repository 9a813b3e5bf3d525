"""Property-based tests for the model-simulation layers.

Proposition 3 / Theorem 4, empirically: Pregel programs on the AAP engine
agree with the dedicated superstep engine; MapReduce-on-PIE agrees with
the local reference executor for random jobs and inputs.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.baselines.vertex_centric import (BellmanFordSSSP,
                                            SuperstepVertexEngine)
from repro.compat.mapreduce import (LocalMapReduce, MapReduceJob, Subroutine,
                                    run_mapreduce)
from repro.compat.pregel import PregelAdapter, PregelVertexProgram
from repro.graph import generators

SETTINGS = dict(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class _PregelSSSP(PregelVertexProgram):
    def __init__(self, source):
        self.source = source

    def initial_value(self, vid, graph):
        return 0.0 if vid == self.source else math.inf

    def compute(self, ctx, messages, superstep):
        best = min([ctx.value] + list(messages))
        if best < ctx.value or (superstep == 0 and ctx.vid == self.source):
            ctx.value = best
            for u, w in ctx.out_edges():
                ctx.send(u, best + w)
        ctx.vote_to_halt()

    def combine(self, a, b):
        return min(a, b)


class TestPregelEquivalence:
    @given(n=st.integers(8, 60), seed=st.integers(0, 200),
           m=st.integers(1, 5),
           mode=st.sampled_from(["BSP", "AP", "AAP"]))
    @settings(**SETTINGS)
    def test_adapter_matches_superstep_engine(self, n, seed, m, mode):
        g = generators.powerlaw(n, m=2, weighted=True, seed=seed)
        source = next(iter(g.nodes))
        adapter = api.run(PregelAdapter(_PregelSSSP(source)), g, None,
                          num_fragments=m, mode=mode)
        engine = SuperstepVertexEngine(g, max(m, 1))
        reference = engine.run(BellmanFordSSSP(source))
        for v in reference.answer:
            assert adapter.answer[v] == pytest.approx(reference.answer[v])


# a small pool of deterministic mapper/reducer building blocks
def _tokenize(key, value):
    for token in str(value).split():
        yield token, 1


def _emit_length(key, value):
    yield len(str(value)) % 5, value


def _identity_m(key, value):
    yield key, value


def _count(key, values):
    yield key, len(values)


def _concat_sorted(key, values):
    yield key, "|".join(sorted(str(v) for v in values))


def _maximum(key, values):
    yield key, max(str(v) for v in values)


MAPPERS = [_tokenize, _emit_length, _identity_m]
REDUCERS = [_count, _concat_sorted, _maximum]


class TestMapReduceEquivalence:
    @given(stage_picks=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=3),
        words=st.lists(st.text(
            alphabet="abc ", min_size=1, max_size=12),
            min_size=0, max_size=10),
        n=st.integers(1, 5))
    @settings(**SETTINGS)
    def test_random_jobs_match_local(self, stage_picks, words, n):
        job = MapReduceJob(tuple(
            Subroutine(MAPPERS[mi], REDUCERS[ri])
            for mi, ri in stage_picks))
        pairs = list(enumerate(words))
        local = LocalMapReduce(job).run(pairs)
        simulated = run_mapreduce(job, pairs, n=n)
        assert sorted(map(repr, local)) == sorted(map(repr, simulated))
