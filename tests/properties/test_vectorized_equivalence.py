"""Property tests: the vectorized fast path equals the generic path.

For every supported algorithm, random graph, partition cut, and parallel
model, a vectorized run must assemble the same answer as a generic run.
SSSP and CC are compared with exact equality (the dense kernels perform
the identical float operations); PageRank within the shipping tolerance
(accumulation order differs between the two paths).
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_mod
from repro import api
from repro.algorithms import (CCProgram, CCQuery, PageRankProgram,
                              PageRankQuery, SSSPProgram, SSSPQuery)
from repro.algorithms.pagerank import DENSE_EDGE_SHARE, _spmv_arrays
from repro.core.aggregators import Sum
from repro.core.dense import DenseContext
from repro.core.engine import Engine
from repro.fuzz import tolerance
from repro.graph import generators
from repro.graph.csr import CompactGraph, GraphArrays
from repro.graph.graph import Graph
from repro.partition.edge_cut import HashPartitioner
from repro.partition.fragment import BORDER_SETS, Fragment, NodeArrays
from repro.partition.vertex_cut import HashEdgePartitioner

MODES = ("AAP", "BSP", "AP", "SSP")
CUTS = {
    "edge": HashPartitioner,
    "vertex": HashEdgePartitioner,
}


def random_graph(seed: int, n: int) -> Graph:
    rng = random.Random(seed)
    kind = rng.choice(["powerlaw", "er", "grid"])
    if kind == "powerlaw":
        return generators.powerlaw(n, m=2, weighted=True, seed=seed)
    if kind == "er":
        return generators.erdos_renyi(n, 4.0 / n, weighted=True,
                                      directed=rng.random() < 0.5,
                                      seed=seed)
    side = max(2, int(n ** 0.5))
    return generators.grid2d(side, side, weighted=True, seed=seed)


def run_pair(program_cls, pg, query, mode):
    gen = api.run(program_cls(), pg, query, mode=mode)
    vec = api.run(program_cls(), pg, query, mode=mode, vectorized=True)
    return gen.answer, vec.answer


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("seed,n", [(1, 60), (2, 120), (3, 250)])
class TestExactEquality:
    def test_sssp(self, mode, cut, seed, n):
        g = random_graph(seed, n)
        pg = CUTS[cut]().partition(g, 4)
        source = next(iter(g.nodes))
        gen, vec = run_pair(SSSPProgram, pg, SSSPQuery(source=source),
                            mode)
        assert gen == vec  # bit-exact, floats included

    def test_cc(self, mode, cut, seed, n):
        g = random_graph(seed, n)
        pg = CUTS[cut]().partition(g, 4)
        gen, vec = run_pair(CCProgram, pg, CCQuery(), mode)
        assert gen == vec


def local_sinks(view) -> list:
    """The lids with no out-edge in the fragment."""
    return [lid for lid in range(len(view))
            if not view.out_edges(np.array([lid]), weighted=False)[1].size]


SEED_CASES = {
    # half the seeds still at infinity: they offer nothing
    "infinite": lambda view, rng: list(rng.choice(
        len(view), size=min(40, len(view)), replace=False)),
    # every shared copy, mirrors among them: under edge-cut no mirror
    # relaxes
    "mirrors": lambda view, rng: np.unique(view.routed).tolist(),
    # nodes with no out-edge: the first wave's expansion is empty
    "empty": lambda view, rng: local_sinks(view),
}


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("case", sorted(SEED_CASES))
@pytest.mark.parametrize("many", [False, True], ids=["scalar", "array"])
class TestSSSPWaveSeeds:
    """The dense SSSP kernel equals the generic Dijkstra run from the same
    status values and the same seeds, bit for bit, in the values and in
    the nodes it marks changed: seeds at infinity, seeds that are
    mirrors, a wave whose expansion is empty; a handful of seeds (the
    scalar waves) and many (the array waves)."""

    def test_dense_equals_generic(self, cut, case, many):
        g = generators.erdos_renyi(400, 2.0 / 400, weighted=True,
                                   directed=True, seed=11)
        pg = CUTS[cut]().partition(g, 2)
        program, query = SSSPProgram(), SSSPQuery(source=0)
        rng = np.random.default_rng(5)
        mirror_seeds = 0
        for fid, frag in enumerate(pg.fragments):
            generic = Engine(program, pg, query).contexts[fid]
            dense = Engine(program, pg, query,
                           vectorized=True).contexts[fid]
            view = dense.view
            lids = SEED_CASES[case](view, rng)
            lids = sorted(lids) if many else sorted(lids)[:10]
            assert len(lids) > 16 if many else 0 < len(lids) <= 16
            mirror_seeds += int((~view.owned_mask[lids]).sum())
            # a state of finite and infinite distances; the seeds of the
            # "infinite" case half at infinity, every other seed finite
            values = np.where(rng.random(len(view)) < 0.5, math.inf,
                              rng.uniform(0.0, 40.0, len(view)))
            finite = rng.uniform(0.0, 40.0, len(lids))
            values[lids] = finite if case != "infinite" else np.where(
                np.arange(len(lids)) % 2 == 0, math.inf, finite)
            dense.array[:] = values
            dense.mask[:] = False
            gids = view.gids.tolist()
            generic.values.update(zip(gids, values.tolist()))
            generic.changed = set()
            program._dense_relax(frag, dense,
                                 np.array(lids, dtype=np.int64))
            program._dijkstra(frag, generic, {gids[lid] for lid in lids})
            assert dict(zip(gids, dense.array.tolist())) == generic.values
            assert {gids[lid] for lid in np.flatnonzero(dense.mask)} \
                == generic.changed
        assert mirror_seeds or case != "mirrors"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed,n", [(4, 80), (5, 200)])
class TestPageRankTolerance:
    def test_pagerank(self, mode, seed, n):
        g = random_graph(seed, n)
        pg = HashPartitioner().partition(g, 4)
        query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
        gen, vec = run_pair(PageRankProgram, pg, query, mode)
        assert set(gen) == set(vec)
        # both paths stop shipping below eps_node; residuals scale with
        # in-degree: the conformance cells' one tolerance
        worst = max(abs(gen[v] - vec[v]) for v in gen)
        assert worst <= tolerance(PageRankProgram(), g, query)


class TestLiveRuntimes:
    """Spot checks on the wall-clock runtimes (slower, so fewer cases)."""

    def _graph(self):
        return generators.powerlaw(150, m=2, weighted=True, seed=9)

    def test_threaded_sssp_exact(self):
        from repro.core.engine import Engine
        from repro.core.modes import make_policy
        from repro.runtime.threaded import ThreadedRuntime
        g = self._graph()
        pg = HashPartitioner().partition(g, 4)
        answers = []
        for vectorized in (False, True):
            eng = Engine(SSSPProgram(), pg, SSSPQuery(source=0),
                         vectorized=vectorized)
            answers.append(ThreadedRuntime(eng, make_policy("AP")).run()
                           .answer)
        assert answers[0] == answers[1]

    def test_multiprocess_cc_exact(self):
        from repro.runtime.multiprocess import MultiprocessRuntime
        g = self._graph()
        pg = HashPartitioner().partition(g, 3)
        answers = []
        for vectorized in (False, True):
            rt = MultiprocessRuntime(CCProgram(), pg, CCQuery(),
                                     mode="AP", vectorized=vectorized)
            answers.append(rt.run().answer)
        assert answers[0] == answers[1]

    def test_multiprocess_vertex_cut_sssp_exact(self):
        from repro.runtime.multiprocess import MultiprocessRuntime
        g = self._graph()
        pg = HashEdgePartitioner().partition(g, 3)
        answers = []
        for vectorized in (False, True):
            rt = MultiprocessRuntime(SSSPProgram(), pg,
                                     SSSPQuery(source=0),
                                     mode="AAP", vectorized=vectorized)
            answers.append(rt.run().answer)
        assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# The PageRank wave kernel against a straight-line reference
# ----------------------------------------------------------------------
def raw_csr(n, edges, directed):
    """A ``CompactGraph`` from raw arrays: unlike ``from_edges`` (and
    ``Graph``) this keeps self-loops as well as parallel edges — the
    kernel must not care."""
    if not directed:
        edges = edges + [(v, u) for u, v in edges]
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    wgt = np.ones(len(edges))
    fwd = CompactGraph._build_csr(n, src, dst, wgt)
    rev = CompactGraph._build_csr(n, dst, src, wgt) if directed else fwd
    return CompactGraph(n, *fwd, *rev, directed, len(edges))


class CountingContext(DenseContext):
    """Counts the kernel's waves: it books work once per wave.  Pending
    mass must never be negative there: the kernel's threshold test
    takes no ``abs``."""

    waves = 0

    def add_work(self, amount):
        self.waves += 1
        assert self.array.min() >= 0.0
        super().add_work(amount)


def kernel_state(n, edges, directed, owned, pend, eps_node):
    """A one-fragment context over ``edges`` with ``pend`` pending: nodes
    ``0..n-1``, the ``owned`` ones on fragment 0, the rest mirrors."""
    ids = np.arange(n, dtype=np.int64)
    nobody = np.zeros(0, dtype=np.int64)
    frag = Fragment(0, GraphArrays(
        ids.astype(object), nobody, nobody, np.zeros(0), directed, {}, True,
        ids), NodeArrays(ids.astype(object), np.where(owned, 0, 1),
                         {name: np.zeros(n, dtype=bool)
                          for name in BORDER_SETS}, nobody, nobody))
    frag.compact().csr = raw_csr(n, edges, directed)
    ctx = CountingContext(frag, Sum())
    ctx.array[:] = pend
    ctx.scratch.update(score_arr=np.zeros(n), eps_node=eps_node)
    return frag, ctx


def reference_propagate(csr, owned, pend, eps_node, damping, seeds):
    """Always-sparse, one Python step per node and per edge.  Sums each
    target's gain in CSR edge order, as ``bincount`` does, so it equals
    the kernel bit for bit and no threshold can fall between the two."""
    indptr, indices = csr.out_indptr, csr.out_indices
    pend = pend.copy()
    score = np.zeros(pend.size)
    mask = np.zeros(pend.size, dtype=bool)
    work = 0
    wave_edges = []
    frontier = sorted({int(v) for v in seeds if owned[v]})
    while True:
        active = [v for v in frontier if abs(pend[v]) > eps_node]
        if not active:
            break
        gain = np.zeros(pend.size)
        touched = set()
        edges = 0
        for v in active:
            delta = pend[v]
            pend[v] = 0.0
            score[v] += delta
            out = indices[indptr[v]:indptr[v + 1]]
            for u in out:
                gain[u] += damping * delta / out.size
                touched.add(int(u))
            edges += out.size
        work += len(active) + edges
        wave_edges.append(edges)
        if not edges:
            break
        pend += gain
        mask[sorted(touched)] = True
        frontier = sorted(v for v in touched if owned[v])
    return pend, score, mask, work, wave_edges


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(2, 10))
    node = st.integers(0, n - 1)
    # lists, not sets: parallel edges and self-loops included
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    owned = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pending = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    pend = draw(st.lists(pending, min_size=n, max_size=n))
    seeds = draw(st.one_of(
        st.just([]),                                        # nothing
        st.just([v for v in range(n) if not owned[v]]),    # mirrors only
        st.just(list(range(n))),                            # PEval
        st.lists(node, max_size=2 * n)))                   # duplicates
    return (n, edges, draw(st.booleans()), owned, pend, seeds,
            # (not 0.0: mass decays by `damping` a wave and would take
            # thousands of waves to underflow)
            draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.3])),
            draw(st.floats(0.05, 0.95)))


class TestPageRankKernel:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kernel_cases())
    def test_equals_reference(self, case):
        n, edges, directed, owned, pend, seeds, eps_node, damping = case
        frag, ctx = kernel_state(n, edges, directed, owned, pend, eps_node)
        csr = ctx.view.csr
        # the memoized rows, built before expansions are counted: the
        # out-edges of owned nodes
        owned_rows = _spmv_arrays(frag)[3].size
        assert owned_rows == np.diff(csr.out_indptr)[np.array(owned)].sum()
        sparse_waves = []
        real_expand = csr_mod.expand_ranges

        def counting_expand(starts, counts):
            sparse_waves.append(int(counts.sum()))
            return real_expand(starts, counts)

        with mock.patch.object(csr_mod, "expand_ranges", counting_expand):
            PageRankProgram()._dense_propagate(
                frag, ctx, PageRankQuery(damping=damping),
                np.array(seeds, dtype=np.int64))
        want_pend, want_score, want_mask, want_work, wave_edges = \
            reference_propagate(csr, np.array(owned), np.array(pend),
                                eps_node, damping, seeds)
        assert np.array_equal(ctx.array, want_pend)
        assert np.array_equal(ctx.scratch["score_arr"], want_score)
        assert np.array_equal(ctx.mask, want_mask)
        assert ctx.take_work() == want_work
        assert ctx.waves == len(wave_edges)
        assert ctx.array.min() >= 0.0
        # the branch is a function of the frontier's edge count alone,
        # against the out-edges of owned nodes (the full sweep's rows)
        switch = DENSE_EDGE_SHARE * owned_rows
        assert sparse_waves == [e for e in wave_edges if 0 < e <= switch]

    @pytest.mark.parametrize("over", [False, True])
    def test_switch_point(self, over):
        """A frontier holding exactly the switch share of the edges
        expands its own ranges; one edge more takes the full sweep.
        Either way the answer is the reference's."""
        total = 20
        at = int(DENSE_EDGE_SHARE * total)
        n = total + 3
        # node 0 has `at` out-edges, node 1 has `at + 1`, node 2 the rest
        edges = [(0, 3 + i) for i in range(at)]
        edges += [(1, 3 + i) for i in range(at + 1)]
        edges += [(2, 3 + i) for i in range(total - len(edges))]
        pend = [0.0] * n
        pend[1 if over else 0] = 1.0
        frag, ctx = kernel_state(n, edges, True, [True] * n, pend, 1e-9)
        assert _spmv_arrays(frag)[3].size == total  # every node owned
        calls = []
        real_expand = csr_mod.expand_ranges
        with mock.patch.object(
                csr_mod, "expand_ranges",
                lambda s, c: calls.append(1) or real_expand(s, c)):
            PageRankProgram()._dense_propagate(
                frag, ctx, PageRankQuery(), np.arange(n))
        # wave 1 is the seeded node, wave 2 its dangling targets
        assert ctx.waves == 2
        assert len(calls) == (0 if over else 1)
        want = reference_propagate(ctx.view.csr, np.ones(n, dtype=bool),
                                   np.array(pend), 1e-9, 0.85, range(n))
        assert np.array_equal(ctx.array, want[0])
        assert np.array_equal(ctx.scratch["score_arr"], want[1])
        assert np.array_equal(ctx.mask, want[2])


# ----------------------------------------------------------------------
# The all-rows kernel, kept as an oracle for the one that replaced it
# ----------------------------------------------------------------------
def all_rows_propagate(self, frag, ctx, query, seeds):
    """``PageRankProgram._dense_propagate`` as it was while its full
    sweep read every out-edge of the fragment, mirror sources included,
    its sparse waves read each share back through the per-edge source
    lid and its threshold test took ``abs``."""
    view = ctx.view
    degrees = view.out_degrees()
    divisor = np.maximum(degrees, 1).astype(np.float64)
    edge_src, edge_dst, _ = view.out_edges(weighted=False)
    pend = ctx.array
    score = ctx.scratch["score_arr"]
    eps_node = ctx.scratch["eps_node"]
    d = query.damping
    owned = view.owned_mask
    n = pend.size
    dense_above = 0.3 * edge_dst.size
    share_of = np.empty(n)
    front = np.zeros(n, dtype=bool)
    front[np.asarray(seeds, dtype=np.int64)] = True
    while True:
        front &= owned
        front &= np.abs(pend) > eps_node
        active = np.nonzero(front)[0]
        if active.size == 0:
            break
        delta = pend[active]
        pend[active] = 0.0
        score[active] += delta
        counts = degrees[active]
        edges = int(counts.sum())
        ctx.add_work(int(active.size) + edges)
        if edges == 0:
            break
        share = d * delta / divisor[active]
        if edges > dense_above:
            per_node = np.zeros(n)
            per_node[active] = share
            gain = np.bincount(edge_dst, weights=per_node[edge_src],
                               minlength=n)
        else:
            src, dst, _ = view.out_edges(active, weighted=False)
            share_of[active] = share
            gain = np.bincount(dst, weights=share_of[src], minlength=n)
        pend += gain
        front = gain != 0.0
        ctx.mask |= front


class AllRowsPageRank(PageRankProgram):
    _dense_propagate = all_rows_propagate


def bsp_rounds(engine):
    """Run ``engine`` to its fixpoint in BSP order on one thread (as the
    benchmark's sequential pass does); per round the worker, its work,
    its activated count and the bytes of every batch it shipped."""
    m = engine.num_workers
    inbox, rounds = [[] for _ in range(m)], []

    def deliver(out):
        rounds.append((out.wid, out.work, out.activated, [
            (msg.dst, msg.ids.tobytes(), msg.payloads.tobytes())
            for msg in out.messages]))
        for msg in out.messages:
            inbox[msg.dst].append(msg)

    for out in [engine.run_peval(wid) for wid in range(m)]:
        deliver(out)
    round_no = 1
    while any(inbox):
        current, inbox = inbox, [[] for _ in range(m)]
        for wid in range(m):
            if current[wid]:
                deliver(engine.run_inceval(wid, current[wid], round_no))
        round_no += 1
    return rounds


class TestAllRowsKernel:
    """The kernel equals the all-rows one bit for bit on the quick-size
    workload graphs: the same rounds, work, shipped entries, pending and
    score arrays, change masks and answer."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("graph", ["powerlaw-5k", "rmat-10"])
    def test_bit_identical(self, graph, m):
        from repro.core.engine import Engine
        if graph == "powerlaw-5k":
            g = generators.powerlaw(5_000, m=3, weighted=True, seed=1)
        else:
            g = generators.rmat(10, edge_factor=6, directed=True, seed=1)
        pg = HashPartitioner().partition(g, m)
        n = g.num_nodes
        query = PageRankQuery(epsilon=5e-4 * n, num_nodes=n)
        runs = []
        for program in (PageRankProgram(), AllRowsPageRank()):
            engine = Engine(program, pg, query, vectorized=True)
            rounds = bsp_rounds(engine)
            state = [(ctx.array.tobytes(), ctx.scratch["score_arr"].tobytes(),
                      ctx.mask.tobytes()) for ctx in engine.contexts]
            runs.append((rounds, state, engine.assemble()))
        # IncEval rounds ran, wherever there are fragments to talk to
        assert (len(runs[0][0]) > m) == (m > 1)
        assert runs[0] == runs[1]
