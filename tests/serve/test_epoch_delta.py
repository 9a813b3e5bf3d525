"""The epoch apply is change-bounded and still exact, on both engines.

A service over integer node ids runs the dense engine on arrays that grow
in place; ``generic()`` makes the same program ``dense_capable = False``,
which is how a service ends up on the generic engine (no knob).  Three
parts.  *Exact*: after every epoch of a seeded insertion stream the
delta-patched snapshot equals a fresh ``engine.assemble()`` and
``serve_epoch_changed`` grew by exactly the size of the full diff (the
service's changed keys are keys whose value moved, so together these pin
the set).  *Differential*: the dense and the generic service agree on
answer and changed count after every epoch.  *Bounded*: with every
whole-fragment entry point an epoch used to go through patched to raise,
epochs still apply (and start no thread), and the routing-index lookups
an epoch makes do not grow with the graph.
"""

import random
import threading
from itertools import count

import numpy as np
import pytest

from repro.algorithms import CCProgram, CCQuery, SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.core.pie import PIEProgram
from repro.graph import generators, stable
from repro.graph.csr import GraphArrays
from repro.graph.graph import Graph
from repro.partition.fragment import Fragment, FragmentCSR, built_on_read
from repro.serve import GraphService, verify_against_recompute
from repro.streaming import UpdateBatch
from tests.conftest import generic

ALGOS = {
    "sssp": lambda: (SSSPProgram(), SSSPQuery(source=0)),
    "cc": lambda: (CCProgram(), CCQuery()),
}
_MISSING = object()


def changed_so_far(svc):
    """(epochs, changed keys) the service has reported so far."""
    hist = svc.obs.metrics.histogram("serve_epoch_changed")
    return hist.count, hist.total


def owned_by(fid, m, taken, start=1000):
    """The next unused node id the placement function puts on fragment
    ``fid``."""
    v = next(v for v in count(start)
             if v not in taken and stable.owner(v, m) == fid)
    taken.add(v)
    return v


def islands(directed, m):
    """A connected core plus, per fragment, two 3-node paths that live
    entirely inside it: border-less components with interior nodes."""
    g = Graph(directed=directed)
    core = generators.powerlaw(40, m=2, weighted=True, seed=7)
    for u, v, w in core.edges():
        g.add_edge(u, v, w)
    taken = set(g.nodes)
    paths = []
    for fid in range(m):
        for _ in range(2):
            a, b, c = (owned_by(fid, m, taken) for _ in range(3))
            g.add_edge(a, b, 1.0)
            g.add_edge(b, c, 1.5)
            paths.append((fid, (a, b, c)))
    return g, paths, taken


def scripted_batches(g, paths, taken, m, rng):
    """The stream: the cases the delta has to get right, then noise.
    Reads ``g`` once, so it does not matter when the batches are applied."""
    by_fid = {}
    for fid, path in paths:
        by_fid.setdefault(fid, []).append(path)
    first, second = by_fid[0]
    other = by_fid[m - 1][0] if m > 1 else second
    n1, n2, n3, n4 = (owned_by(rng.randrange(m), m, taken, 5000)
                      for _ in range(4))
    scripted = [
        # merge two border-less components of one fragment: no status
        # variable is written, yet every member's cid may move
        [(first[2], second[0], 0.7)],
        # the first cut edge of interior nodes (m > 1), and reach them
        [(first[1], other[1], 0.4), (0, first[0], 0.3)],
        # brand-new nodes: one hanging off the core, a chain of two, and
        # one bridging an untouched island to the core
        [(1, n1, 0.2), (n2, n3, 1.0), (2, n2, 0.6),
         (by_fid[m - 1][1][0], n4, 0.5), (n4, 3, 0.9)]]
    yield from scripted
    # noise: novel edges between existing nodes and to new nodes
    nodes = sorted(g.nodes) + [n1, n2, n3, n4]
    edges = {frozenset(e[:2]) for e in g.edges()}
    edges.update(frozenset(e[:2]) for batch in scripted for e in batch)
    for _ in range(5):
        batch = []
        while len(batch) < 4:
            u = rng.choice(nodes)
            if rng.random() < 0.4:
                v = owned_by(rng.randrange(m), m, taken, 9000)
                nodes.append(v)
            else:
                v = rng.choice(nodes)
            if u == v or frozenset((u, v)) in edges:
                continue
            edges.add(frozenset((u, v)))
            batch.append((u, v, round(rng.uniform(0.1, 3.0), 2)))
        yield batch


def check_every_epoch(svc, batches):
    """Apply ``batches`` one epoch at a time; after each, the patched
    snapshot is the full Assemble and the epoch reported as many changed
    keys as the full diff has."""
    before = dict(svc.engine.assemble())
    assert svc.answer == before
    for edges in batches:
        svc.ingest(UpdateBatch(insertions=tuple(edges)))
        epochs, changed = changed_so_far(svc)
        assert svc.pump(1) == 1
        full = dict(svc.engine.assemble())
        assert svc.answer == full
        diff = {k for k, val in full.items()
                if before.get(k, _MISSING) != val}
        assert changed_so_far(svc) == (epochs + 1, changed + len(diff))
        before = full
    assert verify_against_recompute(svc)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("runtime", ["simulated", "threaded"])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_delta_patched_answer_equals_assemble(algo, runtime, m, directed):
    program, query = ALGOS[algo]()
    g, paths, taken = islands(directed, m)
    svc = GraphService(program, g, query, num_fragments=m, runtime=runtime)
    assert svc.status()["engine"] == "dense"
    rng = random.Random(f"{algo}-{runtime}-{m}-{directed}")
    check_every_epoch(svc, scripted_batches(svc.graph, paths, taken, m, rng))


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_dense_and_generic_services_agree_every_epoch(algo, m, directed):
    """Same stream, both engines: identical answer and ``changed`` count
    after every epoch — the size of the epoch's diff on both — and both
    equal to a from-scratch recompute."""
    program, query = ALGOS[algo]()
    g, paths, taken = islands(directed, m)
    services = [GraphService(prog, g, query, num_fragments=m,
                             runtime="simulated")
                for prog in (program, generic(program))]
    assert [svc.status()["engine"] for svc in services] \
        == ["dense", "generic"]
    before = services[0].answer
    assert services[1].answer == before
    rng = random.Random(f"{algo}-{m}-{directed}")
    for edges in scripted_batches(g, paths, taken, m, rng):
        epochs, changed = changed_so_far(services[0])
        for svc in services:
            svc.ingest(UpdateBatch(insertions=tuple(edges)))
            assert svc.pump(1) == 1
        dense, other = services
        after = dense.answer
        assert other.answer == after
        diff = [k for k, val in after.items()
                if before.get(k, _MISSING) != val]
        assert changed_so_far(dense) == changed_so_far(other) \
            == (epochs + 1, changed + len(diff))
        before = after
    assert all(verify_against_recompute(svc) for svc in services)


def test_cc_borderless_merge_moves_interior_answers():
    """The case ``written`` alone would miss: no ``ctx.set`` happens."""
    g, paths, _ = islands(False, 2)
    svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=2,
                       runtime="simulated")
    (_, first), (_, second) = paths[0], paths[1]
    svc.ingest(UpdateBatch.of((first[2], second[0])))
    svc.flush()
    cid = min(first + second)
    assert {svc.answer[v] for v in first + second} == {cid}
    hist = svc.obs.metrics.histogram("serve_epoch_changed")
    assert hist.total == 3  # the three members whose cid moved


def test_cc_root_that_moved_is_absorbed_in_the_same_batch():
    """Fragment 0 holds components A (own cid), B and C (both cid ``z``,
    through different mirrors of fragment 1).  One batch makes A absorb B
    — A's cid moves to ``z`` — and then C, the largest, absorb A at an
    unchanged cid: A's members moved although neither side of the second
    union changed its cid."""
    taken = set()
    z, p, q = (owned_by(1, 2, taken, 0) for _ in range(3))
    a = [owned_by(0, 2, taken, 100) for _ in range(3)]
    b = owned_by(0, 2, taken, 100)
    c = [owned_by(0, 2, taken, 100) for _ in range(5)]
    g = Graph(directed=False)
    for path in ((z, p, q), a, c):
        for u, v in zip(path, path[1:]):
            g.add_edge(u, v, 1.0)
    g.add_edge(b, p, 1.0)
    g.add_edge(c[0], q, 1.0)
    svc = GraphService(CCProgram(), g, CCQuery(), num_fragments=2,
                       runtime="simulated")
    assert {svc.answer[v] for v in a} == {min(a)}
    check_every_epoch(svc, [[(a[0], b, 1.0), (a[1], c[0], 1.0)]])
    assert set(svc.answer.values()) == {z}


def test_program_without_a_delta_hook_falls_back_to_assemble():
    """Declaring nothing means "unknown": full Assemble and diff."""
    class Undeclared(SSSPProgram):
        answer_delta = PIEProgram.answer_delta
        dense_answer_delta = PIEProgram.dense_answer_delta

    for program in (Undeclared(), generic(Undeclared())):
        g, paths, taken = islands(False, 2)
        svc = GraphService(program, g, SSSPQuery(source=0),
                           num_fragments=2, runtime="simulated")
        assert svc.engine.answer_delta() is None
        check_every_epoch(svc, scripted_batches(svc.graph, paths, taken, 2,
                                                random.Random(1)))


def test_tracking_starts_clean_after_the_initial_run():
    """Components whose cid moved during PEval/IncEval of the initial run
    are not part of the first epoch's delta."""
    g, _, _ = islands(False, 2)
    for program in (CCProgram(), generic(CCProgram())):
        svc = GraphService(program, g, CCQuery(), num_fragments=2,
                           runtime="simulated")
        assert svc.engine.answer_delta() == {}


class TestNoFragmentSizedStep:
    def forbid(self, monkeypatch, svc):
        """Every whole-fragment entry point an epoch could fall back on:
        the generic ones the parent's epoch called, and on arrays every
        way to rebuild a view, a CSR, a route table, a context or a
        container (a merge is the one O(fragment) step left, and this
        stream stays under its threshold)."""
        def boom(*args, **kwargs):
            raise AssertionError("O(fragment) call inside an epoch")
        for name in ("assemble", "init_values", "dense_assemble",
                     "dense_seed", "make_dense_context"):
            monkeypatch.setattr(type(svc.program), name, boom)
        monkeypatch.setattr(Engine, "assemble", boom)
        monkeypatch.setattr(Engine, "_checked_routes", boom)
        monkeypatch.setattr(Fragment, "shared_nodes", property(boom))
        monkeypatch.setattr(Fragment, "border_nodes", property(boom))
        monkeypatch.setattr(FragmentCSR, "__init__", boom)
        monkeypatch.setattr(FragmentCSR, "merge", boom)
        monkeypatch.setattr(GraphArrays, "of", boom)
        monkeypatch.setattr(GraphArrays, "to_graph", boom)
        if svc.engine.vectorized:  # the generic engine reads containers
            monkeypatch.setattr(built_on_read, "__get__", boom)

    @pytest.mark.parametrize("runtime", ["simulated", "threaded"])
    @pytest.mark.parametrize("algo", sorted(ALGOS))
    @pytest.mark.parametrize("engine", ["dense", "generic"])
    def test_epochs_apply_without_whole_fragment_calls(
            self, monkeypatch, engine, algo, runtime):
        program, query = ALGOS[algo]()
        if engine == "generic":
            program = generic(program)
        g, paths, taken = islands(False, 2)
        svc = GraphService(program, g, query, num_fragments=2,
                           runtime=runtime)
        assert svc.status()["engine"] == engine
        reference = GraphService(generic(program), g, query,
                                 num_fragments=2, runtime="simulated")
        batches = list(scripted_batches(svc.graph, paths, taken, 2,
                                        random.Random(3)))
        self.forbid(monkeypatch, svc)
        for edges in batches:
            svc.ingest(UpdateBatch(insertions=tuple(edges)))
        assert svc.flush() == len(batches)
        answer = dict(svc._answer)
        monkeypatch.undo()
        assert not any(part["merges"] for part in svc.status()["fragments"])
        for edges in batches:
            reference.ingest(UpdateBatch(insertions=tuple(edges)))
        reference.flush()
        assert answer == dict(reference.engine.assemble())

    def test_epochs_start_no_thread(self, monkeypatch):
        """PEval ran on threads; an epoch continues on the caller's: its
        latency must not be the scheduler's (ledger 4, "Steady under
        load")."""
        g, paths, taken = islands(False, 2)
        svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                           num_fragments=2, runtime="threaded")

        def boom(self):
            raise AssertionError("thread started inside an epoch")
        monkeypatch.setattr(threading.Thread, "start", boom)
        for edges in scripted_batches(svc.graph, paths, taken, 2,
                                      random.Random(3)):
            svc.ingest(UpdateBatch(insertions=tuple(edges)))
            assert svc.query(0, staleness_bound=0).served
        monkeypatch.undo()
        assert svc.epoch > 0 and verify_against_recompute(svc)

    def test_routing_lookups_do_not_grow_with_the_graph(self, monkeypatch):
        """Same batches, 8x the graph: the epoch asks the routing index
        about the nodes the batch touched, not about the fragment."""
        calls = [0]

        def counting(lookup):
            def counted(self, v):
                calls[0] += 1
                return lookup(self, v)
            return counted

        rng = random.Random(5)
        batches = [[(rng.randrange(2000), 50_000 + 2 * i + j,
                     round(rng.uniform(1.0, 4.0), 2)) for j in range(2)]
                   + [tuple(rng.sample(range(2000), 2)) + (2.5,)
                      for _ in range(2)]
                   for i in range(6)]
        per_size = {}
        for n in (2000, 16000):
            g = generators.powerlaw(n, m=3, weighted=True, seed=1)
            novel = [[e for e in edges if not g.has_edge(e[0], e[1])]
                     for edges in batches]
            svc = GraphService(SSSPProgram(), g, SSSPQuery(source=0),
                               num_fragments=2, runtime="simulated")
            # the routing index: a dict on the generic path, pairs over
            # lids (looked up first) on arrays
            for cls, name in ((Fragment, "locations"),
                              (FragmentCSR, "peers_of"),
                              (FragmentCSR, "lid")):
                monkeypatch.setattr(cls, name,
                                    counting(getattr(cls, name)))
            calls[0] = 0
            for edges in novel:
                svc.ingest(UpdateBatch(insertions=tuple(edges)))
            svc.flush()
            monkeypatch.undo()
            per_size[n] = calls[0]
            assert verify_against_recompute(svc)
        edges = sum(len(b) for b in batches)
        # a handful per inserted edge, at either size
        assert all(0 < asked <= 8 * edges for asked in per_size.values())


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_merges_and_capacity_doublings_keep_lids_and_answers(algo, directed):
    """A stream long enough for every fragment to fold its appended edges
    into its CSR at least twice and to outgrow its columns: no lid ever
    changes, the lookups agree with a dict oracle before and after each
    merge, the merges are observable, and the answer is the recompute's at
    every step."""
    program, query = ALGOS[algo]()
    g, _, taken = islands(directed, 2)
    svc = GraphService(program, g, query, num_fragments=2,
                       runtime="simulated")
    views = [frag.compact() for frag in svc.pg]
    capacities = [view.capacity for view in views]
    oracle = [dict(zip(view.gids.tolist(), range(len(view))))
              for view in views]
    rng = random.Random(f"{algo}-{directed}")
    nodes = sorted(g.nodes)
    edges = {frozenset(e[:2]) for e in g.edges()}
    merges = [0, 0]
    for step in range(60):
        batch = []
        while len(batch) < 8:
            u = rng.choice(nodes)
            if len(batch) % 2:
                v = rng.choice(nodes)
            else:
                v = owned_by(rng.randrange(2), 2, taken, 20_000)
                nodes.append(v)
            if u != v and frozenset((u, v)) not in edges:
                edges.add(frozenset((u, v)))
                batch.append((u, v, round(rng.uniform(0.5, 3.0), 2)))
        svc.ingest(UpdateBatch(insertions=tuple(batch)))
        assert svc.pump(1) == 1
        event = [e for e in svc.obs.log if e.type == "epoch_apply"][-1]
        for fid, view in enumerate(views):
            assert view is svc.pg.fragments[fid].compact()
            # appended nodes took the next lids, nobody else's moved
            for lid in range(len(oracle[fid]), len(view)):
                oracle[fid][int(view.gids[lid])] = lid
            asked = rng.sample(sorted(oracle[fid]), 12) + [10 ** 9, 7]
            want = [oracle[fid].get(v, -1) for v in asked]
            assert view.lids_for(np.array(asked)).tolist() == want
            assert [view.lid(v) if view.lid(v) is not None else -1
                    for v in asked] == want
            assert (view.merges > merges[fid]) \
                == (fid in event.payload["merged"])
            if view.merges > merges[fid]:
                assert view.spilled == 0
            merges[fid] = view.merges
        if step % 6 == 0:
            assert verify_against_recompute(svc)
    assert verify_against_recompute(svc)
    assert all(count >= 2 for count in merges)
    assert all(view.capacity > before
               for view, before in zip(views, capacities))
    status = svc.status()
    assert [part["merges"] for part in status["fragments"]] == merges
    assert svc.obs.metrics.counter("serve_csr_merges").value == sum(merges)
