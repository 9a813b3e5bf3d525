"""Cross-runtime schema conformance.

The acceptance criterion of the observability subsystem: the same SSSP query
run on the simulator, the threaded runtime and the multiprocess runtime
emits the *identical* event schema — same record types, same payload keys —
so one set of tooling (exporters, audits, dashboards) serves all three.
"""

import pytest

from repro import api
from repro.algorithms import SSSPProgram, SSSPQuery
from repro.core.engine import Engine
from repro.core.modes import make_policy
from repro.graph import analysis, generators
from repro.obs import Observer
from repro.obs.events import (DS_DECISION, MSG_DELIVER, MSG_SEND, ROUND_END,
                              ROUND_START, SCHEMA)
from repro.partition.edge_cut import HashPartitioner
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime

#: the record types every runtime must produce for an AAP SSSP run
CORE_TYPES = (ROUND_START, ROUND_END, MSG_SEND, MSG_DELIVER, DS_DECISION)


def _three_logs(mode):
    """One SSSP query, three runtimes, three event logs."""
    graph = generators.grid2d(6, 6, weighted=True, seed=1)
    pg = HashPartitioner().partition(graph, 2)
    query = SSSPQuery(source=0)
    logs, answers = {}, {}

    obs = Observer()
    r = api.run(SSSPProgram(), pg, query, mode=mode, observer=obs)
    logs["simulated"], answers["simulated"] = obs.log, r.answer

    obs = Observer()
    rt = ThreadedRuntime(Engine(SSSPProgram(), pg, query),
                         make_policy(mode), timeout=60.0, observer=obs)
    r = rt.run()
    logs["threaded"], answers["threaded"] = obs.log, r.answer

    obs = Observer()
    rt = MultiprocessRuntime(SSSPProgram(), pg, query, mode=mode,
                             timeout=90.0, observer=obs)
    r = rt.run()
    logs["multiprocess"], answers["multiprocess"] = obs.log, r.answer

    reference = analysis.dijkstra(graph, 0)
    return logs, answers, reference


@pytest.fixture(scope="module")
def sssp_logs():
    return _three_logs("AAP")


@pytest.fixture(scope="module")
def ssp_logs():
    return _three_logs("SSP")


class TestSchemaIdentity:
    def test_answers_agree_with_reference(self, sssp_logs):
        _, answers, ref = sssp_logs
        for name, answer in answers.items():
            for v in ref:
                assert answer[v] == pytest.approx(ref[v]), name

    def test_core_types_present_everywhere(self, sssp_logs):
        logs, _, _ = sssp_logs
        for name, log in logs.items():
            missing = set(CORE_TYPES) - log.types()
            assert not missing, f"{name} never emitted {missing}"

    def test_payload_keys_match_canonical_schema(self, sssp_logs):
        logs, _, _ = sssp_logs
        for name, log in logs.items():
            observed = log.payload_keys()
            for etype in CORE_TYPES:
                extra_ok = {"l_bottom", "target", "window"}  # audit extras
                keys = observed[etype]
                canonical = set(SCHEMA[etype])
                assert canonical <= keys, \
                    f"{name}:{etype} missing {canonical - keys}"
                assert keys - canonical <= extra_ok, \
                    f"{name}:{etype} has non-schema keys " \
                    f"{keys - canonical - extra_ok}"

    def test_identical_schema_across_runtimes(self, sssp_logs):
        # the actual acceptance criterion: key sets equal pairwise
        logs, _, _ = sssp_logs
        keysets = {name: {t: frozenset(ks)
                          for t, ks in log.payload_keys().items()
                          if t in CORE_TYPES}
                   for name, log in logs.items()}
        sim = keysets["simulated"]
        for name in ("threaded", "multiprocess"):
            for etype in CORE_TYPES:
                # runtimes may omit *optional* audit extras; the canonical
                # keys must be byte-identical
                a = sim[etype] & frozenset(SCHEMA[etype])
                b = keysets[name][etype] & frozenset(SCHEMA[etype])
                assert a == b, f"{name}:{etype}: {a} != {b}"

    def test_send_deliver_counts_balance(self, sssp_logs):
        logs, _, _ = sssp_logs
        for name, log in logs.items():
            counts = log.counts()
            assert counts[MSG_SEND] == counts[MSG_DELIVER], name
            assert counts[ROUND_START] == counts[ROUND_END], name


class TestCanonicalOrder:
    """The worker step's per-round event order (docs/architecture.md), on
    every runtime: for each worker and round, every ``ds_decision`` comes
    before ``round_start``, which comes before ``round_end``, which comes
    no later than the round's ``msg_send`` records."""

    @pytest.mark.parametrize("fixture", ["sssp_logs", "ssp_logs"])
    def test_decision_start_end_sends(self, fixture, request):
        logs, answers, ref = request.getfixturevalue(fixture)
        for name, log in logs.items():
            assert all(answers[name][v] == pytest.approx(ref[v])
                       for v in ref), name
            where = {}  # (wid, round) -> {type: [positions in the log]}
            for pos, e in enumerate(log):
                if e.type in (DS_DECISION, ROUND_START, ROUND_END, MSG_SEND):
                    where.setdefault((e.wid, e.round), {}).setdefault(
                        e.type, []).append(pos)
            decided = 0
            for (wid, rnd), at in sorted(where.items()):
                tag = f"{fixture}:{name}: worker {wid} round {rnd}"
                assert len(at[ROUND_START]) == 1, tag
                assert len(at[ROUND_END]) == 1, tag
                start, end = at[ROUND_START][0], at[ROUND_END][0]
                assert start < end, tag
                assert all(d < start for d in at.get(DS_DECISION, ())), tag
                assert all(end <= s for s in at.get(MSG_SEND, ())), tag
                if rnd > 0:  # every IncEval was released by a decision
                    assert at.get(DS_DECISION), tag
                    decided += 1
            assert decided, f"{fixture}:{name} ran no IncEval"
