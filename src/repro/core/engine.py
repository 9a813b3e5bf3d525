"""Fragment-local execution mechanics shared by every runtime.

The :class:`Engine` owns the per-fragment contexts and implements the three
operations every runtime schedules:

1. :meth:`run_peval` — partial evaluation on one fragment (round 0);
2. :meth:`run_inceval` — aggregate buffered messages into the update
   parameters (``M_i = f_aggr(B ∪ C_i.x̄)``) and run the incremental step;
3. :meth:`derive_messages` — diff the candidate set and group the changed
   values into designated messages ``M(i, j)``.

Scheduling (when each operation runs and what the delay stretches are) is the
runtime's job; the engine is schedule-agnostic, which is what makes the
Church-Rosser tests meaningful.

With ``vectorized=True`` the engine routes the same three operations through
the program's dense kernels over array-backed contexts
(:mod:`repro.core.dense`) and packs outgoing traffic into
:class:`~repro.core.messages.MessageBatch` — one batch per ``(dst, round)``
instead of one entry-list message.  The flag silently degrades to the
generic path when the program or partition does not support it, so callers
can pass it unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set

import numpy as np

from repro.core.dense import FEW_NODES, supports_dense
from repro.core.messages import (Message, MessageBatch, group_entries,
                                 make_messages)
from repro.core.pie import FragmentContext, PIEProgram
from repro.errors import ProgramError
from repro.partition.fragment import Fragment, PartitionedGraph, resized
from repro.partition.grow import GrowthReport

Node = Hashable


@dataclass
class RoundOutput:
    """What one invocation of PEval/IncEval produced."""

    wid: int
    round: int
    work: int
    messages: List[Message] = field(default_factory=list)
    activated: int = 0

    @property
    def bytes_sent(self) -> int:
        return sum(m.size_bytes for m in self.messages)


class Engine:
    """Program + partitioned graph + query, with per-fragment contexts."""

    def __init__(self, program: PIEProgram, pg: PartitionedGraph, query: Any,
                 vectorized: bool = False):
        self.program = program
        self.pg = pg
        self.query = query
        if vectorized:
            self.vectorized = supports_dense(program, pg)
        else:
            self.vectorized = False
        if self.vectorized:
            # a new engine is O(fragment) anyway: it starts on sorted
            # adjacency, whatever in-place growth appended before
            for view in map(Fragment.compact, pg):
                if view.spilled:
                    view.merge()
            self.contexts: List[FragmentContext] = [
                program.make_dense_context(frag, query) for frag in pg]
        else:
            self.contexts = [
                program.make_context(frag, query) for frag in pg]
        # routing is a pure function of the partition (unless the program
        # says otherwise), so it is memoized on the fragments: repeated
        # engine builds over the same PartitionedGraph — every run of a
        # query class — skip the setup cost
        routing = [self._routing(frag) for frag in pg]
        #: per fragment, the program's routes (:meth:`PIEProgram.routes`):
        #: per destination a lid mask, and their union; both engines
        #: derive from them
        self._routes = [routes for routes, _ in routing]
        self._ship_masks = [ship_mask for _, ship_mask in routing]
        #: whether incoming payloads are aggregated the default way, so a
        #: handful of them can be, one by one (:meth:`_absorb_few`)
        self._plain_apply = type(program).dense_apply_incoming \
            is PIEProgram.dense_apply_incoming
        #: per fragment, what was written since :meth:`track_writes` — a
        #: set of nodes, or a list of lid arrays when vectorized (``None``:
        #: nobody asked)
        self._written: Optional[List[Any]] = None

    @property
    def num_workers(self) -> int:
        return self.pg.num_fragments

    def _routing(self, frag) -> Any:
        """The program's routes of ``frag``, validated, kept on the
        fragment per program class when they are a pure function of the
        partition."""
        if not getattr(self.program, "cacheable_routes", True):
            return self._checked_routes(frag)
        return frag.memo(("routes", type(self.program)),
                         lambda: self._checked_routes(frag))

    @staticmethod
    def _refuse_stray(frag, stray: List[Node]) -> None:
        if stray:
            raise ProgramError(
                f"ship set of fragment {frag.fid} contains node "
                f"{stray[0]!r} that resides nowhere else")

    def _checked_routes(self, frag) -> Any:
        """One fragment's routing masks: one boolean lid-mask per
        destination plus the union ship mask, so deriving a round's
        messages is masking.  The program states them in bulk
        (:meth:`PIEProgram.routes`); they are validated against the
        routing index on the arrays."""
        view = frag._arrays
        routes, ship_mask = self.program.routes(self.pg, frag)
        stray = ship_mask.copy()
        stray[view.routed] = False
        self._refuse_stray(frag, view.gids[stray].tolist())
        return routes, ship_mask

    # ------------------------------------------------------------------
    # following in-place growth (repro.partition.grow)
    # ------------------------------------------------------------------
    def refresh_routes(self, report: GrowthReport) -> None:
        """Patch the routing this engine holds after the partition grew:
        per fragment, the masks follow its capacity, and the bits of the
        nodes ``report.rerouted`` names are re-decided (the program's
        :meth:`~PIEProgram.routes` at their lids) and re-validated.
        Growth dropped the fragment-level memo; the next engine states the
        rule on the grown arrays."""
        for wid, nodes in report.rerouted.items():
            frag = self.pg.fragments[wid]
            view = frag._arrays
            lids = list(nodes.values())
            gained, ships = self.program.routes(self.pg, frag, lids)
            # shippable: a mirror resides at its owner at least, an owned
            # node wherever its routing pairs say
            owned = view.owned_mask
            self._refuse_stray(frag, [
                v for (v, lid), ships_now in zip(nodes.items(), ships)
                if ships_now and owned.item(lid) and not view.peers_of(lid)])
            size, capacity = len(view), view.capacity
            ship_mask, routes = self._ship_masks[wid], self._routes[wid]
            if len(ship_mask) != size:
                ship_mask = self._ship_masks[wid] = resized(
                    ship_mask, size, capacity)
                for dst, mask in routes.items():
                    routes[dst] = resized(mask, size, capacity)
            for dst in gained.keys() - routes.keys():
                routes[dst] = np.zeros(capacity, dtype=bool)[:size]
            # bit by bit: growth names a handful of nodes
            for lid, bit in zip(lids, ships):
                ship_mask[lid] = bit
            for dst, mask in routes.items():
                for lid, bit in zip(lids, gained.get(dst, repeat(False))):
                    mask[lid] = bit

    def extend_contexts(self, report: GrowthReport) -> None:
        """Give every node that growth made locally present a status
        variable.

        Brand-new nodes take the program's initial value on their owner
        (what a rebuilt context would start them at,
        :meth:`PIEProgram.init_value`); every other copy in
        ``report.new_local`` is a fresh mirror and adopts its owner's
        current value, which is what an engine rebuilt over the grown
        partition and handed the converged values would hold.  Nothing is
        marked changed: seeding IncEval is ``inc_update``'s job.
        """
        owner, written = self.pg.owner, self._written
        if not self.vectorized:
            for v in report.new_nodes:
                fid = owner[v]
                self.contexts[fid].values[v] = self.program.init_value(
                    self.pg.fragments[fid], v, self.query)
                if written is not None:
                    written[fid].add(v)
            for fid, nodes in report.new_local.items():
                values = self.contexts[fid].values
                for v in nodes:
                    if owner[v] != fid:
                        values[v] = self.contexts[owner[v]].values[v]
            return
        for fid, nodes in report.new_local.items():
            ctx, frag = self.contexts[fid], self.pg.fragments[fid]
            ctx.follow_view()
            # growth appended them: they hold the fragment's last lids
            first = len(ctx.view) - len(nodes)
            for lid, v in enumerate(nodes, first):
                if owner[v] == fid:
                    ctx.array[lid] = self.program.init_value(frag, v,
                                                             self.query)
            if written is not None:  # new owned nodes are new answers
                written[fid].append(np.arange(first, len(ctx.view)))
        for fid, lid, home, home_lid in report.mirrored:
            self.contexts[fid].array[lid] = \
                self.contexts[home].array.item(home_lid)

    def track_writes(self) -> None:
        """From now on record, per fragment, which status variables get
        written — what bounds :meth:`answer_delta`: a set of nodes, or
        (vectorized) the lid arrays the message derivations found marked."""
        self._written = self._nothing_written()
        # a program may keep notes of its own (CC's moved components):
        # forget the ones that predate tracking
        self.answer_delta()

    def _nothing_written(self) -> List[Any]:
        kind = list if self.vectorized else set
        return [kind() for _ in self.contexts]

    def answer_delta(self) -> Optional[Dict[Node, Any]]:
        """The program's answer delta for everything written since the
        last call (or since :meth:`track_writes`); ``None`` when it is
        unknown and the caller has to assemble and compare."""
        written = self._written
        if written is None:
            return None
        self._written = self._nothing_written()
        if not self.vectorized:
            return self.program.answer_delta(self.pg, self.contexts,
                                             written, self.query)
        lids = []
        for parts, ctx in zip(written, self.contexts):
            # (a lid written twice is there twice: the hook reads values)
            marked = np.concatenate(parts) if parts \
                else np.empty(0, dtype=np.int64)
            lids.append(marked[ctx.view.owned_mask[marked]])
        return self.program.dense_answer_delta(self.pg, self.contexts, lids,
                                               self.query)

    # ------------------------------------------------------------------
    def run_peval(self, wid: int) -> RoundOutput:
        """Round 0: run the batch algorithm and derive initial messages."""
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        ctx.round = 0
        if self.vectorized:
            self.program.dense_peval(frag, ctx, self.query)
        else:
            self.program.peval(frag, ctx, self.query)
        work = ctx.take_work()
        messages = self.derive_messages(wid, round_no=0)
        return RoundOutput(wid=wid, round=0, work=work, messages=messages)

    def run_inceval(self, wid: int, batches: Sequence[Message],
                    round_no: int) -> RoundOutput:
        """One incremental round: aggregate ``batches`` then run IncEval."""
        if self.vectorized:
            return self._run_inceval_dense(wid, batches, round_no)
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        ctx.round = round_no
        grouped = group_entries(batches)
        activated: Set[Node] = set()
        for v, payloads in grouped.items():
            if v not in ctx.values:
                raise ProgramError(
                    f"fragment {wid} received update for non-local node {v!r}")
            ctx.add_work(len(payloads))
            if self.program.apply_incoming(frag, ctx, v, payloads):
                activated.add(v)
        if activated:
            self.program.inceval(frag, ctx, activated, self.query)
        work = ctx.take_work()
        messages = self.derive_messages(wid, round_no=round_no)
        return RoundOutput(wid=wid, round=round_no, work=work,
                           messages=messages, activated=len(activated))

    def _run_inceval_dense(self, wid: int, batches: Sequence[Any],
                           round_no: int) -> RoundOutput:
        """Dense round: concatenate batch arrays, aggregate, IncEval."""
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        ctx.round = round_no
        ids_parts: List[Any] = []
        payload_parts: List[Any] = []
        few = self._plain_apply and sum(map(len, batches)) <= FEW_NODES
        for m in () if few else batches:
            if isinstance(m, MessageBatch):
                ids_parts.append(np.asarray(m.ids, dtype=np.int64))
                payload_parts.append(
                    np.asarray(m.payloads, dtype=ctx.array.dtype))
            elif len(m):
                nodes, vals = zip(*m.entries)
                ids_parts.append(np.asarray(nodes, dtype=np.int64))
                payload_parts.append(
                    np.asarray(vals, dtype=ctx.array.dtype))
        activated = self._absorb_few(wid, batches) if few \
            else np.empty(0, dtype=np.int64)
        if ids_parts:
            gids, payloads = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
                for parts in (ids_parts, payload_parts))
            lids = ctx.view.lids_for(gids)
            if lids.size and lids.min() < 0:
                raise ProgramError(
                    f"fragment {wid} received update for non-local node "
                    f"{int(gids[lids.argmin()])!r}")
            ctx.add_work(int(lids.size))
            activated = self.program.dense_apply_incoming(
                frag, ctx, lids, payloads)
        if activated.size:
            ctx.mask[activated] = True
            self.program.dense_inceval(frag, ctx, activated, self.query)
        work = ctx.take_work()
        # nothing marked in this round, and most often nothing left marked
        # by the last one: one pass over the mask says so
        messages = self.derive_messages(wid, round_no=round_no) \
            if activated.size or ctx.mask.any() else []
        return RoundOutput(wid=wid, round=round_no, work=work,
                           messages=messages,
                           activated=int(activated.size))

    def _absorb_few(self, wid: int, batches: Sequence[Any]) -> Any:
        """``M_i = f_aggr(B ∪ C_i.x̄)`` for a handful of entries, one by
        one: what the default ``dense_apply_incoming`` does with arrays
        (:func:`repro.core.dense.apply_aggregated`); returns the lids
        whose value changed, ascending."""
        ctx = self.contexts[wid]
        lid_of, array = ctx.view.lid, ctx.array
        combine = self.program.aggregator.combine
        before: Dict[int, Any] = {}
        for m in batches:
            for gid, payload in m.entries:
                lid = lid_of(gid)
                if lid is None:
                    raise ProgramError(
                        f"fragment {wid} received update for non-local "
                        f"node {gid!r}")
                value = array.item(lid)
                before.setdefault(lid, value)
                array[lid] = combine(value, (payload,))
                ctx.add_work(1)
        return np.array(sorted(lid for lid, value in before.items()
                               if array.item(lid) != value), dtype=np.int64)

    def derive_messages(self, wid: int, round_no: int,
                        token: Any = None) -> List[Message]:
        """Group changed candidate values into designated messages."""
        if self.vectorized:
            return self._derive_dense(wid, round_no, token=token)
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        routes, ship_mask = self._routes[wid], self._ship_masks[wid]
        lid_of = frag._arrays.lid_of
        changed = ctx.take_changed()
        if self._written is not None:
            self._written[wid] |= changed
        per_dest: Dict[int, List] = {}
        held_back = []
        for v in sorted((v for v in changed if ship_mask.item(lid_of[v])),
                        key=repr):
            if not self.program.should_ship(frag, ctx, v):
                held_back.append(v)
                continue
            payload = self.program.emit(frag, ctx, v)
            lid = lid_of[v]
            for dst, route in routes.items():
                if route.item(lid):
                    per_dest.setdefault(dst, []).append((v, payload))
        # held-back nodes stay marked so a later round reconsiders them
        ctx.changed.update(held_back)
        entry_bytes = self.program.value_size_bytes(None)
        return make_messages(wid, round_no, per_dest, token=token,
                             entry_bytes=entry_bytes)

    def _derive_dense(self, wid: int, round_no: int,
                      token: Any = None) -> List[MessageBatch]:
        """Pack the round's changed candidates into per-destination
        batches."""
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        ship_mask = self._ship_masks[wid]
        if self._written is None:
            lids = (ctx.mask & ship_mask).nonzero()[0]
        else:  # everything marked is written; what ships is part of it
            marked = ctx.mask.nonzero()[0]
            self._written[wid].append(marked)
            lids = marked[ship_mask[marked]]
        ctx.mask[:] = False
        if lids.size == 0:
            return []
        keep = self.program.dense_should_ship(frag, ctx, lids)
        if keep is not None:
            keep = np.asarray(keep, dtype=bool)
            # held-back lids stay marked so a later round reconsiders them
            ctx.mask[lids[~keep]] = True
            lids = lids[keep]
            if lids.size == 0:
                return []
        payloads = np.asarray(self.program.dense_emit(frag, ctx, lids))
        gids = ctx.view.gids[lids]
        entry_bytes = self.program.value_size_bytes(None)
        out: List[MessageBatch] = []
        routes = self._routes[wid]
        for dst in sorted(routes):
            sel = routes[dst][lids]
            if not sel.any():
                continue
            out.append(MessageBatch(
                src=wid, dst=dst, round=round_no, ids=gids[sel],
                payloads=payloads[sel], token=token,
                entry_bytes=entry_bytes))
        return out

    def derive_reship(self, wid: int, dst: int, round_no: int,
                      token: Any = None) -> List[Message]:
        """Re-ship fragment ``wid``'s *entire* border state to ``dst``.

        Surgical recovery's anti-entropy push: after a worker is replaced,
        each surviving peer re-sends its current value for every ship-set
        node routed to the replacement, regardless of change tracking.
        Safe exactly when the program's aggregation is idempotent
        (:attr:`PIEProgram.reship_capable`): values the replacement — or
        anyone else — already absorbed are re-applied without effect, and
        the change masks are left untouched so normal derivation is not
        perturbed.
        """
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        route = self._routes[wid].get(dst)
        if route is None or not route.any():
            return []
        lids = np.nonzero(route)[0]
        entry_bytes = self.program.value_size_bytes(None)
        if self.vectorized:
            payloads = np.asarray(self.program.dense_emit(frag, ctx, lids))
            return [MessageBatch(
                src=wid, dst=dst, round=round_no,
                ids=ctx.view.gids[lids], payloads=payloads, token=token,
                entry_bytes=entry_bytes)]
        nodes = sorted(frag._arrays.gids[lids].tolist(), key=repr)
        return make_messages(
            wid, round_no,
            {dst: [(v, self.program.emit(frag, ctx, v)) for v in nodes]},
            token=token, entry_bytes=entry_bytes)

    def assemble(self) -> Any:
        """Apply Assemble to the partial results of all workers."""
        if self.vectorized:
            return self.program.dense_assemble(self.pg, self.contexts,
                                               self.query)
        return self.program.assemble(self.pg, self.contexts, self.query)
