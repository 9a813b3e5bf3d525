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
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set

from repro.core.messages import (Message, MessageBatch, group_entries,
                                 make_messages)
from repro.core.pie import FragmentContext, PIEProgram
from repro.errors import ProgramError
from repro.partition.fragment import Fragment, PartitionedGraph
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
            from repro.core.dense import supports_dense
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
        # ship sets and dense routes are pure functions of the partition
        # (unless the program says otherwise), so they are memoized on the
        # fragments: repeated engine builds over the same PartitionedGraph
        # — every run of a query class — skip the setup cost
        if self.vectorized:
            routed = [self._routes(frag) for frag in pg]
            self._dense_routes = [routes for routes, _ in routed]
            self._dense_ship_masks = [ship_mask for _, ship_mask in routed]
        else:
            self._ship_sets = [self._ship_set(frag) for frag in pg]
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

    def _memoized(self, frag, kind: str, build) -> Any:
        """``build(frag)``, kept on the fragment per program class when
        the program's routing is a pure function of the partition."""
        if not getattr(self.program, "cacheable_routes", True):
            return build(frag)
        return frag.memo((kind, type(self.program)), lambda: build(frag))

    def _ship_set(self, frag) -> Set[Node]:
        return self._memoized(frag, "ship_set", self._checked_ship_set)

    def _routes(self, frag) -> Any:
        return self._memoized(frag, "dense_routes", self._checked_routes)

    def _checked_ship_set(self, frag) -> Set[Node]:
        """The program's ship set, validated against the routing index."""
        ship = set(self.program.ship_set(frag))
        self._check_shippable(frag, ship)
        return ship

    @staticmethod
    def _check_shippable(frag, nodes) -> None:
        stray = [v for v in nodes if not frag.locations(v)]
        if stray:
            raise ProgramError(
                f"ship set of fragment {frag.fid} contains node "
                f"{stray[0]!r} that resides nowhere else")

    def _checked_routes(self, frag) -> Any:
        """One fragment's routing masks for batched derivation.

        ``destinations`` depends only on the partition, so we bake one
        boolean lid-mask per destination plus the union ship mask;
        deriving a round's batches is then pure masking.  The program's
        array rule (:meth:`PIEProgram.dense_routes`) states both in
        bulk and is validated against the routing index on the arrays;
        without one (a third-party program) it is a loop over the
        checked ship set.
        """
        import numpy as np
        view = frag.compact()
        rule = self.program.dense_routes(self.pg, frag)
        if rule is not None:
            routes, ship_mask = rule
            stray = ship_mask.copy()
            stray[view.routed] = False  # the routing index, on arrays
            self._check_shippable(frag, view.gids[stray].tolist())
            return routes, ship_mask
        routes: Dict[int, Any] = {}
        ship_mask = np.zeros(len(view), dtype=bool)
        for v in self._ship_set(frag):
            dests = self.program.destinations(self.pg, frag, v)
            if not dests:
                continue
            lid = view.lid_of[v]
            ship_mask[lid] = True
            for dst in dests:
                if dst not in routes:
                    routes[dst] = np.zeros(len(view), dtype=bool)
                routes[dst][lid] = True
        return routes, ship_mask

    # ------------------------------------------------------------------
    # following in-place growth (repro.partition.grow)
    # ------------------------------------------------------------------
    def refresh_routes(self, report: GrowthReport) -> None:
        """Patch the routing this engine holds after the partition grew.

        Ship-set membership is re-decided (:meth:`PIEProgram.ships`, or
        the array rule at the lids in question) and re-validated only for
        the nodes ``report`` names.  Growth dropped the fragment-level
        memo: a patched ship set is put back for the next engine of this
        program class (dense routes it builds from the arrays, at array
        speed).
        """
        for wid, nodes in report.rerouted.items():
            frag = self.pg.fragments[wid]
            if self.vectorized:
                self._refresh_dense(frag, nodes)
                continue
            gained = [v for v in nodes if self.program.ships(frag, v)]
            self._check_shippable(frag, gained)
            ship = self._ship_sets[wid]
            ship.difference_update(nodes)
            ship.update(gained)
        for wid in () if self.vectorized else report.touched:
            self._memoized(self.pg.fragments[wid], "ship_set",
                           lambda frag: self._ship_sets[frag.fid])

    def _refresh_dense(self, frag, nodes: Dict[Node, int]) -> None:
        """:meth:`refresh_routes` for one fragment's routing masks: they
        follow the fragment's capacity, and the bits of ``nodes`` (with
        their lids) are re-decided."""
        import numpy as np
        from repro.partition.fragment import resized
        wid, view = frag.fid, frag.compact()
        size, capacity = len(view), view.capacity
        ship_mask = self._dense_ship_masks[wid]
        routes = self._dense_routes[wid]
        if len(ship_mask) != size:
            ship_mask = self._dense_ship_masks[wid] = resized(
                ship_mask, size, capacity)
            for dst, mask in routes.items():
                routes[dst] = resized(mask, size, capacity)
        lids = list(nodes.values())
        rule = self.program.dense_routes(self.pg, frag, lids)
        if rule is None:  # a third-party program: its per-node forms
            dests = [self.program.destinations(self.pg, frag, v)
                     if self.program.ships(frag, v) else () for v in nodes]
            rule = ({dst: np.array([dst in to for to in dests])
                     for dst in set().union(*dests)},
                    np.array([bool(to) for to in dests], dtype=bool))
        gained, ships = rule
        # shippable: a mirror resides at its owner at least, an owned
        # node wherever its routing pairs say
        owned = view.owned_mask
        self._check_shippable(frag, [
            v for (v, lid), ships_now in zip(nodes.items(), ships)
            if ships_now and owned.item(lid) and not view.peers_of(lid)])
        for dst in gained.keys() - routes.keys():
            routes[dst] = np.zeros(capacity, dtype=bool)[:size]
        # bit by bit: growth names a handful of nodes
        for at, lid in enumerate(lids):
            ship_mask[lid] = ships[at]
            for dst, mask in routes.items():
                mask[lid] = dst in gained and gained[dst][at]

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
        import numpy as np
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
        import numpy as np
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
        import numpy as np
        from repro.core.dense import FEW_NODES
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
        import numpy as np
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
        ship = self._ship_sets[wid]
        changed = ctx.take_changed()
        if self._written is not None:
            self._written[wid] |= changed
        per_dest: Dict[int, List] = {}
        held_back = []
        for v in sorted(changed & ship, key=repr):
            if not self.program.should_ship(frag, ctx, v):
                held_back.append(v)
                continue
            dests = self.program.destinations(self.pg, frag, v)
            if not dests:
                continue
            payload = self.program.emit(frag, ctx, v)
            for dst in dests:
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
        import numpy as np
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        ship_mask = self._dense_ship_masks[wid]
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
        routes = self._dense_routes[wid]
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
        if self.vectorized:
            import numpy as np
            frag = self.pg.fragments[wid]
            ctx = self.contexts[wid]
            route = self._dense_routes[wid].get(dst)
            if route is None or not route.any():
                return []
            lids = np.nonzero(route)[0]
            payloads = np.asarray(self.program.dense_emit(frag, ctx, lids))
            return [MessageBatch(
                src=wid, dst=dst, round=round_no,
                ids=ctx.view.gids[lids], payloads=payloads, token=token,
                entry_bytes=self.program.value_size_bytes(None))]
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        per_dest: Dict[int, List] = {}
        for v in sorted(self._ship_sets[wid], key=repr):
            if dst not in self.program.destinations(self.pg, frag, v):
                continue
            per_dest.setdefault(dst, []).append(
                (v, self.program.emit(frag, ctx, v)))
        return make_messages(wid, round_no, per_dest, token=token,
                             entry_bytes=self.program.value_size_bytes(None))

    def assemble(self) -> Any:
        """Apply Assemble to the partial results of all workers."""
        if self.vectorized:
            return self.program.dense_assemble(self.pg, self.contexts,
                                               self.query)
        return self.program.assemble(self.pg, self.contexts, self.query)
