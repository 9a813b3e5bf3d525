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
from repro.partition.fragment import PartitionedGraph
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
        #: per fragment, the nodes written since :meth:`track_writes`
        #: (``None``: nobody asked)
        self._written: Optional[List[Set[Node]]] = None

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
        without one (a third-party program, or a fragment that was made
        by hand or grew in place, whose view has no routing arrays) it
        is a loop over the checked ship set.
        """
        import numpy as np
        view = frag.compact()
        rule = self.program.dense_routes(self.pg, frag)
        if rule is not None:
            routes, ship_mask = rule
            stray = ship_mask.copy()
            if view.routed is not None:  # the routing index, on arrays
                stray[view.routed] = False
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

        Ship-set membership is re-decided (:meth:`PIEProgram.ships`) and
        re-validated only for the nodes ``report`` names; growth dropped
        the fragment-level memo, so the patched set is put back for the
        next engine of this program class.  Dense routes are arrays over a
        CSR view that no longer exists: rebuilt for the touched fragments.
        """
        if self.vectorized:
            for wid in report.touched:
                self._dense_routes[wid], self._dense_ship_masks[wid] = \
                    self._routes(self.pg.fragments[wid])
            return
        for wid, nodes in report.rerouted.items():
            frag = self.pg.fragments[wid]
            gained = [v for v in nodes if self.program.ships(frag, v)]
            self._check_shippable(frag, gained)
            ship = self._ship_sets[wid]
            ship.difference_update(nodes)
            ship.update(gained)
        for wid in report.touched:
            self._memoized(self.pg.fragments[wid], "ship_set",
                           lambda frag, w=wid: self._ship_sets[w])

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
        owner = self.pg.owner
        for v in report.new_nodes:
            fid = owner[v]
            self.contexts[fid].values[v] = self.program.init_value(
                self.pg.fragments[fid], v, self.query)
            if self._written is not None:
                self._written[fid].add(v)
        for fid, nodes in report.new_local.items():
            values = self.contexts[fid].values
            for v in nodes:
                if owner[v] != fid:
                    values[v] = self.contexts[owner[v]].values[v]

    def track_writes(self) -> None:
        """From now on record, per fragment, which status variables get
        written — what bounds :meth:`answer_delta`.  Generic path only:
        dense rounds keep masks, not sets."""
        self._written = [set() for _ in self.contexts]
        # a program may keep notes of its own (CC's moved components):
        # forget the ones that predate tracking
        self.answer_delta()

    def answer_delta(self) -> Optional[Dict[Node, Any]]:
        """The program's answer delta for everything written since the
        last call (or since :meth:`track_writes`); ``None`` when it is
        unknown and the caller has to assemble and compare."""
        written = self._written
        if written is None or self.vectorized:
            return None
        self._written = [set() for _ in written]
        return self.program.answer_delta(self.pg, self.contexts, written,
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
        frag = self.pg.fragments[wid]
        ctx = self.contexts[wid]
        ctx.round = round_no
        ids_parts: List[Any] = []
        payload_parts: List[Any] = []
        for m in batches:
            if isinstance(m, MessageBatch):
                ids_parts.append(np.asarray(m.ids, dtype=np.int64))
                payload_parts.append(
                    np.asarray(m.payloads, dtype=ctx.array.dtype))
            elif len(m):
                nodes, vals = zip(*m.entries)
                ids_parts.append(np.asarray(nodes, dtype=np.int64))
                payload_parts.append(
                    np.asarray(vals, dtype=ctx.array.dtype))
        activated = np.empty(0, dtype=np.int64)
        if ids_parts:
            gids = np.concatenate(ids_parts)
            payloads = np.concatenate(payload_parts)
            lids = ctx.view.lids_for(gids)
            bad = np.nonzero(lids < 0)[0]
            if bad.size:
                raise ProgramError(
                    f"fragment {wid} received update for non-local node "
                    f"{int(gids[bad[0]])!r}")
            ctx.add_work(int(lids.size))
            activated = self.program.dense_apply_incoming(
                frag, ctx, lids, payloads)
        if activated.size:
            ctx.mask[activated] = True
            self.program.dense_inceval(frag, ctx, activated, self.query)
        work = ctx.take_work()
        messages = self.derive_messages(wid, round_no=round_no)
        return RoundOutput(wid=wid, round=round_no, work=work,
                           messages=messages,
                           activated=int(activated.size))

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
        cand = ctx.mask & self._dense_ship_masks[wid]
        ctx.mask[:] = False
        lids = np.nonzero(cand)[0]
        if lids.size == 0:
            return []
        keep = np.asarray(
            self.program.dense_should_ship(frag, ctx, lids), dtype=bool)
        held = lids[~keep]
        if held.size:
            # held-back lids stay marked so a later round reconsiders them
            ctx.mask[held] = True
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
            if not np.any(sel):
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
