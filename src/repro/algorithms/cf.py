"""Collaborative filtering as a PIE program (paper, Section 5.2).

Mini-batched stochastic gradient descent for matrix factorisation: each
fragment holds its users' factor vectors privately and a local copy of every
item factor its ratings touch.  One PEval/IncEval round = one local SGD
epoch.  Accumulated item-factor gradients are the update parameters: after
each epoch a fragment ships its accumulated deltas to every other holder of
the item, who folds them into its copy (the paper's weighted-sum aggregation
of gradients computed at other workers).

CF is the one program in the paper that *requires bounded staleness*
(:attr:`CFProgram.needs_bounded_staleness`): under unbounded asynchrony a
fast worker could run most of its epochs on stale factors.  The SSP/AAP
staleness predicate enforces the bound ``c``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Sequence, Set, Tuple

from repro.core.aggregators import Sum
from repro.core.pie import FragmentContext, PIEProgram
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable
Vector = Tuple[float, ...]


@dataclass(frozen=True)
class CFQuery:
    """Matrix-factorisation hyper-parameters."""

    rank: int = 4
    learning_rate: float = 0.02
    regularization: float = 0.05
    epochs: int = 10
    seed: int = 0


def _init_vector(node: Node, rank: int, seed: int) -> List[float]:
    rng = random.Random((seed, repr(node)).__repr__())
    return [rng.uniform(0.05, 0.25) for _ in range(rank)]


def _is_item(v: Node) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "p"


def _is_user(v: Node) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "u"


class CFProgram(PIEProgram):
    """PIE program for SGD collaborative filtering.

    Node convention follows :func:`repro.graph.generators.bipartite_ratings`:
    users are ``("u", i)``, items are ``("p", j)``; edge weights are ratings.
    """

    aggregator = Sum()
    needs_bounded_staleness = True
    default_staleness_bound = 2
    finite_domain = False
    # routes() depends on self.aggregation, so engines must not memoize
    # routing per program *class*
    cacheable_routes = False

    #: message aggregation schemes: "gossip" ships every fragment's deltas
    #: to every co-holder (fast convergence per epoch, more traffic);
    #: "server" is hierarchical owner aggregation (mirrors send deltas to
    #: the item's owner, the owner broadcasts refreshed factors — the
    #: decentralised parameter-server layout, ~h/2 times less traffic)
    AGGREGATION_SCHEMES = ("gossip", "server")

    def __init__(self, rank: int = 4, aggregation: str = "gossip"):
        if aggregation not in self.AGGREGATION_SCHEMES:
            raise ValueError(f"aggregation must be one of "
                             f"{self.AGGREGATION_SCHEMES}")
        self._rank = rank
        self.aggregation = aggregation

    def value_size_bytes(self, value: Any) -> int:
        return 8 * self._rank

    def init_values(self, frag: Fragment, query: CFQuery) -> Dict[Node, int]:
        # the tracked "value" per node is the epoch count of its last local
        # update; factor vectors live in scratch (they are the real state)
        return {v: 0 for v in frag.graph.nodes}

    # ------------------------------------------------------------------
    def peval(self, frag: Fragment, ctx: FragmentContext,
              query: CFQuery) -> None:
        factors: Dict[Node, List[float]] = {}
        for v in frag.graph.nodes:
            factors[v] = _init_vector(v, query.rank, query.seed)
        ctx.scratch["factors"] = factors
        ctx.scratch["deltas"] = {}
        ctx.scratch["epochs_done"] = 0
        # training edges owned by this fragment: those whose user is owned
        edges = [(u, p, r) for u, p, r in frag.graph.edges()
                 if _is_user(u) and u in frag.owned]
        edges += [(p, u, r) for u, p, r in frag.graph.edges()
                  if _is_user(p) and p in frag.owned]
        # normalise to (user, item, rating) and sort for determinism
        ctx.scratch["edges"] = sorted(
            ((u, p, r) if _is_user(u) else (p, u, r)) for u, p, r in edges)
        self._epoch(frag, ctx, query)

    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: CFQuery) -> None:
        if ctx.scratch["epochs_done"] >= query.epochs:
            return  # training finished; absorb remaining gradients silently
        self._epoch(frag, ctx, query)

    def _epoch(self, frag: Fragment, ctx: FragmentContext,
               query: CFQuery) -> None:
        """One pass of SGD over the local training edges."""
        factors = ctx.scratch["factors"]
        deltas: Dict[Node, List[float]] = ctx.scratch["deltas"]
        owned = frag.owned
        lr = query.learning_rate
        reg = query.regularization
        epoch = ctx.scratch["epochs_done"] + 1
        for u, p, rating in ctx.scratch["edges"]:
            fu = factors[u]
            fp = factors[p]
            pred = sum(a * b for a, b in zip(fu, fp))
            err = rating - pred
            # the gradient is accumulated for shipping; under "server"
            # aggregation an owner's canonical copy needs no accumulator
            acc = None
            if self.aggregation == "gossip" or p not in owned:
                acc = deltas.setdefault(p, [0.0] * query.rank)
            for k in range(query.rank):
                gu = lr * (err * fp[k] - reg * fu[k])
                gp = lr * (err * fu[k] - reg * fp[k])
                fu[k] += gu
                fp[k] += gp
                if acc is not None:
                    acc[k] += gp
            ctx.add_work(query.rank)
        ctx.scratch["epochs_done"] = epoch
        # mark every shared item this epoch touched as changed: holders
        # ship their accumulated deltas; under "server" aggregation owned
        # items additionally broadcast the refreshed factor
        for p in deltas:
            ctx.set(p, epoch)
        if self.aggregation == "server":
            for _, p, _ in ctx.scratch["edges"]:
                if p in owned and frag.locations(p):
                    ctx.set(p, epoch)

    # ------------------------------------------------------------------
    # message semantics: hierarchical owner aggregation.
    # Mirror copies ship their accumulated gradient deltas to the item's
    # owner; the owner folds all deltas into the canonical factor and
    # broadcasts the refreshed vector back to every copy.  Per item and
    # epoch this costs 2*(holders-1) messages — the decentralised
    # equivalent of a parameter server sharded across the fragments.
    # ------------------------------------------------------------------
    def routes(self, pg: PartitionedGraph, frag: Fragment, lids=None):
        """Items only.  Gossip: every copy ships everywhere else the item
        resides (the copies rule).  Server: the owner broadcasts the
        factor to every copy (the copies rule for owned items) and a
        mirror ships its deltas to the owner (the owner rule)."""
        import numpy as np
        from repro.core.dense import routes_to_copies
        view = frag._arrays
        at = slice(None) if lids is None else lids
        items = np.fromiter(map(_is_item, view.gids[at].tolist()), bool)
        routes, ship_mask = routes_to_copies(frag, lids)
        out = {}
        for dst, there in routes.items():
            there = items & np.asarray(there, dtype=bool)
            if self.aggregation == "server":
                # a mirror resides at its owner: of its copies, keep that
                there &= view.owned_mask[at] | (view.owner[at] == dst)
            if there.any():
                out[dst] = there
        return out, items & np.asarray(ship_mask, dtype=bool)

    def emit(self, frag: Fragment, ctx: FragmentContext,
             v: Node) -> Tuple[str, Vector]:
        if self.aggregation == "server" and v in frag.owned:
            return ("factor", tuple(ctx.scratch["factors"][v]))
        delta = ctx.scratch["deltas"].pop(v, None)
        if delta is None:
            delta = [0.0] * self._rank
        return ("delta", tuple(delta))

    def apply_incoming(self, frag: Fragment, ctx: FragmentContext, v: Node,
                       payloads: Sequence[Tuple[str, Vector]]) -> bool:
        vec = ctx.scratch["factors"][v]
        touched = False
        for kind, payload in payloads:
            if kind == "delta":
                # fold a worker's accumulated gradients into our copy;
                # under "server" aggregation the owner then re-broadcasts
                changed = False
                for k, dk in enumerate(payload):
                    if dk != 0.0:
                        vec[k] += dk
                        changed = True
                if changed:
                    touched = True
                    if self.aggregation == "server":
                        ctx.changed.add(v)
            else:
                # mirror side of "server" aggregation: adopt the canonical
                # factor (our shipped deltas are already folded into it)
                # plus any locally accumulated, not-yet-shipped gradients
                pending = ctx.scratch["deltas"].get(v)
                fresh = [payload[k] + (pending[k] if pending else 0.0)
                         for k in range(len(payload))]
                if vec != fresh:
                    vec[:] = fresh
                    touched = True
        return touched

    # ------------------------------------------------------------------
    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext],
                 query: CFQuery) -> Dict[str, Any]:
        """Collect factors and compute the training loss (RMSE + the paper's
        regularised loss epsilon(f, E_T))."""
        user_f: Dict[Node, Vector] = {}
        item_f: Dict[Node, Vector] = {}
        for v, fid in pg.owner.items():
            vec = tuple(contexts[fid].scratch["factors"][v])
            if _is_user(v):
                user_f[v] = vec
            else:
                item_f[v] = vec
        sq_err = 0.0
        count = 0
        reg_term = 0.0
        for ctx in contexts:
            for u, p, rating in ctx.scratch["edges"]:
                fu = user_f[u]
                fp = item_f[p]
                pred = sum(a * b for a, b in zip(fu, fp))
                sq_err += (rating - pred) ** 2
                count += 1
        for vec in list(user_f.values()) + list(item_f.values()):
            reg_term += sum(x * x for x in vec)
        rmse = math.sqrt(sq_err / count) if count else 0.0
        loss = sq_err + query.regularization * reg_term
        return {"user_factors": user_f, "item_factors": item_f,
                "rmse": rmse, "loss": loss, "ratings": count}
