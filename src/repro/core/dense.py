"""Array-backed fragment state for the vectorized fast path.

:class:`DenseContext` is the vectorized variant of
:class:`repro.core.pie.FragmentContext`: it stores every status variable
in one numpy array indexed by *local id* (the contiguous ids of the
fragment's cached :class:`~repro.partition.fragment.FragmentCSR` view) and
tracks changes with a boolean mask instead of a Python set.

Dense kernels read and write :attr:`DenseContext.array` /
:attr:`DenseContext.mask`; the scalar ``get`` / ``set`` / ``values`` /
``changed`` API is the generic context's alone.  A checkpoint, a seeded
worker and a multiprocess report move a context's state through
:meth:`DenseContext.export_state` / :meth:`DenseContext.import_state`,
so the status array is the only recorded form of a dense context.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.aggregators import Aggregator
from repro.core.pie import FragmentContext, Node, PIEProgram
from repro.errors import ProgramError
from repro.partition.fragment import (Fragment, PartitionedGraph,
                                      distinct_fids, resized)


def supports_dense(program: PIEProgram, pg: PartitionedGraph) -> bool:
    """Whether the vectorized fast path applies to ``(program, pg)``.

    Requires the program to declare dense kernels (``dense_capable``) and
    every fragment to admit an array view (non-negative integer node ids).
    Callers fall back to the generic path when this returns ``False``.
    """
    if not getattr(program, "dense_capable", False):
        return False
    # every fragment's ids before any CSR: a fragment left with one would
    # refuse the non-integer ids a generic engine's growth brings it
    if any(frag._arrays._sorted_gids is None for frag in pg):
        return False
    for frag in pg:
        frag.compact()
    return True


Routes = Tuple[Dict[int, np.ndarray], np.ndarray]

#: A kernel wave with fewer candidate edges than this share of the
#: fragment's nodes filters the candidates (edge-sized work) instead of
#: comparing the whole status array before and after (node-sized work).
#: Same updates either way; measured on the 10k-node fragments of
#: ``serve-sssp-mixed`` (docs/performance.md, ledger entry 10).
FILTER_SHARE = 0.25


#: Waves from at most this many nodes over at most this many edges run as
#: a Python loop (:func:`scalar_waves`): below that an array wave is all
#: call overhead.  An epoch of a resident service is made of such waves.
FEW_NODES = 16
FEW_EDGES = 64


def distinct(lids: np.ndarray, n: int) -> np.ndarray:
    """The distinct values of ``lids`` (lids of an ``n``-node fragment),
    ascending: a ``set`` for a handful, a sort for a few, a boolean
    scatter for many."""
    if lids.size <= FEW_NODES:
        return np.array(sorted(set(lids.tolist())), dtype=np.int64)
    if lids.size > FILTER_SHARE * n:
        seen = np.zeros(n, dtype=bool)
        seen[lids] = True
        return np.flatnonzero(seen)
    lids = np.sort(lids)
    first = np.empty(lids.size, dtype=bool)
    first[0] = True
    np.not_equal(lids[1:], lids[:-1], out=first[1:])
    return lids[first]


def scalar_waves(ctx: "DenseContext", seeds: Iterable[int], weighted: bool,
                 active: Optional[np.ndarray] = None,
                 reads: Sequence[bool] = (False,),
                 count_nodes: bool = False) -> List[int]:
    """Min-propagation waves from a handful of lids, as a Python loop.

    A wave offers every edge ``(v, t, w)`` leaving the frontier (entering
    it, for a ``True`` in ``reads``; one direction after the other) the
    value of ``v`` (plus ``w`` when ``weighted``), ``t`` keeps the
    minimum, and the lids that were lowered are the next frontier —
    exactly what the array form of a kernel does with ``out_edges`` and
    ``np.minimum.at``, books the same work for, and marks the same
    ``ctx.mask`` bits for.  Lids outside the mask ``active`` and lids
    still at infinity offer nothing.  Starts from ``seeds`` (repeats
    allowed) and goes on while the waves stay within :data:`FEW_NODES`
    and :data:`FEW_EDGES`; returns the frontier the array form continues
    from (empty at the local fixpoint).
    """
    view, values, mask = ctx.view, ctx.array, ctx.mask
    lids = sorted(set(seeds))
    while lids:
        lids = [v for v in lids if values.item(v) < np.inf
                and (active is None or active.item(v))]
        if not lids or len(lids) > FEW_NODES:
            break
        rows = [[view.edges_of(v, reverse) for v in lids]
                for reverse in reads]
        edges = sum(len(base) + len(more)
                    for row in rows for base, _, more, _ in row)
        if edges > FEW_EDGES:
            break
        ctx.add_work(edges + (len(lids) if count_nodes else 0))
        lowered = set()
        for row in rows:
            offers = [values.item(v) for v in lids]
            for offer, (base, base_w, more, more_w) in zip(offers, row):
                # the base targets' values in one read; a target another
                # edge of the wave lowered meanwhile is looked at again
                held = values[base].tolist() + [values.item(t)
                                                for t in more]
                for t, w, was in zip(base.tolist() + list(more),
                                     base_w.tolist() + list(more_w), held):
                    value = offer + w if weighted else offer
                    if value < was and value < values.item(t):
                        values[t] = value
                        mask[t] = True
                        lowered.add(t)
        lids = sorted(lowered)
    return lids


def _few(per_lid: List[Sequence[int]]) -> Routes:
    """Routes over a handful of lids from each one's destinations."""
    return ({dst: [dst in to for to in per_lid]
             for dst in set().union(*per_lid)},
            [bool(to) for to in per_lid])


def routes_to_owner(frag: Fragment,
                    lids: Optional[Sequence[int]] = None) -> Routes:
    """The rule "a mirror copy ships to its owner"
    (:meth:`PIEProgram.routes`), read off the fragment's node table: what
    SSSP, CC and reachability declare under edge-cut, and PageRank and
    the Pregel / MapReduce adapters always."""
    view = frag._arrays
    if lids is not None and len(lids) <= FEW_NODES:  # element by element
        owned, owner = view.owned_mask, view.owner
        to = [None if owned.item(lid) else owner.item(lid) for lid in lids]
        return ({dst: [fid == dst for fid in to]
                 for dst in set(to).difference((None,))},
                [fid is not None for fid in to])
    at = slice(None) if lids is None else lids
    ship_mask, owner = ~view.owned_mask[at], view.owner[at]
    return {dst: ship_mask & (owner == dst)
            for dst in distinct_fids(owner[ship_mask])}, ship_mask


def routes_to_copies(frag: Fragment,
                     lids: Optional[Sequence[int]] = None) -> Routes:
    """The rule "every shared copy ships to everywhere else the node
    resides" — the routing index itself, read off the fragment's routing
    pairs: the default :meth:`PIEProgram.routes`, and what SSSP, CC and
    reachability declare under vertex-cut."""
    view = frag._arrays
    if lids is not None and len(lids) <= FEW_NODES:  # element by element
        return _few([view.peers_of(lid) for lid in lids])
    at = slice(None) if lids is None else lids
    routed, peers = view.routed, view.peers
    routes = {}
    for dst in distinct_fids(peers):
        there = np.zeros(len(view), dtype=bool)
        there[routed[peers == dst]] = True
        routes[dst] = there[at]
    ship_mask = np.zeros(len(view), dtype=bool)
    ship_mask[routed] = True
    return routes, ship_mask[at]


def routes_by_cut(frag: Fragment,
                  lids: Optional[Sequence[int]] = None) -> Routes:
    """:func:`routes_to_owner` under edge-cut, where a node's owner holds
    all of its edges, so only the owner needs a mirror's improvement;
    :func:`routes_to_copies` under vertex-cut, where every copy relaxes
    edges and all copies exchange updates (SSSP, CC, reachability)."""
    return (routes_to_owner if frag.cut == "edge"
            else routes_to_copies)(frag, lids)


def aggregator_ufunc(agg: Aggregator):
    """The numpy ufunc implementing ``f_aggr``, or ``None`` if unknown."""
    return {"min": np.minimum, "max": np.maximum,
            "sum": np.add}.get(agg.name)


def apply_aggregated(agg: Aggregator, array: np.ndarray,
                     lids: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Aggregate ``payloads`` into ``array`` at ``lids`` via ``f_aggr``.

    The vectorized form of ``M_i = f_aggr(B ∪ C_i.x̄)``: duplicate lids are
    combined by the ufunc's unbuffered ``at`` form.  Returns the unique
    lids whose value actually changed.
    """
    ufunc = aggregator_ufunc(agg)
    if ufunc is None:
        raise ProgramError(
            f"aggregator {agg.name!r} has no vectorized form")
    uniq = distinct(lids, array.size)
    prev = array[uniq]
    ufunc.at(array, lids, payloads)
    return uniq[array[uniq] != prev]


def assemble_owner_values(pg: PartitionedGraph, contexts,
                          values=lambda ctx: ctx.array,
                          lids: Optional[Sequence[np.ndarray]] = None
                          ) -> Dict[Node, Any]:
    """Default dense Assemble: each node's value at its owner fragment.

    ``values(ctx)`` is the fragment's per-lid answer array (the status
    array unless the program keeps its answer elsewhere).  ``lids``
    restricts the answer to some *owned* lids per fragment: the default
    dense answer delta (:meth:`PIEProgram.dense_answer_delta`).

    Selects owned rows through the fragment's ``owned_mask`` (partitioners
    build ``pg.owner`` from exactly those owned sets, so the mask and the
    owner map agree) and materialises Python scalars in one ``tolist``
    pass per fragment instead of a per-node dict lookup.
    """
    out: Dict[Node, Any] = {}
    for wid, ctx in enumerate(contexts):
        view = ctx.view
        sel = np.nonzero(view.owned_mask)[0] if lids is None else lids[wid]
        out.update(zip(view.gids[sel].tolist(),
                       values(ctx)[sel].tolist()))
    return out


class DenseContext(FragmentContext):
    """Array-backed :class:`FragmentContext` over contiguous local ids.

    - :attr:`array` holds the status variables (``array[lid]``);
    - :attr:`mask` is the changed-tracking boolean mask;
    - :attr:`view` is the fragment's cached CSR view
      (:meth:`Fragment.compact`).

    It keeps the generic context's work accounting and ``scratch``; the
    scalar ``get`` / ``set`` / ``values`` / ``changed`` are not there (the
    slots stay unset).  Its recorded state is a copy of :attr:`array`.
    """

    __slots__ = ("view", "array", "mask")

    def __init__(self, fragment: Fragment, aggregator: Aggregator,
                 dtype: str = "float64"):
        self.fragment = fragment
        self.aggregator = aggregator
        self.scratch = {}
        self.work = 0
        self.round = 0
        view = fragment.compact()
        self.view = view
        self.array = np.empty(len(view), dtype=np.dtype(dtype))
        self.mask = np.zeros(len(view), dtype=bool)

    def follow_view(self) -> None:
        """The fragment grew in place: one status variable (zero until
        somebody sets it) and one cleared change bit per appended lid."""
        size, capacity = len(self.view), self.view.capacity
        self.array = resized(self.array, size, capacity)
        self.mask = resized(self.mask, size, capacity)

    def export_state(self) -> np.ndarray:
        """Owned copy of the status array: one contiguous array to record
        or pickle, where a ``node -> scalar`` dict would cost a lookup per
        node on both ends.  :meth:`import_state` loads it back into a
        context built over the same fragment, whose local-id order is
        identical by construction."""
        return self.array.copy()

    def import_state(self, state: np.ndarray) -> None:
        """Copy an :meth:`export_state` array back in; clear the mask."""
        if getattr(state, "shape", None) != self.array.shape:
            raise ProgramError(
                f"dense state shape {getattr(state, 'shape', None)!r} does "
                f"not match fragment {self.fragment.fid} "
                f"({self.array.shape})")
        self.array[:] = state
        self.mask[:] = False

    def load_values(self, mapping: Mapping[Node, Any]) -> None:
        """Bulk-assign status variables from a ``node -> value`` mapping
        (the default :meth:`PIEProgram.dense_seed`)."""
        arr = self.array
        lid_of = self.view.lid_of
        for v, value in mapping.items():
            lid = lid_of.get(v)
            if lid is None:
                raise ProgramError(
                    f"node {v!r} has no status variable on fragment "
                    f"{self.fragment.fid}")
            arr[lid] = value
