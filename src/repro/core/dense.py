"""Array-backed fragment state for the vectorized fast path.

:class:`DenseContext` is a drop-in variant of
:class:`repro.core.pie.FragmentContext` that stores every status variable
in one numpy array indexed by *local id* (the contiguous ids of the
fragment's cached :class:`~repro.partition.fragment.FragmentCSR` view) and
tracks changes with a boolean mask instead of a Python set.

The scalar API (``get``/``set``/``values``/``changed``) is preserved so
runtimes, checkpoints, and Assemble keep working unchanged; vectorized
kernels bypass it and operate on :attr:`DenseContext.array` /
:attr:`DenseContext.mask` directly.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

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
    first = np.ones(lids.size, dtype=bool)
    first[1:] = lids[1:] != lids[:-1]
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


def routes_to_owner(frag: Fragment,
                    lids: Optional[np.ndarray] = None) -> Routes:
    """The array rule "a mirror copy ships to its owner"
    (:meth:`PIEProgram.dense_routes`): what SSSP and CC declare under
    edge-cut and PageRank always."""
    view = frag.compact()
    if lids is not None and len(lids) <= FEW_NODES:  # element by element
        owned, owner = view.owned_mask, view.owner
        goes = [-1 if owned.item(lid) else owner.item(lid) for lid in lids]
        return ({dst: [to == dst for to in goes]
                 for dst in set(goes) - {-1}}, [to >= 0 for to in goes])
    at = slice(None) if lids is None else lids
    ship_mask, owner = ~view.owned_mask[at], view.owner[at]
    return {dst: ship_mask & (owner == dst)
            for dst in distinct_fids(owner[ship_mask])}, ship_mask


def routes_to_copies(frag: Fragment,
                     lids: Optional[np.ndarray] = None) -> Routes:
    """The array rule "every shared copy ships to everywhere else the
    node resides" — the routing index itself, which is the default
    ``destinations`` and what SSSP and CC declare under vertex-cut."""
    view = frag.compact()
    at = slice(None) if lids is None else lids
    routes = {}
    for dst in distinct_fids(view.peers):
        there = np.zeros(len(view), dtype=bool)
        there[view.routed[view.peers == dst]] = True
        routes[dst] = there[at]
    ship_mask = np.zeros(len(view), dtype=bool)
    ship_mask[view.routed] = True
    return routes, ship_mask[at]


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


class _DenseValues(Mapping):
    """Read-mostly mapping view over a :class:`DenseContext` array.

    Behaves like the generic context's ``values`` dict for every consumer
    in the tree: ``dict(ctx.values)`` and iteration yield Python scalars,
    ``update`` loads a mapping back into the array, and ``deepcopy``
    (checkpoints) materialises a plain dict.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: "DenseContext"):
        self._ctx = ctx

    def __getitem__(self, v: Node) -> Any:
        lid = self._ctx.view.lid_of.get(v)
        if lid is None:
            raise KeyError(v)
        return self._ctx.array[lid].item()

    def __iter__(self) -> Iterator[Node]:
        return iter(self._ctx.view.nodes)

    def __len__(self) -> int:
        return len(self._ctx.view.nodes)

    def __contains__(self, v: object) -> bool:
        return v in self._ctx.view.lid_of

    def clear(self) -> None:
        """No-op: the array keeps its shape; ``update`` overwrites."""

    def update(self, mapping: Mapping[Node, Any]) -> None:
        self._ctx.load_values(mapping)

    def __deepcopy__(self, memo) -> Dict[Node, Any]:
        arr = self._ctx.array.tolist()
        return {v: arr[i] for i, v in enumerate(self._ctx.view.nodes)}


class _ChangedView:
    """Set-like facade over the changed-lid boolean mask (global ids)."""

    __slots__ = ("_ctx",)

    def __init__(self, ctx: "DenseContext"):
        self._ctx = ctx

    def add(self, v: Node) -> None:
        self._ctx.mask[self._ctx.view.lid_of[v]] = True

    def update(self, nodes: Iterable[Node]) -> None:
        for v in nodes:
            self.add(v)

    def discard(self, v: Node) -> None:
        lid = self._ctx.view.lid_of.get(v)
        if lid is not None:
            self._ctx.mask[lid] = False

    def clear(self) -> None:
        self._ctx.mask[:] = False

    def __iter__(self) -> Iterator[Node]:
        gids = self._ctx.view.gids
        for i in np.nonzero(self._ctx.mask)[0]:
            yield int(gids[i])

    def __len__(self) -> int:
        return int(self._ctx.mask.sum())

    def __bool__(self) -> bool:
        return bool(self._ctx.mask.any())

    def __contains__(self, v: object) -> bool:
        lid = self._ctx.view.lid_of.get(v)
        return lid is not None and bool(self._ctx.mask[lid])

    def __eq__(self, other: object) -> bool:
        try:
            return set(self) == set(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return f"_ChangedView({set(self)!r})"


class DenseContext(FragmentContext):
    """Array-backed :class:`FragmentContext` over contiguous local ids.

    - :attr:`array` holds the status variables (``array[lid]``);
    - :attr:`mask` is the changed-tracking boolean mask;
    - :attr:`view` is the fragment's cached CSR view
      (:meth:`Fragment.compact`).

    ``values`` / ``changed`` stay available as compatible facades so
    snapshot seeding, checkpoint capture, and generic Assemble code keep
    working on dense contexts.
    """

    __slots__ = ("view", "array", "mask")

    def __init__(self, fragment: Fragment, aggregator: Aggregator,
                 init_values: "Mapping[Node, Any] | None" = None,
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
        if init_values is not None:
            self.load_values(init_values)

    # -- facades over the array/mask -----------------------------------
    @property
    def values(self) -> _DenseValues:
        return _DenseValues(self)

    @values.setter
    def values(self, mapping: Mapping[Node, Any]) -> None:
        self.load_values(mapping)

    @property
    def changed(self) -> _ChangedView:
        return _ChangedView(self)

    @changed.setter
    def changed(self, nodes: Iterable[Node]) -> None:
        self.mask[:] = False
        for v in nodes:
            self.mask[self.view.lid_of[v]] = True

    def follow_view(self) -> None:
        """The fragment grew in place: one status variable (zero until
        somebody sets it) and one cleared change bit per appended lid."""
        size, capacity = len(self.view), self.view.capacity
        self.array = resized(self.array, size, capacity)
        self.mask = resized(self.mask, size, capacity)

    def export_state(self) -> np.ndarray:
        """Owned copy of the status array, for cheap state shipping.

        A multiprocess worker reporting its final state pickles one
        contiguous array instead of materialising a ``node -> scalar``
        dict (which costs a Python-level lookup per node on both ends);
        :meth:`import_state` loads it back into a context built over the
        same fragment, whose local-id order is identical by construction.
        """
        return self.array.copy()

    def import_state(self, array: np.ndarray) -> None:
        """Load an :meth:`export_state` array back into this context."""
        if getattr(array, "shape", None) != self.array.shape:
            raise ProgramError(
                f"dense state shape {getattr(array, 'shape', None)!r} does "
                f"not match fragment {self.fragment.fid} "
                f"({self.array.shape})")
        self.array[:] = array

    def load_values(self, mapping: Mapping[Node, Any]) -> None:
        """Bulk-assign status variables from a ``node -> value`` mapping."""
        arr = self.array
        lid_of = self.view.lid_of
        for v, value in mapping.items():
            lid = lid_of.get(v)
            if lid is None:
                raise ProgramError(
                    f"node {v!r} has no status variable on fragment "
                    f"{self.fragment.fid}")
            arr[lid] = value

    # -- scalar status variable access (generic-path compatibility) ----
    def get(self, v: Node) -> Any:
        lid = self.view.lid_of.get(v)
        if lid is None:
            raise ProgramError(
                f"node {v!r} has no status variable on fragment "
                f"{self.fragment.fid}")
        return self.array[lid].item()

    def set(self, v: Node, value: Any) -> bool:
        lid = self.view.lid_of.get(v)
        if lid is None:
            raise ProgramError(
                f"node {v!r} has no status variable on fragment "
                f"{self.fragment.fid}")
        if self.array[lid] == value:
            return False
        self.array[lid] = value
        self.mask[lid] = True
        return True

    def set_silent(self, v: Node, value: Any) -> None:
        lid = self.view.lid_of.get(v)
        if lid is None:
            raise ProgramError(
                f"node {v!r} has no status variable on fragment "
                f"{self.fragment.fid}")
        self.array[lid] = value

    def take_changed(self):
        gids = self.view.gids
        lids = np.nonzero(self.mask)[0]
        self.mask[:] = False
        return {int(gids[i]) for i in lids}
