"""The PIE programming model: PEval + IncEval + Assemble.

A :class:`PIEProgram` parallelises an existing sequential algorithm exactly as
in GRAPE/AAP (Section 2 of the paper):

- :meth:`PIEProgram.peval` — a sequential *batch* algorithm run once per
  fragment (round 0);
- :meth:`PIEProgram.inceval` — a sequential *incremental* algorithm run on
  every later round, triggered by aggregated changes to the update parameters;
- :meth:`PIEProgram.assemble` — collects partial results into ``Q(G)``.

The only additions over the sequential algorithms are the declarations:
the *candidate set* ``C_i`` and the routing index ``I_i`` as one rule
(:meth:`PIEProgram.routes`: which nodes' changed status variables ship,
and where), and the aggregate function ``f_aggr`` (:attr:`aggregator`)
that resolves conflicting writes.

:class:`FragmentContext` holds the per-fragment status variables and tracks
changes so the engine can derive designated messages by diffing.
"""

from __future__ import annotations

import abc
import copy
from typing import (Any, Dict, Hashable, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.core.aggregators import Aggregator
from repro.errors import ProgramError
from repro.partition.fragment import Fragment, PartitionedGraph

Node = Hashable


class FragmentContext:
    """Mutable per-fragment state handed to PEval/IncEval.

    - :attr:`values` maps every locally present node to its status variable
      (the update parameters are the subset on the candidate set).
    - :attr:`changed` records nodes whose value changed since the last message
      derivation; the engine ships the changed candidates and clears it.
    - :attr:`scratch` is free-form program-private storage that persists
      across rounds (e.g. CC's component index, CF's gradient accumulators).
    - :attr:`work` accumulates abstract work units for the cost model.
    """

    __slots__ = ("fragment", "aggregator", "values", "changed", "scratch",
                 "work", "round")

    def __init__(self, fragment: Fragment, aggregator: Aggregator,
                 init_values: Mapping[Node, Any]):
        self.fragment = fragment
        self.aggregator = aggregator
        self.values: Dict[Node, Any] = dict(init_values)
        self.changed: Set[Node] = set()
        self.scratch: Dict[str, Any] = {}
        self.work = 0
        self.round = 0

    # -- status variable access ---------------------------------------
    def get(self, v: Node) -> Any:
        try:
            return self.values[v]
        except KeyError:
            raise ProgramError(
                f"node {v!r} has no status variable on fragment "
                f"{self.fragment.fid}") from None

    def set(self, v: Node, value: Any) -> bool:
        """Assign ``value`` to ``v``'s status variable; track the change.

        Returns ``True`` iff the value actually changed.
        """
        if v not in self.values:
            raise ProgramError(
                f"node {v!r} has no status variable on fragment "
                f"{self.fragment.fid}")
        if self.values[v] == value:
            return False
        self.values[v] = value
        self.changed.add(v)
        return True

    def update(self, v: Node, *incoming: Any) -> bool:
        """Aggregate ``incoming`` into ``v`` via ``f_aggr``; track
        the change."""
        return self.set(v, self.aggregator.combine(self.get(v), incoming))

    def set_silent(self, v: Node, value: Any) -> None:
        """Assign without change tracking.

        Used by accumulative programs to reset a shipped delta inside
        :meth:`PIEProgram.emit` without re-marking the node as changed.
        """
        if v not in self.values:
            raise ProgramError(
                f"node {v!r} has no status variable on fragment "
                f"{self.fragment.fid}")
        self.values[v] = value

    def add_work(self, units: int = 1) -> None:
        """Account ``units`` of abstract computation for the cost model."""
        self.work += units

    def take_work(self) -> int:
        units, self.work = self.work, 0
        return units

    def take_changed(self) -> Set[Node]:
        changed, self.changed = self.changed, set()
        return changed

    # -- recorded state (checkpoints, seeding, final reports) ----------
    def export_state(self) -> Dict[Node, Any]:
        """A deep copy of the status variables: what a checkpoint or a
        worker's final report records, and :meth:`import_state` loads."""
        return copy.deepcopy(self.values)

    def import_state(self, state: Dict[Node, Any]) -> None:
        """Load a copy of an :meth:`export_state` state and clear change
        tracking, so a seeded worker re-derives only what its incoming
        messages improve."""
        self.values = copy.deepcopy(state)
        self.changed = set()


class PIEProgram(abc.ABC):
    """A PIE program ``rho = (PEval, IncEval, Assemble)`` for a
    query class Q."""

    #: the aggregate function f_aggr shared by PEval and IncEval
    aggregator: Aggregator

    #: True when correctness requires bounded staleness (the paper: CF only)
    needs_bounded_staleness: bool = False
    #: default staleness bound c when bounded staleness is required
    default_staleness_bound: int = 5
    #: True when the value domain is finite given a graph (condition T1)
    finite_domain: bool = True
    #: True when the program provides vectorized dense kernels
    #: (``dense_peval``/``dense_inceval`` over a :class:`DenseContext`)
    dense_capable: bool = False
    #: numpy dtype name of the dense status-variable array
    dense_dtype: str = "float64"
    #: True when :meth:`routes` is a pure function of the partition,
    #: letting engines memoize routing per fragment + program class; set
    #: False when routing depends on instance state (e.g. CF's
    #: configurable aggregation topology)
    cacheable_routes: bool = True

    @property
    def reship_capable(self) -> bool:
        """True when peers may re-ship their full border state at-will.

        Surgical recovery re-sends each survivor's current ship-set values
        to a respawned worker; that is only sound when delivering a value
        twice is a no-op.  Idempotent lattice aggregators (Min/Max)
        qualify; accumulative ones (Sum) do not — their ``emit`` hooks
        ship-and-reset deltas, so a re-send would double-count (and the
        emit itself is destructive).  Programs with custom non-idempotent
        ``emit``/``apply_incoming`` semantics should override this.
        """
        return not getattr(self.aggregator, "accumulative", False)

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def routes(self, pg: PartitionedGraph, frag: Fragment,
               lids: Any = None) -> Tuple[Dict[int, Any], Any]:
        """Which local nodes' changed values ship, and to which fragments:
        the candidate set ``C_i`` and the routing index ``I_i`` as one
        rule, for every local node at once — or, after in-place growth,
        for the few ``lids`` growth names, at a cost bounded by them.

        Returns ``(routes, ship_mask)``, boolean masks over the lids asked
        about (any sequence will do for a handful): per destination
        fragment the nodes whose changed values go there (no entry for a
        fragment that gets none), and their union.  A rule reads the
        fragment's node table (``owner``, ``owned_mask``, ``routed`` /
        ``peers`` of ``frag._arrays``), so it holds for any node ids and
        builds no container; :mod:`repro.core.dense` has the usual ones:
        :func:`~repro.core.dense.routes_to_owner` (a mirror ships to its
        owner: accumulative deltas are consumed exactly once there),
        :func:`~repro.core.dense.routes_to_copies` (every shared copy
        ships everywhere else the node resides) and
        :func:`~repro.core.dense.routes_by_cut` (the first under
        edge-cut, the second under vertex-cut).  Both engines derive
        their messages from it; the engine refuses a rule that ships a
        node residing nowhere else.

        Default: :func:`~repro.core.dense.routes_to_copies`, correct under
        both edge-cut and vertex-cut.
        """
        from repro.core.dense import routes_to_copies
        return routes_to_copies(frag, lids)

    @abc.abstractmethod
    def init_values(self, frag: Fragment, query: Any) -> Dict[Node, Any]:
        """Initial status variables for every locally present node."""

    def init_value(self, frag: Fragment, v: Node, query: Any) -> Any:
        """Per-node form of :meth:`init_values`: what a rebuilt context
        would start node ``v`` at.  Growing a warm engine in place asks it
        for the handful of nodes a batch adds; programs that support
        streaming updates override it (with :meth:`inc_update`).
        """
        raise ProgramError(
            f"{self.name} does not support streaming updates")

    # ------------------------------------------------------------------
    # the three functions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def peval(self, frag: Fragment, ctx: FragmentContext, query: Any) -> None:
        """Sequential batch algorithm computing ``Q(F_i)`` (round 0)."""

    @abc.abstractmethod
    def inceval(self, frag: Fragment, ctx: FragmentContext,
                activated: Set[Node], query: Any) -> None:
        """Sequential incremental algorithm computing ``Q(F_i ⊕ M_i)``.

        ``activated`` is the set of nodes whose update parameter changed when
        the aggregated messages ``M_i = f_aggr(B ∪ C_i.x̄)`` were applied; the
        new values are already visible through ``ctx``.
        """

    @abc.abstractmethod
    def assemble(self, pg: PartitionedGraph,
                 contexts: Sequence[FragmentContext], query: Any) -> Any:
        """Collect the partial results into the final answer ``Q(G)``."""

    # ------------------------------------------------------------------
    # message hooks (defaults cover lattice aggregators)
    # ------------------------------------------------------------------
    def emit(self, frag: Fragment, ctx: FragmentContext, v: Node) -> Any:
        """Payload to ship for changed node ``v``; default: its value.

        Accumulative programs override this to ship-and-reset deltas.
        """
        return ctx.get(v)

    def should_ship(self, frag: Fragment, ctx: FragmentContext,
                    v: Node) -> bool:
        """Whether ``v``'s changed value is worth a message right now.

        Lattice programs ship every improvement (default).  Accumulative
        programs may hold back sub-threshold deltas (Maiter-style), trading
        a bounded residual for far less traffic.
        """
        return True

    def apply_incoming(self, frag: Fragment, ctx: FragmentContext, v: Node,
                       payloads: Sequence[Any]) -> bool:
        """Apply buffered payloads for node ``v``; return True if changed.

        Default: aggregate through ``f_aggr`` (``M_i = f_aggr(B ∪ C_i.x̄)``).
        """
        return ctx.update(v, *payloads)

    # ------------------------------------------------------------------
    # streaming updates (the paper's future-work extension)
    # ------------------------------------------------------------------
    def inc_update(self, frag: Fragment, ctx: FragmentContext,
                   inserted: Sequence[Tuple[Node, Node, float]],
                   query: Any) -> Set[Node]:
        """Integrate locally materialised edge insertions into the state.

        Called by :func:`repro.serve.service.integrate_insertions` once
        the fragment has grown in place; returns the nodes IncEval should
        be (re)activated from.  Programs that support streaming override
        this; the default declares the program non-streamable (a
        :class:`~repro.serve.GraphService` refuses its batches).
        """
        raise ProgramError(
            f"{self.name} does not support streaming updates")

    def answer_delta(self, pg: PartitionedGraph,
                     contexts: Sequence[FragmentContext],
                     written: Sequence[Set[Node]],
                     query: Any) -> Optional[Dict[Node, Any]]:
        """The part of :meth:`assemble`'s answer that may have moved.

        ``written[i]`` holds the nodes of fragment ``i`` whose status
        variable was written (or created) since the caller started
        tracking — one update epoch of a resident service.  Return
        ``{node: current answer value}`` covering *at least* every answer
        entry that differs from before the epoch (entries that did not
        move are allowed; the caller compares), at a cost bounded by what
        was written.  ``None`` (the default) declares the delta unknown
        and the caller falls back to a full Assemble and diff.
        """
        return None

    def dense_inc_update(self, frag: Fragment, ctx: "FragmentContext",
                         src_lids: Any, dst_lids: Any, weights: Any,
                         query: Any) -> Any:
        """Array form of :meth:`inc_update`: the fragment's new edge rows
        ``(src_lids[k], dst_lids[k], weights[k])`` (lists:
        :attr:`~repro.partition.grow.GrowthReport.rows`) are already
        readable through ``ctx.view.out_edges``; returns the lids to run
        :meth:`dense_inceval` from (an int array, repeats allowed)."""
        raise ProgramError(
            f"{self.name} does not support streaming updates")

    def dense_answer_delta(self, pg: PartitionedGraph,
                           contexts: Sequence[Any],
                           written: Sequence[Any],
                           query: Any) -> Optional[Dict[Node, Any]]:
        """Array form of :meth:`answer_delta`: ``written[i]`` holds the
        *owned* lids of fragment ``i`` whose status variable was written
        or created (repeats possible).  A program whose
        :meth:`dense_assemble` is the default reads the same array at
        those lids (:func:`repro.core.dense.assemble_owner_values`);
        ``None`` (the default) declares the delta unknown."""
        return None

    # ------------------------------------------------------------------
    # convergence support (conditions T1-T3, Section 4.1)
    # ------------------------------------------------------------------
    def leq(self, a: Any, b: Any) -> bool:
        """Partial order on status-variable values: ``a <=_p b``.

        ``a <=_p b`` means ``a`` is at least as advanced as ``b`` (e.g. a
        smaller distance under ``min``).  Defaults to the aggregator's order.
        """
        return self.aggregator.leq(a, b)

    def value_size_bytes(self, value: Any) -> int:
        """Approximate wire size of one shipped value
        (communication metric)."""
        return 16

    # ------------------------------------------------------------------
    # vectorized fast path (opt-in; see docs/performance.md)
    # ------------------------------------------------------------------
    def dense_peval(self, frag: Fragment, ctx: "FragmentContext",
                    query: Any) -> None:
        """Vectorized batch algorithm over ``ctx.array`` (round 0).

        Only called when :attr:`dense_capable` is True; must produce the
        same Assemble output as :meth:`peval` (the equivalence tests
        enforce it).
        """
        raise ProgramError(f"{self.name} has no dense PEval")

    def dense_inceval(self, frag: Fragment, ctx: "FragmentContext",
                      activated_lids: Any, query: Any) -> None:
        """Vectorized incremental step; ``activated_lids`` is an int
        array of local ids whose update parameter just changed."""
        raise ProgramError(f"{self.name} has no dense IncEval")

    def dense_emit(self, frag: Fragment, ctx: "FragmentContext",
                   lids: Any) -> Any:
        """Payload array to ship for the changed local ids ``lids``."""
        return ctx.array[lids]

    def dense_should_ship(self, frag: Fragment, ctx: "FragmentContext",
                          lids: Any) -> Any:
        """Boolean keep-mask over ``lids``; ``None`` (the default) ships
        everything."""
        return None

    def dense_apply_incoming(self, frag: Fragment, ctx: "FragmentContext",
                             lids: Any, payloads: Any) -> Any:
        """Aggregate incoming payload arrays; return changed unique lids."""
        from repro.core.dense import apply_aggregated
        return apply_aggregated(self.aggregator, ctx.array, lids, payloads)

    def dense_assemble(self, pg: PartitionedGraph, contexts: Sequence[Any],
                       query: Any) -> Any:
        """Assemble from dense contexts; default: owner-fragment values."""
        from repro.core.dense import assemble_owner_values
        return assemble_owner_values(pg, contexts)

    # ------------------------------------------------------------------
    def make_context(self, frag: Fragment, query: Any) -> FragmentContext:
        """Build the initial per-fragment context (engine entry point)."""
        init = self.init_values(frag, query)
        missing = [v for v in frag.graph.nodes if v not in init]
        if missing:
            raise ProgramError(
                f"init_values missed {len(missing)} local nodes on fragment "
                f"{frag.fid} (e.g. {missing[0]!r})")
        return FragmentContext(frag, self.aggregator, init)

    def make_dense_context(self, frag: Fragment,
                           query: Any) -> FragmentContext:
        """Build the array-backed context for the vectorized path."""
        from repro.core.dense import DenseContext
        ctx = DenseContext(frag, self.aggregator, dtype=self.dense_dtype)
        self.dense_seed(frag, ctx, query)
        return ctx

    def dense_seed(self, frag: Fragment, ctx: Any, query: Any) -> None:
        """Fill ``ctx.array`` with the initial status variables.

        The default routes through :meth:`init_values` (a Python dict),
        which is correct but pays a per-node loop; dense-capable programs
        override this with a direct array fill.
        """
        init = self.init_values(frag, query)
        missing = [v for v in frag.graph.nodes if v not in init]
        if missing:
            raise ProgramError(
                f"init_values missed {len(missing)} local nodes on fragment "
                f"{frag.fid} (e.g. {missing[0]!r})")
        ctx.load_values(init)

    @property
    def name(self) -> str:
        return type(self).__name__
