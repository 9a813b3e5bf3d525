"""Chandy-Lamport snapshots for asynchronous runs (paper, Section 6).

GRAPE+ adapts Chandy-Lamport for checkpoints because asynchronous runs have
no superstep boundary to roll back to: *"The master broadcasts a checkpoint
request with a token.  Upon receiving the request, each worker ignores the
request if it has already held the token.  Otherwise, it snapshots its
current state before sending any messages.  The token is attached to its
following messages.  Messages that arrive late without the token are added
to the last snapshot."*

:class:`ChandyLamportCoordinator` plugs into the simulator via three hooks
(initiate broadcast, outgoing-message stamping, delivery inspection) and
produces a :class:`GlobalSnapshot` that is *consistent*: restoring it into a
fresh runtime (:meth:`SimulatedRuntime.seed_from_snapshot`) and running to
fixpoint yields the same answer as the uninterrupted run.

The same coordinator also serves the *live* runtimes: there the master only
raises the token (:meth:`ChandyLamportCoordinator.begin`) and each worker
records itself between rounds (:meth:`record_live`), exactly the paper's
protocol.  :class:`LiveCheckpointer` rotates coordinator epochs for periodic
online checkpoints, keeping the last complete snapshot for rollback.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.messages import Message
from repro.errors import SnapshotError
from repro.runtime.events import Custom


@dataclass
class WorkerSnapshot:
    """Frozen state of one worker: status variables + program scratch.

    ``values`` is what the worker's context exported
    (:meth:`~repro.core.pie.FragmentContext.export_state`): a
    ``node -> value`` dict for a generic context, a copy of the status
    array for a dense one.  Only a context of the same kind over the same
    fragment loads it back (``import_state``).
    """

    wid: int
    values: Any
    scratch: Dict[str, Any]


@dataclass
class GlobalSnapshot:
    """A consistent global checkpoint: worker states + channel states."""

    token: int
    worker_states: Dict[int, WorkerSnapshot] = field(default_factory=dict)
    #: in-channel messages recorded per destination worker
    channel_messages: Dict[int, List[Message]] = field(default_factory=dict)
    complete: bool = False

    def buffered_messages(self, wid: int) -> List[Message]:
        return list(self.channel_messages.get(wid, []))

    def fragment_state(self, wid: int) -> WorkerSnapshot:
        """Per-fragment extraction for surgical recovery.

        A replacement worker is re-seeded from exactly one fragment's
        recorded state (plus :meth:`buffered_messages`), without touching
        the surviving workers — Theorem 2 licenses restarting any subset
        from a consistent cut under monotone IncEval.
        """
        try:
            return self.worker_states[wid]
        except KeyError:
            raise SnapshotError(
                f"snapshot {self.token} holds no state for worker {wid} "
                f"({self.num_workers_recorded} recorded)") from None

    @property
    def num_workers_recorded(self) -> int:
        return len(self.worker_states)

    @property
    def num_channel_messages(self) -> int:
        return sum(len(v) for v in self.channel_messages.values())


def stamp_messages(messages: Iterable[Message], token: Any) -> List[Message]:
    """Rebuild ``messages`` with the snapshot ``token`` attached.

    Type-preserving: packed :class:`~repro.core.messages.MessageBatch`
    traffic stays packed (``dataclasses.replace`` keeps everything but
    the token, including the ``seq``).
    """
    return [dataclasses.replace(m, token=token) for m in messages]


class ChandyLamportCoordinator:
    """Drives one snapshot epoch over a runtime.

    Simulator usage::

        coord = ChandyLamportCoordinator()
        runtime = SimulatedRuntime(engine, policy,
                                   snapshot_coordinator=coord)
        coord.request_at(runtime, time=5.0)
        result = runtime.run()
        snap = coord.finalize()    # consistent once the run drains

    Live usage (threaded runtime / multiprocess master): the master calls
    :meth:`begin`; workers call :meth:`record_live` (or the master records
    shipped state with :meth:`record_state`) the first time they see the
    token, stamp their subsequent sends via :meth:`stamp_outgoing`, and
    report un-tokened deliveries via :meth:`on_deliver`.
    """

    def __init__(self, token: int = 1):
        self.token = token
        self.snapshot: Optional[GlobalSnapshot] = None
        self._runtime = None
        self._recorded: set = set()
        # live runtimes mutate the snapshot from several worker threads
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def request_at(self, runtime, time: float) -> None:
        """Schedule the master's checkpoint broadcast at ``time``."""
        self._runtime = runtime
        runtime.queue.push(Custom(time=time, tag="snapshot",
                                  payload=self.token))

    def begin(self) -> None:
        """Raise the token for a live run (workers self-record later)."""
        with self._lock:
            if self.snapshot is None:
                self.snapshot = GlobalSnapshot(token=self.token)

    # -- runtime hooks -------------------------------------------------
    def on_initiate(self, runtime, now: float) -> None:
        """Master broadcast: every worker that has not held the token yet
        snapshots its local state immediately."""
        if self.snapshot is None:
            self.snapshot = GlobalSnapshot(token=self.token)
        for wid in range(runtime.engine.num_workers):
            self._record_worker(runtime, wid)

    def stamp_outgoing(self, wid: int, messages: List[Message]
                       ) -> List[Message]:
        """Attach the token to messages sent after the local snapshot."""
        if self.snapshot is None or wid not in self._recorded:
            return messages
        return stamp_messages(messages, self.token)

    def on_deliver(self, wid: int, message: Message, now: float) -> None:
        """Channel recording: late messages without the token belong to the
        pre-snapshot state and are added to the checkpoint."""
        if self.snapshot is None:
            return
        if message.token == self.token:
            return
        if wid in self._recorded:
            with self._lock:
                self.snapshot.channel_messages.setdefault(
                    wid, []).append(message)

    # ------------------------------------------------------------------
    def recorded(self, wid: int) -> bool:
        """True once worker ``wid`` holds the token (has self-recorded)."""
        return wid in self._recorded

    @property
    def num_recorded(self) -> int:
        return len(self._recorded)

    def record_live(self, wid: int, context,
                    buffered: Iterable[Message]) -> None:
        """A live worker records itself upon first seeing the token.

        Must be called between rounds (the context is stable) with the
        worker's buffer lock held, so the recorded state and the recorded
        channel messages form one consistent cut.
        """
        self.record_state(wid, context.export_state(),
                          copy.deepcopy(context.scratch), buffered)

    def record_state(self, wid: int, values: Any, scratch: Dict,
                     buffered: Iterable[Message] = ()) -> None:
        """Record an already-extracted worker state (multiprocess master)."""
        with self._lock:
            if wid in self._recorded:
                return
            if self.snapshot is None:
                self.snapshot = GlobalSnapshot(token=self.token)
            self.snapshot.worker_states[wid] = WorkerSnapshot(
                wid=wid, values=values, scratch=scratch)
            for msg in buffered:
                self.snapshot.channel_messages.setdefault(
                    wid, []).append(msg)
            self._recorded.add(wid)

    def _record_worker(self, runtime, wid: int) -> None:
        if wid in self._recorded:
            return
        ctx = runtime.engine.contexts[wid]
        # messages already buffered at snapshot time are channel state;
        # peek() inspects them without consuming (and without reaching
        # into the buffer's private storage)
        self.record_state(wid, ctx.export_state(),
                          copy.deepcopy(ctx.scratch),
                          runtime.workers[wid].buffer.peek())
        # so are messages produced by the currently running round but not
        # yet shipped: the recorded values already reflect that round, and
        # once shipped these messages will carry the token (i.e. they are
        # counted exactly once, here)
        with self._lock:
            running = runtime._running[wid]
            for msg in running[0].messages if running is not None else ():
                self.snapshot.channel_messages.setdefault(
                    msg.dst, []).append(msg)

    def finalize(self) -> GlobalSnapshot:
        """Validate and return the snapshot after the run drained."""
        if self.snapshot is None:
            raise SnapshotError("no snapshot was initiated")
        if self._runtime is not None:
            expected = self._runtime.engine.num_workers
            if self.snapshot.num_workers_recorded != expected:
                recorded = self.snapshot.num_workers_recorded
                raise SnapshotError(
                    f"snapshot incomplete: {recorded}"
                    f"/{expected} workers recorded")
        self.snapshot.complete = True
        return self.snapshot


class LiveCheckpointer:
    """Periodic Chandy-Lamport checkpoints over a live runtime.

    The master polls :meth:`maybe_start` / :meth:`maybe_complete`; workers
    read :attr:`current` to self-record and stamp.  Only one epoch is in
    flight at a time; the previous complete snapshot stays available in
    :attr:`last` for rollback.  An epoch completes once every worker has
    recorded *and* no un-tokened message can still be in flight (the
    caller passes its in-flight count), so the cut is consistent.
    """

    def __init__(self, interval: float, num_workers: int):
        if interval <= 0:
            raise SnapshotError(
                f"checkpoint interval must be positive, got {interval!r}")
        self.interval = interval
        self.num_workers = num_workers
        #: the last complete snapshot (rollback target), or None
        self.last: Optional[GlobalSnapshot] = None
        #: the in-progress epoch's coordinator, or None between epochs
        self.current: Optional[ChandyLamportCoordinator] = None
        self.completed = 0
        self._next_token = 1
        self._last_epoch_end = 0.0

    def maybe_start(self, now: float) -> Optional[ChandyLamportCoordinator]:
        """Open a new epoch when the interval elapsed; returns it if so."""
        if self.current is not None:
            return None
        if now - self._last_epoch_end < self.interval:
            return None
        coord = ChandyLamportCoordinator(token=self._next_token)
        self._next_token += 1
        coord.begin()
        self.current = coord
        return coord

    def abort_current(self, now: float) -> bool:
        """Abandon the in-flight epoch (a recorder died mid-cut).

        A takeover invalidates the open epoch: the dead incarnation can
        never record, and its counted un-tokened traffic would leave the
        conservation residual permanently non-zero.  The epoch clock
        restarts from ``now`` so the next cut begins against the post-
        takeover fleet.  Returns True when an epoch was actually open.
        """
        if self.current is None:
            return False
        self.current = None
        self._last_epoch_end = now
        return True

    def maybe_complete(self, now: float,
                       in_flight: int) -> Optional[GlobalSnapshot]:
        """Finalize the open epoch once every worker recorded and the wire
        is quiet; returns the fresh snapshot if it completed."""
        coord = self.current
        if coord is None or coord.num_recorded < self.num_workers:
            return None
        if in_flight > 0:
            return None
        snap = coord.snapshot
        snap.complete = True
        self.last = snap
        self.current = None
        self.completed += 1
        self._last_epoch_end = now
        return snap
