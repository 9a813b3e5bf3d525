"""Designated messages ``M(i, j)`` and the per-worker buffer ``B_x̄``.

After each round, worker ``P_i`` groups the changed values of its update
parameters by destination fragment and pushes one :class:`Message` per
destination (point-to-point, push-based).  Each entry is the paper's
``(x, val, r)`` triple: the update parameter, its value, and the round that
produced it.

:class:`MessageBuffer` is the receiver-side buffer.  Its length is the
staleness measure ``eta_i`` of Section 3 — *"the number of messages in buffer
B received by P_i from distinct workers"* — counted as message batches, which
is what the worked example (Example 4) counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (Any, Dict, Hashable, Iterable, List, Optional, Set,
                    Tuple)

Node = Hashable

#: crude but deterministic size accounting: bytes per
#: (node, value, round) entry
ENTRY_BYTES = 16
#: fixed per-message envelope overhead
ENVELOPE_BYTES = 24

_seq = itertools.count()


@dataclass(frozen=True)
class Message:
    """One designated message ``M(src, dst)`` produced by one round."""

    src: int
    dst: int
    round: int
    entries: Tuple[Tuple[Node, Any], ...]
    #: monotonically increasing id used for deterministic tie-breaking
    seq: int = field(default_factory=lambda: next(_seq))
    #: protocol flags (e.g. Chandy-Lamport snapshot token)
    token: Any = None
    #: wire size of one entry (programs shipping vectors override this)
    entry_bytes: int = ENTRY_BYTES

    @property
    def size_bytes(self) -> int:
        return ENVELOPE_BYTES + self.entry_bytes * len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class MessageBatch:
    """A packed designated message: all entries for one ``(dst, round)``.

    The vectorized engine coalesces every changed candidate bound for the
    same destination into one batch of parallel numpy arrays (``ids`` holds
    global node ids, ``payloads`` the shipped values), so the multiprocess
    runtime pays one ``queue.put``/pickle per destination per round instead
    of one per node.  ``len(batch)`` is the *logical* entry count, which is
    what the termination ledger and the checkpoint conservation counters
    track; :attr:`size_bytes` is the packed wire size.
    """

    src: int
    dst: int
    round: int
    ids: Any       # np.ndarray[int64] of global node ids
    payloads: Any  # np.ndarray aligned with ids
    #: monotonically increasing id used for deterministic tie-breaking
    seq: int = field(default_factory=lambda: next(_seq))
    #: protocol flags (e.g. Chandy-Lamport snapshot token)
    token: Any = None
    #: per-entry size of the equivalent unpacked message (reporting only)
    entry_bytes: int = ENTRY_BYTES

    @property
    def entries(self) -> Tuple[Tuple[Node, Any], ...]:
        """Materialise ``(node, value)`` pairs (generic-path compatibility,
        checkpoint replay into non-vectorized engines)."""
        return tuple(zip(self.ids.tolist(), self.payloads.tolist()))

    @property
    def size_bytes(self) -> int:
        return ENVELOPE_BYTES + self.ids.nbytes + self.payloads.nbytes

    def __len__(self) -> int:
        return int(self.ids.size)


def fresh_seq() -> int:
    """Allocate the next wire sequence number.

    Transport code that re-materialises a message (a fault-injected
    duplicate, a rebuilt sub-batch) must give the copy its own ``seq``:
    two wire messages sharing one sequence number break the seq-keyed
    ledger accounting (sent = delivered + in-flight, per seq).
    """
    return next(_seq)


def entry_count(messages: Iterable[Any]) -> int:
    """Total logical entries across messages (the ledger's currency)."""
    return sum(len(m) for m in messages)


def make_messages(src: int, round_no: int,
                  per_destination: Dict[int, List[Tuple[Node, Any]]],
                  token: Any = None,
                  entry_bytes: int = ENTRY_BYTES) -> List[Message]:
    """Build one message per destination fragment from grouped entries."""
    out = []
    for dst in sorted(per_destination):
        entries = tuple(per_destination[dst])
        if entries:
            out.append(Message(src=src, dst=dst, round=round_no,
                               entries=entries, token=token,
                               entry_bytes=entry_bytes))
    return out


class MessageBuffer:
    """Receiver-side buffer ``B_x̄_i`` with staleness accounting."""

    __slots__ = ("_messages", "total_received", "total_bytes")

    def __init__(self):
        self._messages: List[Message] = []
        self.total_received = 0
        self.total_bytes = 0

    def push(self, msg: Message) -> None:
        self._messages.append(msg)
        self.total_received += 1
        self.total_bytes += msg.size_bytes

    def drain(self, before: Optional[int] = None) -> List[Message]:
        """Atomically take and clear all buffered messages.

        This is the only point where messages leave the buffer (the paper's
        single race condition; the threaded runtime guards it with a lock).
        ``before`` takes only those stamped with an earlier round, in
        sender order, and keeps the rest (a BSP superstep's input).
        """
        if before is None:
            taken, self._messages = self._messages, []
            return taken
        taken = sorted((m for m in self._messages if m.round < before),
                       key=attrgetter("src"))
        self._messages = [m for m in self._messages if m.round >= before]
        return taken

    def peek(self) -> List[Message]:
        """A copy of the buffered messages, without consuming them.

        This is the supported way to inspect channel state (checkpoint code
        records buffered messages through it); callers must not rely on the
        private storage behind ``__slots__``.
        """
        return list(self._messages)

    def rewrite(self, fn) -> None:
        """Replace each buffered message by ``fn(message)``, counters
        untouched (a takeover copies slab-backed views out this way)."""
        self._messages = [fn(m) for m in self._messages]

    @property
    def staleness(self) -> int:
        """``eta_i``: number of message batches currently buffered."""
        return len(self._messages)

    def distinct_senders(self) -> Set[int]:
        return {m.src for m in self._messages}

    def __len__(self) -> int:
        return len(self._messages)

    def __bool__(self) -> bool:
        return bool(self._messages)


def group_entries(messages: Iterable[Any]) -> Dict[Node, List[Any]]:
    """Group buffered entries by node, preserving arrival order.

    Accepts both :class:`Message` and :class:`MessageBatch` (whose
    ``entries`` property unpacks the arrays), so a generic engine can
    consume batches produced by a vectorized peer.
    """
    grouped: Dict[Node, List[Any]] = {}
    for msg in messages:
        for node, value in msg.entries:
            grouped.setdefault(node, []).append(value)
    return grouped
