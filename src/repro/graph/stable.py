"""Process-stable hashing of node identifiers.

Python's builtin ``hash`` is salted per process for ``str``/``bytes``
(``PYTHONHASHSEED``), so any placement decision derived from it — e.g.
``hash(v) % m`` fragment ownership — differs between two processes looking
at the same graph.  For a resident service whose owner map must agree with
every client, checkpoint and replica, placement has to be a pure function
of the node id.

:func:`stable_hash` is that function: a blake2b digest of a canonical,
type-tagged byte encoding of the id.  It is deterministic across processes,
interpreter restarts, and ``PYTHONHASHSEED`` values, and does not collide
``1`` with ``"1"`` (the type tag separates them — unlike ``repr``-based
schemes where ``repr(1) == "1"[1:-1]`` classes of confusion creep in).
"""

from __future__ import annotations

import hashlib
from typing import Hashable

Node = Hashable

_INT = b"i"
_STR = b"s"
_BYTES = b"y"
_FLOAT = b"f"
_BOOL = b"b"
_NONE = b"n"
_TUPLE = b"t"
_FROZENSET = b"z"
_REPR = b"r"


def canonical_bytes(v: Node) -> bytes:
    """A type-tagged byte encoding of ``v``, stable across processes.

    Covers the id types the generators and loaders produce (ints, strings,
    bytes, floats, tuples and frozensets thereof, ``None``); anything else
    falls back to ``repr``, which is stable for value-like objects but not
    for objects whose ``repr`` embeds a memory address — don't use those
    as node ids.
    """
    # bool before int: True is an int subtype but must not hash like 1
    if isinstance(v, bool):
        return _BOOL + (b"1" if v else b"0")
    if isinstance(v, int):
        return _INT + str(v).encode("ascii")
    if isinstance(v, str):
        return _STR + v.encode("utf-8")
    if isinstance(v, bytes):
        return _BYTES + v
    if isinstance(v, float):
        return _FLOAT + repr(v).encode("ascii")
    if v is None:
        return _NONE
    if isinstance(v, tuple):
        parts = [canonical_bytes(x) for x in v]
        return _TUPLE + b"".join(
            len(p).to_bytes(4, "big") + p for p in parts)
    if isinstance(v, frozenset):
        parts = sorted(canonical_bytes(x) for x in v)
        return _FROZENSET + b"".join(
            len(p).to_bytes(4, "big") + p for p in parts)
    return _REPR + repr(v).encode("utf-8")


def stable_hash(v: Node) -> int:
    """A 64-bit hash of node id ``v``, identical in every process."""
    digest = hashlib.blake2b(canonical_bytes(v), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def stable_owner(v: Node, m: int) -> int:
    """Deterministic fragment assignment: ``stable_hash(v) % m``.

    The placement function of :class:`repro.serve.GraphService` and of
    the growth it applies later (``grow_edge_cut``): both must agree on
    ownership, in any process.
    """
    return stable_hash(v) % m
