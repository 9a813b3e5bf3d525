"""Placement: the one function that puts a node id in a fragment.

A partition is built once and then serves many queries (paper, Section
6): a resident service grows it per update batch, and every client,
checkpoint and replica has to agree on where a node lives.  Placement is
therefore a pure function of the node id, identical in every process.
:func:`owner` is that function; ``HashPartitioner``, the service's cold
build, ``grow_edge_cut`` and map-reduce keys place with it (:func:`owners`
over a graph), ``HashEdgePartitioner`` with its edge form :func:`edge_owner`.

- An integer id ``v`` goes to ``hash((salt, v)) % m``: CPython's 64-bit
  tuple hash over an integer's hash, which ``PYTHONHASHSEED`` does not
  salt.  A graph whose ids are all non-negative integers (what
  ``GraphArrays.ids`` records) is placed in one C-level pass over its id
  array.
- Every other id ``v`` goes to ``stable_hash((salt, v)) % m``.  Builtin
  ``hash`` is salted per process for ``str`` / ``bytes`` (and tuples of
  them, CF's ``("u", i)``), so it cannot place those.

:func:`stable_hash` is a blake2b digest of a canonical, type-tagged byte
encoding of the id.  It is deterministic across processes, interpreter
restarts, and ``PYTHONHASHSEED`` values, and does not collide ``1`` with
``"1"`` (the type tag separates them — unlike ``repr``-based schemes
where ``repr(1) == "1"[1:-1]`` classes of confusion creep in).
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import Hashable

import numpy as np

from repro.graph.csr import GraphArrays, integer_ids

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


def owner(v: Node, m: int, salt: int = 0) -> int:
    """The fragment of node id ``v`` among ``m``: ``hash((salt, v)) % m``
    for an integer id, ``stable_hash((salt, v)) % m`` for any other."""
    if isinstance(v, (int, np.integer)):
        return hash((salt, v)) % m
    return stable_hash((salt, v)) % m


def edge_owner(u: Node, v: Node, m: int, salt: int = 0) -> int:
    """The fragment of edge ``(u, v)``: :func:`owner`'s rule over the
    key ``(salt, u, v)``."""
    ints = all(isinstance(x, (int, np.integer)) for x in (u, v))
    return (hash if ints else stable_hash)((salt, u, v)) % m


def owners(g, m: int, salt: int = 0) -> np.ndarray:
    """:func:`owner` of every node of ``g`` (any backend), as ``int64``
    fragment ids in ``g.nodes`` order.

    Reads a graph made over arrays through its arrays, so it builds none
    of its dicts; ids that are all non-negative integers take one pass of
    the builtin ``hash`` at C speed, other ids one :func:`owner` each.
    """
    arrays = getattr(g, "_arrays", None)
    if isinstance(arrays, GraphArrays):
        nodes, ids = arrays.nodes, arrays.ids
    else:
        nodes = np.fromiter(g.nodes, object, g.num_nodes)
        ids = integer_ids(nodes)
    if ids is None:
        return np.fromiter(map(owner, nodes, repeat(m), repeat(salt)),
                           np.int64, len(nodes))
    return np.fromiter(map(hash, zip(repeat(salt), nodes)), np.int64,
                       len(nodes)) % m
