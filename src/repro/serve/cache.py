"""Per-query result cache, invalidated by changed-key sets.

The service answers point lookups out of the assembled answer map; the
cache in front of it exists for the *skewed* workloads a service actually
sees (a few hot keys asked over and over).  Entries are invalidated by the
epoch-apply path: after each batch converges, the service drops exactly the
keys whose answer the epoch changed (the program's answer delta, compared
with the snapshot) — so a cache hit is always identical to reading the
current snapshot, and hot keys untouched by an update survive arbitrarily
many epochs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Tuple

Node = Hashable

#: "no entry", as distinct from a cached ``None`` (a key read before its
#: node existed)
_ABSENT = object()


class QueryCache:
    """Bounded LRU of ``key -> answer value`` for the current snapshot.

    Capacity 0 disables caching (every ``get`` misses, ``put`` is a
    no-op), which keeps the service code branch-free.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "invalidations")

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: "OrderedDict[Node, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Node) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        value = self._entries.get(key, _ABSENT)
        if value is _ABSENT:
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def put(self, key: Node, value: Any) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, keys: Iterable[Node]) -> int:
        """Drop every cached entry whose key's value just changed."""
        dropped = 0
        for k in keys:
            if self._entries.pop(k, _ABSENT) is not _ABSENT:
                dropped += 1
        self.invalidations += dropped
        return dropped

    def stats(self) -> Dict[str, float]:
        asked = self.hits + self.misses
        return {"size": len(self._entries), "hits": self.hits,
                "misses": self.misses, "invalidations": self.invalidations,
                "hit_rate": self.hits / asked if asked else 0.0}

    def __repr__(self) -> str:
        return (f"QueryCache(size={len(self._entries)}, hits={self.hits}, "
                f"misses={self.misses})")
