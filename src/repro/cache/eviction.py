"""Region eviction policies.

The paper's experiments use LRU ("We use LRU as the cache eviction
policy in CacheLib", §4.1): a flash hit promotes the whole region.  FIFO
is provided as the cheaper alternative CacheLib also ships.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from itertools import islice
from typing import List, Optional

# The selectable region orders (``CacheConfig.eviction_policy``).
EVICTION_POLICIES = ("lru", "fifo")


class RegionEvictionPolicy(abc.ABC):
    """Orders sealed regions for reclaim."""

    @abc.abstractmethod
    def track(self, region_id: int) -> None:
        """A region was sealed (entered the evictable set)."""

    @abc.abstractmethod
    def touch(self, region_id: int) -> None:
        """A read hit landed in the region."""

    @abc.abstractmethod
    def untrack(self, region_id: int) -> None:
        """The region was reclaimed or invalidated."""

    @abc.abstractmethod
    def pick_victim(self) -> Optional[int]:
        """Region to evict next, or None if nothing is tracked."""

    @abc.abstractmethod
    def at(self, position: int) -> int:
        """The victim ``position`` places from the head (0 = next),
        without disturbing the order; ``position`` must be below
        ``len(self)``."""

    def order(self) -> "List[int]":
        """Region ids in eviction order (next victim first).

        Default implementation for OrderedDict-backed policies.
        """
        return list(getattr(self, "_order", {}))

    @abc.abstractmethod
    def __len__(self) -> int: ...


class FifoRegionPolicy(RegionEvictionPolicy):
    """Oldest-sealed region is evicted; hits do not refresh."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def track(self, region_id: int) -> None:
        self._order[region_id] = None

    def touch(self, region_id: int) -> None:
        pass  # FIFO ignores accesses

    def untrack(self, region_id: int) -> None:
        self._order.pop(region_id, None)

    def pick_victim(self) -> Optional[int]:
        if not self._order:
            return None
        return next(iter(self._order))

    def at(self, position: int) -> int:
        return next(islice(self._order, position, None))

    def __len__(self) -> int:
        return len(self._order)


class LruRegionPolicy(FifoRegionPolicy):
    """Least-recently-used region is evicted; hits refresh recency."""

    def track(self, region_id: int) -> None:
        self._order[region_id] = None
        self._order.move_to_end(region_id)

    def touch(self, region_id: int) -> None:
        if region_id in self._order:
            self._order.move_to_end(region_id)


def make_eviction_policy(kind: str) -> RegionEvictionPolicy:
    """Factory used by the engine (one of :data:`EVICTION_POLICIES`)."""
    if kind == "lru":
        return LruRegionPolicy()
    if kind == "fifo":
        return FifoRegionPolicy()
    raise ValueError(f"unknown eviction policy {kind!r}")
