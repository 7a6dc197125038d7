"""Region eviction policies.

The paper's experiments use LRU ("We use LRU as the cache eviction
policy in CacheLib", §4.1): a flash hit promotes the whole region.  FIFO
is provided as the cheaper alternative CacheLib also ships.
"""

from __future__ import annotations

import abc
import enum
from collections import OrderedDict
from itertools import islice
from typing import List, Optional


class EvictionPolicyKind(enum.Enum):
    LRU = "lru"
    FIFO = "fifo"
    CLOCK = "clock"


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

    def track_front(self, region_id: int) -> None:
        """Re-insert at the *eviction end* (used by windowed reclaim to
        restore candidates it examined but did not choose)."""
        self.track(region_id)

    def peek(self, count: int) -> Optional[List[int]]:
        """The next ``count`` victims in order, without disturbing it.

        None when the order cannot be read ahead without side effects
        (CLOCK strips reference bits as it scans); windowed reclaim then
        falls back to repeated :meth:`pick_victim`.
        """
        return None

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

    def peek(self, count: int) -> List[int]:
        return list(islice(self._order, count))

    def track_front(self, region_id: int) -> None:
        self._order[region_id] = None
        self._order.move_to_end(region_id, last=False)

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


class ClockRegionPolicy(RegionEvictionPolicy):
    """Second-chance (CLOCK) approximation of LRU.

    A hit sets the region's reference bit; the victim scan skips (and
    strips) referenced regions once.  Hot regions survive an extra lap —
    the hit-ratio benefit of LRU — while the eviction order stays close
    to write order, which is what keeps zone-level garbage concentrated
    and GC cheap (Table 1's low-1.x WAFs).
    """

    def __init__(self) -> None:
        self._order: "OrderedDict[int, bool]" = OrderedDict()

    def track(self, region_id: int) -> None:
        # Enter with the reference bit set: a freshly-sealed region must
        # survive at least one scan lap, otherwise the scan's "first
        # unreferenced" rule would evict the *youngest* regions whenever
        # everything older is hot.
        self._order[region_id] = True
        self._order.move_to_end(region_id)

    def touch(self, region_id: int) -> None:
        if region_id in self._order:
            self._order[region_id] = True

    def untrack(self, region_id: int) -> None:
        self._order.pop(region_id, None)

    def pick_victim(self) -> Optional[int]:
        if not self._order:
            return None
        for _ in range(len(self._order)):
            region_id, referenced = next(iter(self._order.items()))
            if not referenced:
                return region_id
            # Second chance: strip the bit, rotate to the tail.
            self._order[region_id] = False
            self._order.move_to_end(region_id)
        return next(iter(self._order))

    def track_front(self, region_id: int) -> None:
        self._order[region_id] = False
        self._order.move_to_end(region_id, last=False)

    def __len__(self) -> int:
        return len(self._order)


def make_eviction_policy(kind: str) -> RegionEvictionPolicy:
    """Factory used by the engine ('lru', 'fifo', or 'clock')."""
    if kind == "lru":
        return LruRegionPolicy()
    if kind == "fifo":
        return FifoRegionPolicy()
    if kind == "clock":
        return ClockRegionPolicy()
    raise ValueError(f"unknown eviction policy {kind!r}")
