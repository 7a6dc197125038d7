"""Region lifecycle: allocation, sealing, whole-region eviction.

CacheLib "evicts entire regions rather than individual cache objects" to
amortize flash GC cost (§2.1).  The manager owns the fixed pool of
region ids, the sealed-region eviction order, and the per-region key
maps the engine needs to purge the index when a region is reclaimed.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.cache.eviction import make_eviction_policy
from repro.cache.lifecycle import LivenessLedger
from repro.cache.region import RegionMeta
from repro.reclaim import ReclaimStats, ensure_at_least, windowed_draw
from repro.sim.rng import make_rng


class RegionManager:
    """Tracks every region's state: free → filling → sealed → (evicted).

    ``reclaim_window > 1`` models navy's clean-region pool: the victim is
    drawn (deterministically seeded) from the first ``reclaim_window``
    regions in policy order rather than strictly the head.  Eviction
    counters live in a shared :class:`~repro.reclaim.ReclaimStats` so the
    bench reports cache reclamation in the same ``gc_*`` column family as
    the other three layers.
    """

    def __init__(
        self,
        num_regions: int,
        eviction_policy: str = "lru",
        reclaim_window: int = 1,
        seed: int = 97,
        dead_first: bool = False,
    ) -> None:
        ensure_at_least("num_regions", num_regions, 2)
        ensure_at_least("reclaim_window", reclaim_window, 1)
        self.num_regions = num_regions
        self.reclaim_window = reclaim_window
        self._free: Deque[int] = deque(range(num_regions))
        self._sealed: Dict[int, RegionMeta] = {}
        self._quarantined: Set[int] = set()
        self._policy = make_eviction_policy(eviction_policy)
        self._rng = make_rng(seed, "reclaim")
        self._seal_seq = 0
        self.reclaim_stats = ReclaimStats()
        # Lifecycle extensions: a uniform dead-byte account, and (opt-in)
        # taking fully-dead regions as victims before the policy order.
        self.ledger = LivenessLedger()
        self._dead_first = dead_first
        # Under dead-first: ``(sealed_seq, region_id)`` of every sealed
        # region whose key map emptied, as a heap.  Entries of regions
        # since evicted or quarantined go stale and are skipped lazily.
        self._dead: List[Tuple[int, int]] = []

    # --- queries ---------------------------------------------------------------

    @property
    def regions_evicted(self) -> int:
        return self.reclaim_stats.victims_reclaimed

    @property
    def items_evicted(self) -> int:
        return self.reclaim_stats.units_dropped

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def sealed_count(self) -> int:
        return len(self._sealed)

    def meta(self, region_id: int) -> Optional[RegionMeta]:
        return self._sealed.get(region_id)

    def is_quarantined(self, region_id: int) -> bool:
        return region_id in self._quarantined

    # --- lifecycle ---------------------------------------------------------------

    def allocate(self) -> Tuple[int, Optional[Dict[bytes, int]]]:
        """Take a region for filling.

        Returns ``(region_id, evicted)``: ``evicted`` is None for a
        region from the free pool.  If the free pool is empty, the
        eviction policy's victim is reclaimed and its key map (every key
        still living in it, with its entry size) is returned so the
        engine can drop the index entries (this is the hit-ratio cost of
        large regions, §3.2).
        """
        if self._free:
            return self._free.popleft(), None
        victim = None
        if self._dead_first:
            victim = self._dead_victim()
            if victim is not None:
                self.ledger.dead_first_evictions += 1
        policy = self._policy
        if victim is None:
            victim = windowed_draw(
                policy, self.reclaim_window, len(self._sealed), self._rng
            )
            if victim is None:
                raise RuntimeError("no sealed region to evict — engine bug")
        meta = self._sealed.pop(victim)
        policy.untrack(victim)
        evicted = meta.keys  # the popped meta is ours alone: no copy
        stats = self.reclaim_stats
        stats.victims_reclaimed += 1
        stats.units_dropped += len(evicted)
        return victim, evicted

    def seal(self, meta: RegionMeta) -> None:
        """A filled region becomes evictable."""
        self._seal_seq = seq = self._seal_seq + 1
        meta.sealed_seq = seq
        self._sealed[meta.region_id] = meta
        self._policy.track(meta.region_id)
        if self._dead_first and not meta.keys:
            heapq.heappush(self._dead, (seq, meta.region_id))

    def quarantine(self, region_id: int) -> None:
        """Pull a region out of circulation permanently (dead media).

        The region leaves the free pool and the eviction order; it is
        never allocated again.  Capacity shrinks — graceful degradation
        instead of crashing on every flush that lands on bad flash.
        """
        if region_id in self._quarantined:
            return
        self._quarantined.add(region_id)
        if region_id in self._free:
            self._free.remove(region_id)
        if self._sealed.pop(region_id, None) is not None:
            self._policy.untrack(region_id)

    def _dead_victim(self) -> Optional[int]:
        """Oldest fully-dead region (lowest ``sealed_seq``), if any — a
        free victim.

        A region whose keys all died (deletes, TTL sweep, generation
        bumps) costs nothing to reclaim: no index teardown, no hit-ratio
        loss.  Taking it ahead of the policy order is what makes a
        post-storm dead region "sort as a zero-valid victim instantly".
        The heap top answers; stale tops (regions no longer sealed under
        that seq) are dropped on the way.
        """
        dead, sealed = self._dead, self._sealed
        while dead:
            seq, region_id = dead[0]
            meta = sealed.get(region_id)
            if meta is not None and meta.sealed_seq == seq:
                return region_id
            heapq.heappop(dead)
        return None

    def eviction_position(self, region_id: int) -> Optional[float]:
        """Where a sealed region sits in the eviction order.

        0.0 means it is the next victim, values near 1.0 mean it was
        sealed recently; None if the region is not sealed.  This is the
        cache-side knowledge the paper's §3.4 co-design feeds to zone GC:
        regions about to be evicted are not worth migrating.
        """
        meta = self._sealed.get(region_id)
        if meta is None:
            return None
        if self._dead_first and not meta.keys:
            # Fully dead: it is the next victim regardless of where the
            # policy order left it.
            return 0.0
        order = self._policy.order()
        if not order:
            return None
        try:
            index = order.index(region_id)
        except ValueError:
            return None
        if len(order) == 1:
            return 0.0
        return index / (len(order) - 1)

    def note_key_removed(
        self, region_id: int, key: bytes, reason: str = "deleted"
    ) -> None:
        """A key died (delete/overwrite/expiry/bump); account it.

        ``reason`` must be one of :data:`repro.cache.lifecycle.
        DEAD_REASONS`; the bytes move from the region's live count to
        the shared :class:`~repro.cache.lifecycle.LivenessLedger`.
        """
        meta = self._sealed.get(region_id)
        if meta is not None:
            keys = meta.keys
            nbytes = keys.pop(key, None)
            if nbytes is not None:
                meta.live_bytes -= nbytes
                meta.dead_bytes += nbytes
                ledger = self.ledger  # LivenessLedger.note_dead in line
                ledger.dead_bytes[reason] += nbytes
                ledger.dead_items[reason] += 1
                if not keys and self._dead_first:
                    heapq.heappush(self._dead, (meta.sealed_seq, region_id))

    def live_bytes(self) -> int:
        """Bytes still reachable across all sealed regions."""
        return sum(meta.live_bytes for meta in self._sealed.values())

    def sealed_dead_bytes(self) -> int:
        """Dead bytes currently parked in sealed (unreclaimed) regions."""
        return sum(meta.dead_bytes for meta in self._sealed.values())

    def __repr__(self) -> str:
        return (
            f"RegionManager(free={len(self._free)}, sealed={len(self._sealed)}, "
            f"evicted={self.regions_evicted})"
        )
