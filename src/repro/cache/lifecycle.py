"""Tenant item lifecycle: namespace versioning and region liveness.

Two ideas from production hybrid caches, joined to the paper's region
model:

* **Namespace versioning** — every tenant owns a generation counter and
  versioned keys carry it as a prefix (``tenant:gen:key``).  Invalidating
  a tenant bumps the counter in O(1): old-generation keys become
  unreachable (no future request ever names them) and their bytes turn
  into *dead liveness* in whatever region holds them.  Nothing is
  scanned at bump time; the dead generation ages out through region
  reclamation — which is exactly where the ZNS schemes differ (a
  Zone-Cache resets the zone for free, a Block-Cache's FTL copies the
  dead bytes around first).
* **Liveness ledger** — one uniform account of why bytes died: TTL
  expiry, deletes, overwrites, generation bumps, and GC hint drops all
  report here instead of each maintaining ad-hoc counters.  The ledger
  is what the eviction order and the reclaim victim policies read to
  treat a post-storm dead region as a zero-valid victim.

Everything here defaults off (``LifecycleConfig()``) so the engine's
historical behavior — and every golden row — is bit-identical unless a
stack opts in.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import CacheConfigError

# Why bytes die, in one closed set.  "expired" = TTL, "deleted" =
# explicit delete, "overwritten" = superseded by a newer set, "invalidated"
# = the tenant's namespace generation was bumped past the item, "dropped"
# = the backend discarded the region (GC hint / dead zone).
DEAD_REASONS = ("expired", "deleted", "overwritten", "invalidated", "dropped")


@dataclass(frozen=True)
class LifecycleConfig:
    """Opt-in switches for the tenant lifecycle layer.

    ``versioning`` turns on namespace-generation key classification in
    the engine (stale-generation reads refuse, eviction/GC classify dead
    generations).  ``dead_first_eviction`` makes the region manager take
    fully-dead regions as victims before consulting the policy order.
    ``gc_hints`` wires the engine's :meth:`~repro.cache.engine.
    HybridCache.migration_worth` into the backend's GC.
    ``hint_layers`` scopes that wiring: ``"ztl"`` (the historical
    coverage — only schemes with a zone translation layer) or ``"all"``
    (also the F2FS cleaner and the FTL, the full §3.4 surface).
    ``hint_drop_position`` additionally drops regions whose eviction
    position is at or below the threshold (0.0 = only dead regions are
    dropped; 1.0 = every region the hint is asked about).
    """

    versioning: bool = False
    dead_first_eviction: bool = False
    gc_hints: bool = False
    hint_drop_position: float = 0.0
    hint_layers: str = "ztl"

    HINT_LAYER_CHOICES = ("ztl", "all")

    def __post_init__(self) -> None:
        if not 0.0 <= self.hint_drop_position <= 1.0:
            raise CacheConfigError(
                f"hint_drop_position must be in [0, 1], got "
                f"{self.hint_drop_position}"
            )
        if self.hint_layers not in self.HINT_LAYER_CHOICES:
            raise CacheConfigError(
                f"hint_layers must be one of {self.HINT_LAYER_CHOICES}, got "
                f"{self.hint_layers!r}"
            )


def tenant_token(tenant_id: bytes) -> int:
    """Stable integer handle for a tenant id (journal-friendly)."""
    return zlib.crc32(tenant_id)


def versioned_prefix(tenant_id: bytes, generation: int) -> bytes:
    """The ``tenant:gen:`` key prefix for one namespace generation."""
    return tenant_id + b":" + str(generation).encode("ascii") + b":"


def split_versioned(key: bytes) -> Optional[Tuple[bytes, int]]:
    """Parse ``tenant:gen:rest`` → ``(tenant, gen)``; None if unversioned.

    Unversioned keys (no parsable generation field) always classify as
    current, so mixing versioned and plain tenants in one cache is safe.
    """
    first = key.find(b":")
    if first <= 0:
        return None
    second = key.find(b":", first + 1)
    if second <= first + 1:
        return None
    gen_bytes = key[first + 1 : second]
    if not gen_bytes.isdigit():
        return None
    return key[:first], int(gen_bytes)


class NamespaceVersions:
    """Per-tenant generation counters (the O(1) invalidation core).

    Generations are keyed by :func:`tenant_token` so a bump can be
    journaled as two integers and restored by :meth:`restore` after a
    crash without knowing the tenant's name bytes.
    """

    def __init__(self) -> None:
        self._by_token: Dict[int, int] = {}
        self.bumps = 0

    def generation(self, tenant_id: bytes) -> int:
        return self._by_token.get(tenant_token(tenant_id), 0)

    def bump(self, tenant_id: bytes, generation: Optional[int] = None) -> int:
        """Advance a tenant's generation; returns the new value.

        With an explicit ``generation`` (replicated bumps, hint replay)
        the counter moves forward to it but never backward — replaying a
        superseded bump is a no-op.
        """
        token = tenant_token(tenant_id)
        current = self._by_token.get(token, 0)
        target = current + 1 if generation is None else generation
        if target > current:
            self._by_token[token] = target
            self.bumps += 1
        return self._by_token.get(token, 0)

    def restore(self, token: int, generation: int) -> None:
        """Crash-recovery path: re-apply a journaled bump by token."""
        if generation > self._by_token.get(token, 0):
            self._by_token[token] = generation

    def is_current(self, key: bytes) -> bool:
        """False only for a versioned key whose generation was bumped past."""
        parsed = split_versioned(key)
        if parsed is None:
            return True
        tenant, generation = parsed
        return generation >= self._by_token.get(tenant_token(tenant), 0)

    def tokens(self) -> List[Tuple[int, int]]:
        """(token, generation) pairs, stable order (journal rebuild)."""
        return sorted(self._by_token.items())


class LivenessLedger:
    """Monotonic account of dead bytes/items by cause.

    One instance per :class:`~repro.cache.region_manager.RegionManager`;
    every removal path reports here so TTL expiry, deletes, overwrites,
    generation bumps, and backend drops are counted uniformly instead of
    each path keeping private counters.
    """

    def __init__(self) -> None:
        self.dead_bytes: Dict[str, int] = {reason: 0 for reason in DEAD_REASONS}
        self.dead_items: Dict[str, int] = {reason: 0 for reason in DEAD_REASONS}
        # Regions the backend dropped instead of migrating because every
        # surviving key belonged to a dead generation (GC-hint path).
        self.dead_generation_regions = 0
        # Fully-dead regions taken by dead-first eviction before the
        # policy order was consulted.
        self.dead_first_evictions = 0

    def note_dead(self, nbytes: int, reason: str, items: int = 1) -> None:
        self.dead_bytes[reason] += nbytes
        self.dead_items[reason] += items

    @property
    def total_dead_bytes(self) -> int:
        return sum(self.dead_bytes.values())

    def snapshot(self) -> Dict[str, int]:
        row = {f"dead_bytes_{r}": self.dead_bytes[r] for r in DEAD_REASONS}
        row.update({f"dead_items_{r}": self.dead_items[r] for r in DEAD_REASONS})
        row["dead_generation_regions"] = self.dead_generation_regions
        row["dead_first_evictions"] = self.dead_first_evictions
        return row

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{reason}={self.dead_bytes[reason]}B" for reason in DEAD_REASONS
        )
        return f"LivenessLedger({parts})"


class ItemLifecycle:
    """Engine-facing facade: TTL bookkeeping + namespace versions.

    The expiry dict is the engine's historical ``_expiry`` (same object,
    shared by reference for the hot-path emptiness check); the heap adds
    the lazy sweep the old dict could not support — due items surface at
    region rotation instead of waiting for a re-read.
    """

    def __init__(self, config: LifecycleConfig) -> None:
        self.config = config
        self.expiry: Dict[bytes, int] = {}
        self._heap: List[Tuple[int, bytes]] = []
        self.namespaces = NamespaceVersions()

    def note_ttl(self, key: bytes, expiry_ns: int) -> None:
        self.expiry[key] = expiry_ns
        heapq.heappush(self._heap, (expiry_ns, key))

    def clear_ttl(self, key: bytes) -> None:
        # The heap entry is left to go stale; ``due`` revalidates against
        # the dict before yielding.
        self.expiry.pop(key, None)

    def due(self, now_ns: int) -> Iterator[bytes]:
        """Keys whose TTL elapsed, draining the heap as it goes."""
        heap = self._heap
        expiry = self.expiry
        while heap and heap[0][0] <= now_ns:
            expiry_ns, key = heapq.heappop(heap)
            if expiry.get(key) == expiry_ns:
                yield key
