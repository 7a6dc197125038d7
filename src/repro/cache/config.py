"""Cache engine configuration.

The defaults model CacheLib's log-structured "navy" engine at the scale
used throughout the benchmarks (regions of 64 KiB–16 MiB depending on
the scheme).  ``CpuCosts`` centralizes the host-side costs that shape
Figure 3: per-item insert work and — critically — the per-item cost of
tearing down the shared index when a whole region is evicted, which is
what makes filling a *huge* region stall "caused by eviction operations
in other threads, which involve lock controls for the shared index".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.eviction import EVICTION_POLICIES
from repro.cache.lifecycle import LifecycleConfig
from repro.errors import CacheConfigError
from repro.sim.faults import RetryPolicy
from repro.units import KIB, MIB


@dataclass(frozen=True)
class CpuCosts:
    """Host CPU costs in nanoseconds, charged to the simulated clock."""

    get_ns: int = 900
    set_per_item_ns: int = 1_200
    delete_ns: int = 800
    buffer_copy_ns_per_kib: int = 40
    evict_index_per_item_ns: int = 10_000
    # Lock-convoy model: tearing down N index entries in one eviction costs
    # N * evict_index_per_item_ns * (1 + N / evict_contention_scale_items).
    # Small regions (tens of items) pay ~linear cost; zone-sized regions
    # (thousands of items) pay the superlinear contention the paper measures
    # as the Figure 3(a) insertion-time jump.
    evict_contention_scale_items: int = 300
    region_alloc_ns: int = 4_000
    # Allocating + zeroing the in-memory region buffer ("a larger region
    # size requires setting up a larger region buffer in memory", §3.2).
    buffer_alloc_ns_per_mib: int = 2_000_000

    def __post_init__(self) -> None:
        for name in (
            "get_ns",
            "set_per_item_ns",
            "delete_ns",
            "buffer_copy_ns_per_kib",
            "evict_index_per_item_ns",
            "region_alloc_ns",
            "buffer_alloc_ns_per_mib",
        ):
            if getattr(self, name) < 0:
                raise CacheConfigError(f"{name} must be non-negative")
        if self.evict_contention_scale_items < 1:
            raise CacheConfigError("evict_contention_scale_items must be >= 1")

    def eviction_teardown_ns(self, num_items: int) -> int:
        """Index-teardown cost for evicting a region holding ``num_items``."""
        if num_items <= 0:
            return 0
        contention = 1.0 + num_items / self.evict_contention_scale_items
        return int(num_items * self.evict_index_per_item_ns * contention)


@dataclass(frozen=True)
class CacheConfig:
    """Hybrid-cache shape.

    ``num_regions * region_size`` is the flash cache size.  ``ram_bytes``
    is the DRAM item cache in front (CacheLib's LRU tier).  The region
    size is the knob the paper turns: 16 MiB for Block/File/Region-Cache,
    the whole zone size for Zone-Cache.
    """

    region_size: int = 256 * KIB
    num_regions: int = 64
    ram_bytes: int = 4 * MIB
    # Region reclaim order on flash.  CacheLib's navy engine reclaims
    # regions FIFO (the "LRU" the paper configures is the DRAM tier's
    # item policy, which RamCache implements); FIFO keeps region write
    # order == death order, which is what makes zone GC cheap.
    eviction_policy: str = "fifo"
    # CacheLib's navy engine keeps a pool of clean regions and reclaims
    # ahead of use, so regions are *reused* in an order that deviates
    # from strict policy order by up to this many slots.  The deviation
    # leaves a few live stragglers in otherwise-dead zones — the source
    # of the low-1.x steady-state WAFs in the paper's Table 1.
    reclaim_window: int = 1
    # Per-item CRC32 (generation-salted) appended to every on-flash
    # entry.  Off by default: the non-checksummed format is what the
    # golden benchmarks lock.  Required for crash recovery to replay a
    # torn (power-cut) flush instead of dropping the whole region.
    checksums: bool = False
    # Backoff budget for transient device errors (TransientMediaError,
    # AppendFailedError, ZoneResourceError) on reads and region flushes.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cpu: CpuCosts = field(default_factory=CpuCosts)
    # Tenant item-lifecycle layer: namespace versioning, dead-first
    # eviction, and GC hint wiring.  All off by default — the historical
    # engine behavior (and every golden row) is bit-identical unless a
    # stack opts in.  See repro.cache.lifecycle.
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)

    def __post_init__(self) -> None:
        if self.region_size <= 0:
            raise CacheConfigError("region_size must be positive")
        if self.num_regions < 2:
            raise CacheConfigError(
                "need at least 2 regions (one filling, one evictable)"
            )
        if self.ram_bytes < 0:
            raise CacheConfigError("ram_bytes must be non-negative")
        if self.eviction_policy not in EVICTION_POLICIES:
            raise CacheConfigError(
                f"unknown eviction_policy {self.eviction_policy!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if self.reclaim_window < 1:
            raise CacheConfigError("reclaim_window must be >= 1")

    @property
    def flash_bytes(self) -> int:
        """Total flash cache capacity."""
        return self.region_size * self.num_regions
