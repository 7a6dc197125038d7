"""CacheLib-like hybrid (DRAM + flash) log-structured cache.

This package reproduces the cache architecture the paper builds on
(§2.1): a small DRAM item cache in front of a log-structured flash cache
whose space "is partitioned into regions, and each region is used to
package cache objects with different sizes ... CacheLib evicts entire
regions rather than individual cache objects".

The flash layer talks to storage through a narrow
:class:`~repro.cache.backends.RegionStore` interface with four
implementations — the paper's four schemes:

* ``BlockRegionStore`` — regions at fixed offsets on a conventional SSD
  (**Block-Cache**, the baseline).
* ``FileRegionStore`` — regions inside one large file on the F2FS-like
  filesystem over ZNS (**File-Cache**, Figure 1a).
* ``ZoneRegionStore`` — one region per zone, written directly to the ZNS
  SSD, reset on eviction, zero WA (**Zone-Cache**, Figure 1b).
* ``ZtlRegionStore`` — flexible region size through the zone translation
  middle layer (**Region-Cache**, Figure 1c).

``HybridCache`` is the public facade: ``get``/``set``/``delete`` plus a
:class:`CacheStats` block with hit ratio, throughput inputs, latency
percentiles, and per-layer write-amplification.
"""

from repro.cache.config import CacheConfig, CpuCosts
from repro.cache.item import EntryCodec, EntryLocation
from repro.cache.region import RegionBuffer, RegionMeta
from repro.cache.eviction import EVICTION_POLICIES, make_eviction_policy
from repro.cache.region_manager import RegionManager
from repro.cache.ram_cache import RamCache
from repro.cache.admission import AdmissionPolicy, AdmitAll, TinyLfuAdmission
from repro.cache.stats import CacheStats
from repro.cache.engine import HybridCache
from repro.cache.backends import (
    BlockRegionStore,
    FileRegionStore,
    RegionStore,
    ZoneRegionStore,
    ZtlRegionStore,
)

__all__ = [
    "CacheConfig",
    "CpuCosts",
    "EntryCodec",
    "EntryLocation",
    "RegionBuffer",
    "RegionMeta",
    "EVICTION_POLICIES",
    "make_eviction_policy",
    "RegionManager",
    "RamCache",
    "AdmissionPolicy",
    "AdmitAll",
    "TinyLfuAdmission",
    "CacheStats",
    "HybridCache",
    "RegionStore",
    "BlockRegionStore",
    "FileRegionStore",
    "ZoneRegionStore",
    "ZtlRegionStore",
]
