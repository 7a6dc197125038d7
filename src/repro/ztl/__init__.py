"""Zone Translation Layer — the paper's "simple middle layer" (§3.3).

Translates the cache's *region* interface (fixed-size, rewrite-in-place
identifiers) onto the ZNS SSD's *zone* interface (sequential-only,
reset-granular).  Key pieces, mirroring Figure 1(c):

* ``layer.map`` — a dict of region id → (zone, slot)
  (:class:`~repro.ztl.layer.RegionLocation`), one entry per live region
  (vs 4 KiB block maps in a filesystem: "less mapping overhead").
* ``ZoneRecord.owners`` — per zone, the region each slot holds or
  ``None``: the map's inverse.  The paper's per-zone validity bitmap
  ("for a zone with 1024 MiB and 16 MiB region, the bitmap will only
  cost 64 bits") is the set of owned slots, so validity is stored once.
* :class:`~repro.ztl.allocator.ZoneBook` — open-zone pool supporting
  concurrent writing of multiple zones; zones are finished when no space
  remains for another region.
* :mod:`repro.ztl.gc` — background collection driven by an empty-zone
  low watermark and a valid-data victim threshold
  (:class:`~repro.ztl.GcConfig`), both configurable as the paper
  prescribes: the zone-shaped source of the layer's
  :class:`~repro.reclaim.ReclaimEngine` (``layer.reclaim``), whose
  cache-provided *hints* drop cold regions instead of migrating them
  (the co-design direction in §3.4).
* :class:`~repro.ztl.layer.RegionTranslationLayer` — the facade the
  Region-Cache backend talks to.
"""

from repro.ztl.allocator import ZoneBook, ZoneUse
from repro.ztl.gc import GcConfig
from repro.ztl.layer import RegionLocation, RegionTranslationLayer, ZtlConfig, ZtlStats

__all__ = [
    "RegionLocation",
    "ZoneBook",
    "ZoneUse",
    "GcConfig",
    "RegionTranslationLayer",
    "ZtlConfig",
    "ZtlStats",
]
