"""Zone-Cache backend: one region per zone, directly on the ZNS SSD.

The paper's second scheme (§3.2, Figure 1b): "If we enlarge the region
size to match the zone size (i.e., one region per zone), CacheLib can
directly use ZNS SSDs ... when a region is evicted, the zone can be
directly reset without any data migration.  This scheme can achieve real
zero WA and be GC-free" — and it needs no OP, so the cache gets the
whole device (the hit-ratio advantage of Figure 2).

The cost is equally direct: the region size *is* the zone size, so every
eviction drops a zone's worth of objects and every fill buffers a zone's
worth of bytes.
"""

from __future__ import annotations

from zlib import crc32

from repro.cache.admission import CountMinSketch
from repro.cache.backends.base import RegionStore, WafRaw
from repro.cache.backends.region import ZtlRegionStore
from repro.cache.item import EntryCodec
from repro.errors import CacheConfigError
from repro.flash.zone import ZoneState
from repro.flash.znsssd import ZnsSsd
from repro.ztl.layer import RegionTranslationLayer


class ZoneRegionStore(RegionStore):
    """Region store where region ``i`` is exactly zone ``i`` of a ZNS SSD."""

    def __init__(self, device: ZnsSsd, num_regions: int = 0) -> None:
        if num_regions == 0:
            num_regions = device.num_zones
        if not 1 <= num_regions <= device.num_zones:
            raise CacheConfigError(
                f"num_regions {num_regions} must be in [1, {device.num_zones}]"
            )
        super().__init__(
            device.zone_size, num_regions, device.block_size, device.tracer
        )
        self.device = device
        self.zone_resets = 0

    @property
    def scheme_name(self) -> str:
        return "Zone-Cache"

    def write_region(self, region_id: int, payload: bytes) -> int:
        """Reset the zone (if dirty) and write the whole region into it."""
        if not 0 <= region_id < self.num_regions or len(payload) != self.region_size:
            self.check_write(region_id, payload)  # raises
        tracer = self.tracer
        span = (
            tracer.span("backend", "write_region", length=len(payload))
            if tracer.enabled
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            latency = 0
            device = self.device
            zone = device.zones[region_id]
            if zone.state is not ZoneState.EMPTY:
                latency += device.reset_zone(region_id).latency_ns
                self.zone_resets += 1
            return latency + device.write(zone.start, payload).latency_ns
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def _read_window(self, region_id: int, offset: int, length: int) -> bytes:
        return self.device.read(region_id * self.region_size + offset, length).data

    def invalidate_region(self, region_id: int) -> None:
        """Eagerly reset the zone — eviction *is* the cleaning command."""
        if not 0 <= region_id < self.num_regions:
            self.check_region_id(region_id)  # raises
        zone = self.device.zones[region_id]
        if zone.state is not ZoneState.EMPTY:
            self.device.reset_zone(region_id)
            self.zone_resets += 1

    def waf_raw(self) -> WafRaw:
        """Zero app-level WA by construction: no middle layer, no GC."""
        stats = self.device.stats
        return WafRaw(
            app_host=stats.host_write_bytes,
            app_total=stats.host_write_bytes,
            dev_host=stats.host_write_bytes,
            dev_total=stats.media_write_bytes,
        )


class ZCacheRegionStore(ZtlRegionStore):
    """Z-Cache: the Region-Cache layout with hot/cold zone separation.

    The Z-CacheLib scheme (arxiv 2410.11260, the source paper's authors):
    at region-flush time the store classifies the region by the TinyLFU
    frequency of the keys it carries — the same seeded
    :class:`~repro.cache.admission.CountMinSketch` the admission policy
    already feeds — and routes majority-hot regions to lifetime group 0,
    the rest to the coldest group.  Hot regions (rewritten soon) then
    fill different zones than cold ones, so invalidations concentrate:
    hot zones decay toward empty on their own while cold zones stay
    valid and are reclaimed by finishing, not copying (pair with
    ``GcConfig(policy="cold_defer")``).

    Classification reads only the keys of the packed payload
    (:meth:`EntryCodec.scan_keys`, a header walk that decodes no value
    and works on the borrowed flush view).
    """

    def __init__(
        self,
        layer: RegionTranslationLayer,
        num_regions: int,
        sketch: CountMinSketch,
        hot_threshold: int = 2,
    ) -> None:
        super().__init__(layer, num_regions)
        if layer.config.host_groups < 2:
            raise CacheConfigError(
                "Z-Cache needs a layer with host_groups >= 2 "
                f"(got {layer.config.host_groups})"
            )
        if hot_threshold < 1:
            raise CacheConfigError(
                f"hot_threshold must be >= 1, got {hot_threshold}"
            )
        self.sketch = sketch
        self.hot_threshold = hot_threshold
        self.cold_group = layer.config.host_groups - 1
        self.hot_regions = 0
        self.cold_regions = 0

    @property
    def scheme_name(self) -> str:
        return "Z-Cache"

    def write_region(self, region_id: int, payload: bytes) -> int:
        if not 0 <= region_id < self.num_regions:
            self.check_region_id(region_id)  # raises
        group = self._classify(payload)
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("backend", "write_region", length=len(payload)):
                return self.layer.write_region(
                    region_id, payload, group=group
                ).latency_ns
        return self.layer.write_region(region_id, payload, group=group).latency_ns

    def _classify(self, payload) -> int:
        """Majority vote over the region's keys: hot stream or cold.

        A key is hot when every sketch row counts it at least
        ``hot_threshold`` times (``CountMinSketch.at_least``, walked in
        line: this runs for every key of every flushed region)."""
        keys = EntryCodec.scan_keys(payload)
        if not keys:
            return self.cold_group
        sketch = self.sketch
        rows, width = sketch._rows, sketch.width
        threshold = self.hot_threshold
        # 2 * hot >= len(keys), decided as soon as either side has it.
        hot_needed = (len(keys) + 1) // 2
        cold_spare = len(keys) - hot_needed
        for key in keys:
            for counts, salt in rows:
                if counts[crc32(key, salt) % width] < threshold:
                    hot = False
                    break
            else:
                hot = True
            if hot:
                hot_needed -= 1
                if not hot_needed:
                    self.hot_regions += 1
                    return 0
            elif cold_spare:
                cold_spare -= 1
            else:
                break
        self.cold_regions += 1
        return self.cold_group
