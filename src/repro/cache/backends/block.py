"""Block-Cache backend: regions at fixed offsets on a conventional SSD.

This is the paper's baseline.  Region ``i`` lives at byte
``i * region_size``; eviction simply overwrites the range, and the
device's FTL absorbs the update stream — producing the device-level WA
and GC tail latency the paper measures against.
"""

from __future__ import annotations

from repro.cache.backends.base import RegionStore, WafRaw
from repro.errors import CacheConfigError
from repro.flash.blockssd import BlockSsd
from repro.reclaim import GcHints


class BlockRegionStore(RegionStore):
    """Fixed-layout region store over a :class:`~repro.flash.BlockSsd`."""

    def __init__(self, device: BlockSsd, region_size: int, num_regions: int) -> None:
        if region_size <= 0 or region_size % device.block_size != 0:
            raise CacheConfigError(
                f"region_size {region_size} must be a positive multiple of the "
                f"device block size {device.block_size}"
            )
        if num_regions * region_size > device.capacity_bytes:
            raise CacheConfigError(
                f"{num_regions} regions of {region_size}B exceed device "
                f"capacity {device.capacity_bytes}B"
            )
        super().__init__(region_size, num_regions, device.block_size, device.tracer)
        self.device = device

    @property
    def scheme_name(self) -> str:
        return "Block-Cache"

    def write_region(self, region_id: int, payload: bytes) -> int:
        if not 0 <= region_id < self.num_regions or len(payload) != self.region_size:
            self.check_write(region_id, payload)  # raises
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("backend", "write_region", length=len(payload)):
                return self.device.write(
                    region_id * self.region_size, payload
                ).latency_ns
        return self.device.write(region_id * self.region_size, payload).latency_ns

    def _read_window(self, region_id: int, offset: int, length: int) -> bytes:
        return self.device.read(region_id * self.region_size + offset, length).data

    def invalidate_region(self, region_id: int) -> None:
        """No-op: the paper's Block-Cache never TRIMs an evicted region,
        so the FTL keeps relocating dead cache bytes until they are
        overwritten.  The §3.4 repair is :meth:`bind_gc_hints`, which
        lets the FTL's GC discard a condemned region's range instead."""
        if not 0 <= region_id < self.num_regions:
            self.check_region_id(region_id)  # raises

    def bind_gc_hints(self, hints: GcHints) -> None:
        """Hand the cache's §3.4 hints to the FTL's GC, with this
        store's region grid over the logical pages: GC asks the cache
        before copying the pages of a region and discards a condemned
        region's whole range ahead instead."""
        source = self.device.ftl.reclaim.source
        source.region_pages = self.region_size // self.device.block_size
        source.num_regions = self.num_regions
        source.hints = hints

    def waf_raw(self) -> WafRaw:
        stats = self.device.stats
        return WafRaw(
            app_host=stats.host_write_bytes,
            app_total=stats.host_write_bytes,
            dev_host=stats.host_write_bytes,
            dev_total=stats.media_write_bytes,
        )
