"""Region-Cache backend: flexible regions via the zone translation layer.

The paper's third scheme (§3.3, Figure 1c): a thin middle layer maps
cache regions onto zones, so the cache keeps its preferred (small)
region size on a large-zone device.  The price is middle-layer GC —
captured as the ``app`` component of the WAF breakdown (Table 1).

The cache's ``num_regions`` must be *smaller* than the layer's total
slots: the difference is the scheme's over-provisioning, which is the
knob Figure 4 sweeps.
"""

from __future__ import annotations

from repro.cache.backends.base import RegionStore, WafRaw
from repro.errors import CacheConfigError
from repro.reclaim import GcHints
from repro.ztl.layer import RegionTranslationLayer


class ZtlRegionStore(RegionStore):
    """Region store over a :class:`~repro.ztl.RegionTranslationLayer`."""

    def __init__(self, layer: RegionTranslationLayer, num_regions: int) -> None:
        if num_regions < 1:
            raise CacheConfigError("num_regions must be >= 1")
        if num_regions >= layer.total_slots:
            raise CacheConfigError(
                f"cache of {num_regions} regions needs OP headroom below the "
                f"layer's {layer.total_slots} slots (GC would thrash at 100% "
                "utilization)"
            )
        super().__init__(
            layer.region_size, num_regions, layer.device.block_size, layer.tracer
        )
        self.layer = layer

    @property
    def op_ratio(self) -> float:
        """Fraction of layer slots held back as GC headroom."""
        return 1.0 - self.num_regions / self.layer.total_slots

    @property
    def scheme_name(self) -> str:
        return "Region-Cache"

    def write_region(self, region_id: int, payload: bytes) -> int:
        if not 0 <= region_id < self.num_regions:
            self.check_region_id(region_id)  # raises
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("backend", "write_region", length=len(payload)):
                return self.layer.write_region(region_id, payload).latency_ns
        return self.layer.write_region(region_id, payload).latency_ns

    def _read_window(self, region_id: int, offset: int, length: int) -> bytes:
        return self.layer.read_region(region_id, offset, length).data

    def invalidate_region(self, region_id: int) -> None:
        """Tell the layer the region is dead so GC never migrates it."""
        if not 0 <= region_id < self.num_regions:
            self.check_region_id(region_id)  # raises
        self.layer.invalidate_region(region_id)

    def bind_gc_hints(self, hints: GcHints) -> None:
        """Hand the cache's §3.4 hints to the layer's GC: a region the
        cache does not find worth copying is dropped instead of migrated,
        and every region the layer drops — on a hint, a dead zone or a
        survivor with nowhere to land — is reported to ``hints.on_drop``.
        """
        self.layer.reclaim.source.hints = hints

    def waf_raw(self) -> WafRaw:
        layer_stats = self.layer.stats
        dev_stats = self.layer.device.stats
        return WafRaw(
            app_host=layer_stats.host_region_writes,
            app_total=layer_stats.host_region_writes
            + layer_stats.migrated_region_writes,
            dev_host=dev_stats.host_write_bytes,
            dev_total=dev_stats.media_write_bytes,
        )
