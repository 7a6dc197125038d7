"""Builders for the four scheme stacks on matched hardware.

The paper compares "hardware-compatible" devices: a WD ZN540 ZNS SSD and
a WD SN540 block SSD built from the same NAND (§4).  These builders keep
that property: every scheme gets the same :class:`NandGeometry` /
:class:`NandTiming`, only the translation stack differs.  A builder makes
its device and layer, then hands the store to one shared tail,
:func:`_assemble`.

Geometry is scaled (DESIGN.md "Scaling rules"): the default
:class:`SchemeScale` uses 4 MiB zones and 64 KiB regions, preserving the
paper's zone:region ratio (1077 MiB : 16 MiB ≈ 67 : 1 → 64 : 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cache.admission import AdmissionPolicy, TinyLfuAdmission
from repro.cache.backends import (
    BlockRegionStore,
    FileRegionStore,
    RegionStore,
    ZCacheRegionStore,
    ZoneRegionStore,
    ZtlRegionStore,
)
from repro.cache.config import CacheConfig
from repro.cache.engine import HybridCache
from repro.errors import ConfigError
from repro.f2fs.fs import F2fs
from repro.f2fs.gc import CleanerConfig
from repro.f2fs.layout import F2fsConfig
from repro.flash.blockssd import BlockSsd, BlockSsdConfig
from repro.flash.ftl import FtlConfig
from repro.flash.nand import NandGeometry, NandTiming
from repro.flash.nullblk import NullBlkDevice
from repro.flash.zone import ZoneCostConfig
from repro.flash.znsssd import ZnsConfig, ZnsSsd
from repro.reclaim import GcHints
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.io import IoTracer, PoolConfig
from repro.units import KIB, MIB
from repro.ztl.gc import GcConfig
from repro.ztl.layer import RegionTranslationLayer, ZtlConfig

# The paper's four schemes: the default sweep grid (and the fixed shape
# several goldens lock in) stays exactly these four.
SCHEME_NAMES = ("Region-Cache", "Zone-Cache", "File-Cache", "Block-Cache")
# Everything build_scheme can construct, including the beyond-paper
# Z-Cache (hot/cold-separated Region-Cache variant).
ALL_SCHEME_NAMES = SCHEME_NAMES + ("Z-Cache",)


@dataclass(frozen=True)
class SchemeScale:
    """Scaled hardware shape shared by every scheme in one experiment."""

    zone_size: int = 4 * MIB
    region_size: int = 64 * KIB
    page_size: int = 4 * KIB
    # 1 MiB NAND erase block: the FTL's GC unit spans 16 regions, so
    # LRU-reordered region overwrites fragment erase blocks — the source
    # of the regular SSD's device-level WA on caching workloads (§2.3).
    pages_per_block: int = 256
    parallelism: int = 8
    ram_bytes: int = 2 * MIB
    timing: NandTiming = field(default_factory=NandTiming)
    # Device I/O pool shape.  The default serial pool reproduces the
    # original single-timeline behaviour exactly; raising ``channels`` or
    # ``queue_depth`` lets batched submissions overlap (EXPERIMENTS.md).
    io: PoolConfig = field(default_factory=PoolConfig)

    def geometry_for(self, media_bytes: int) -> NandGeometry:
        block_size = self.page_size * self.pages_per_block
        num_blocks = max(8, media_bytes // block_size)
        return NandGeometry(
            page_size=self.page_size,
            pages_per_block=self.pages_per_block,
            num_blocks=num_blocks,
            parallelism=self.parallelism,
        )


@dataclass
class SchemeStack:
    """A fully-wired scheme: the cache plus its substrate handles."""

    name: str
    cache: HybridCache
    clock: SimClock
    substrate: Dict[str, object] = field(default_factory=dict)

    @property
    def cache_bytes(self) -> int:
        return self.cache.config.flash_bytes

    def reclaim_engine(self):
        """``(layer_name, engine)`` for this scheme's reclamation engine.

        Zone-Cache returns ``("none", None)``: it has no device-side
        reclamation — the paper's premise — so its gc_* columns are
        zeros and its routing pressure is always idle.
        """
        layer = self.substrate.get("layer")
        if layer is not None:
            return "ztl", layer.reclaim
        fs = self.substrate.get("fs")
        if fs is not None:
            return "f2fs", fs.reclaim
        ftl = getattr(self.substrate.get("device"), "ftl", None)
        if ftl is not None:
            return "ftl", ftl.reclaim
        return "none", None

    def reclaim_pressure(self) -> Dict[str, object]:
        """Live reclamation pressure, the GC-aware routing signal.

        ``level`` is the pacer's watermark band (idle/background/urgent/
        emergency), ``free_units`` the remaining free-container headroom
        (-1 when the scheme has no reclamation layer), and
        ``gc_stall_us_p99`` the foreground stall the layer has inflicted
        so far.
        """
        name, engine = self.reclaim_engine()
        if engine is None:
            return {
                "layer": "none",
                "level": "idle",
                "free_units": -1,
                "gc_stall_us_p99": 0.0,
            }
        free = engine.source.free_units()
        return {
            "layer": name,
            "level": engine.pacer.level(free),
            "free_units": free,
            "gc_stall_us_p99": engine.stats.stall_us_p99,
        }

    def enable_adaptive_pacing(self, stall_slo_ns: int) -> bool:
        """Attach the AIMD pacing controller to the reclamation layer,
        budgeted at ``stall_slo_ns`` of foreground stall.

        Returns False when the scheme has none (Zone-Cache).  Built
        clusters use this to close the GC↔QoS loop without rebuilding
        per-layer configs.
        """
        _, engine = self.reclaim_engine()
        if engine is None:
            return False
        engine.pacer.enable_adaptive(stall_slo_ns)
        return True


def _zns_device(clock: SimClock, scale: SchemeScale, media_bytes: int,
                faults: Optional[FaultInjector],
                zone_costs: Optional[ZoneCostConfig]) -> ZnsSsd:
    """The one ZNS SSD every zoned scheme runs on, from ``scale``'s NAND."""
    return ZnsSsd(
        clock,
        ZnsConfig(
            geometry=scale.geometry_for(media_bytes),
            timing=scale.timing,
            zone_size=scale.zone_size,
            zone_costs=zone_costs if zone_costs is not None else ZoneCostConfig(),
        ),
        io=scale.io,
        tracer=IoTracer(),
        faults=faults,
    )


def _assemble(name: str, clock: SimClock, scale: SchemeScale, store: RegionStore,
              num_regions: int, substrate: Dict[str, object],
              faults: Optional[FaultInjector], cache_overrides: Dict[str, object],
              admission: Optional[AdmissionPolicy] = None) -> SchemeStack:
    """The tail every builder shares: cache config → HybridCache → §3.4
    hint binding → SchemeStack.

    With ``LifecycleConfig.gc_hints`` the layer that reclaims asks the
    cache whether a region is worth copying (and tells it what it
    dropped): only the ZTL under ``hint_layers="ztl"``, the historical
    coverage; also the F2FS cleaner and the FTL under ``"all"``.
    Zone-Cache has no reclaiming layer, so it is never hinted.
    """
    defaults = dict(region_size=store.region_size, num_regions=num_regions,
                    ram_bytes=scale.ram_bytes)
    config = CacheConfig(**{**defaults, **cache_overrides})
    cache = HybridCache(clock, store, config, admission)
    stack = SchemeStack(
        name, cache, clock, {**substrate, "store": store, "faults": faults}
    )
    layer_name, engine = stack.reclaim_engine()
    lifecycle = config.lifecycle
    if engine is not None and lifecycle.gc_hints and (
        lifecycle.hint_layers == "all" or layer_name == "ztl"
    ):
        store.bind_gc_hints(GcHints(cache.migration_worth, cache.on_region_dropped))
    return stack


def build_block_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    ftl: Optional[FtlConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """Block-Cache: regions on a conventional SSD with internal OP + GC.

    ``ftl`` overrides the whole FTL config (GC policy/watermark sweeps);
    the default is the stock 20%-OP greedy FTL.  ``zone_costs`` is
    accepted (so mixed fleets can apply one override to every shard) but
    has nothing to charge: a block SSD has no zones.
    """
    del zone_costs
    device = BlockSsd(
        clock,
        BlockSsdConfig(
            geometry=scale.geometry_for(media_bytes),
            timing=scale.timing,
            ftl=ftl if ftl is not None else FtlConfig(),
        ),
        io=scale.io,
        tracer=IoTracer(),
        faults=faults,
    )
    num_regions = min(cache_bytes, device.capacity_bytes) // scale.region_size
    store = BlockRegionStore(device, scale.region_size, num_regions)
    return _assemble(
        "Block-Cache", clock, scale, store, num_regions, {"device": device},
        faults, cache_overrides,
    )


def build_zone_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: Optional[int] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """Zone-Cache: one region per zone, no OP — the whole device caches."""
    device = _zns_device(clock, scale, media_bytes, faults, zone_costs)
    if cache_bytes is None:
        num_regions = device.num_zones
    else:
        num_regions = min(cache_bytes // scale.zone_size, device.num_zones)
    store = ZoneRegionStore(device, num_regions)
    return _assemble(
        "Zone-Cache", clock, scale, store, num_regions, {"device": device},
        faults, cache_overrides,
    )


def _build_ztl_cache(
    name: str,
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    gc: Optional[GcConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """Region-Cache, or Z-Cache when ``name`` says so.

    Z-Cache is the Z-CacheLib scheme (arxiv 2410.11260): Region-Cache
    plus ZNS-native hot/cold separation, and exactly three differences.
    The ZTL keeps a separate open-zone pool per lifetime group — two
    groups of one open zone each, so the open-zone footprint matches
    Region-Cache's two host-open zones.  GC defaults to the lazy
    ``cold_defer`` policy: harvest hot zones once they decay, leave cold
    zones sealed instead of recopying their stable survivors.  And one
    TinyLFU sketch serves both admission and the flush-time hot/cold
    classifier (:class:`ZCacheRegionStore`); its threshold of 1 admits
    everything (hit-ratio parity with Region-Cache) while still feeding
    the sketch.
    """
    z_cache = name == "Z-Cache"
    device = _zns_device(clock, scale, media_bytes, faults, zone_costs)
    if gc is None:
        # The empty-zone watermark scales with the device: the paper's
        # example is 8 empty zones on a 904-zone device (~1%).
        gc = GcConfig(
            min_empty_zones=max(2, device.num_zones // 12),
            victim_valid_threshold=0.20,
            policy="cold_defer" if z_cache else "greedy",
        )
    groups = dict(host_open_zones=1, host_groups=2) if z_cache else {}
    layer = RegionTranslationLayer(
        device, ZtlConfig(region_size=scale.region_size, gc=gc, **groups)
    )
    num_regions = min(cache_bytes // scale.region_size, layer.total_slots - 1)
    admission = None
    if z_cache:
        admission = TinyLfuAdmission(threshold=1)
        store = ZCacheRegionStore(layer, num_regions, admission.sketch)
    else:
        store = ZtlRegionStore(layer, num_regions)
    return _assemble(
        name, clock, scale, store, num_regions,
        {"device": device, "layer": layer}, faults, cache_overrides, admission,
    )


def build_region_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    gc: Optional[GcConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """Region-Cache: flexible regions through the zone translation layer."""
    return _build_ztl_cache(
        "Region-Cache", clock, scale, media_bytes, cache_bytes, gc, faults,
        zone_costs, **cache_overrides,
    )


def build_file_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    provision_ratio: float = 0.20,
    cleaner: Optional[CleanerConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """File-Cache: regions in one large file on the F2FS-like filesystem.

    ``cleaner`` overrides the section-cleaning config (policy/watermark
    sweeps); the default is F2FS's stock cost-benefit cleaner.
    """
    device = _zns_device(clock, scale, media_bytes, faults, zone_costs)
    # The metadata device shares the data device's tracer so one trace
    # shows the whole stack (journal writes included).
    meta = NullBlkDevice(
        clock,
        capacity_bytes=16 * MIB,  # the F2FS metadata area
        block_size=scale.page_size,
        tracer=device.tracer,
        faults=faults,
    )
    fs = F2fs(
        clock,
        device,
        meta,
        F2fsConfig(
            block_size=scale.page_size,
            provision_ratio=provision_ratio,
            checkpoint_interval_blocks=1 << 30,  # explicit checkpoints only
        ),
        cleaner if cleaner is not None else CleanerConfig(),
    )
    fs.mkfs()
    num_regions = min(cache_bytes, fs.usable_bytes) // scale.region_size
    store = FileRegionStore(fs, scale.region_size, num_regions)
    return _assemble(
        "File-Cache", clock, scale, store, num_regions,
        {"device": device, "meta": meta, "fs": fs}, faults, cache_overrides,
    )


# Flash regions are reclaimed FIFO, as CacheLib's navy engine does
# (the paper's "LRU" §4.1 setting is the DRAM tier's item policy,
# which RamCache implements).  FIFO keeps region death order equal to
# write order — the property that keeps zone GC cheap (Table 1).
# reclaim_window models navy's clean-region pool: region reuse
# deviates slightly from strict FIFO, leaving straggler regions in
# dying zones — the source of Table 1's low-1.x WAFs.  Zone-Cache
# reclaims exactly one zone at a time (no pool), matching §3.2.
NAVY = {"eviction_policy": "fifo", "reclaim_window": 128}


def provision(
    name: str,
    scale: SchemeScale,
    zones: int,
    cache_zones: int,
    file_zones: int,
    block_fills_lba: bool = False,
) -> Dict[str, object]:
    """:func:`build_scheme` keywords for one ``zones``-zone device of
    scheme ``name`` — the evaluation's provisioning rule, written once.

    Cache budgets follow each scheme's OP model (§4.1): Zone-Cache
    caches the whole device (no OP at all, §3.2) and takes only the
    reclaim-policy override, not navy's clean-region pool; the
    host-side schemes cache ``cache_zones`` and keep the rest as
    host-visible spare zones the ZTL/F2FS reclaim into, File-Cache's
    F2FS on its own ``file_zones`` device (metadata + provisioning
    around the same cache budget); Block-Cache's OP is *internal*,
    behind the FTL — with ``block_fills_lba`` it fills its exposed LBA
    space and that internal OP is the only headroom its GC gets.
    """
    media = zones * scale.zone_size
    if name == "Zone-Cache":
        return dict(media_bytes=media, cache_bytes=None, eviction_policy="fifo")
    fills = name == "Block-Cache" and block_fills_lba
    kwargs: Dict[str, object] = dict(
        media_bytes=media,
        cache_bytes=media if fills else cache_zones * scale.zone_size,
        **NAVY,
    )
    if name == "File-Cache":
        kwargs["file_media_bytes"] = file_zones * scale.zone_size
    return kwargs


def build_scheme(
    name: str,
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: Optional[int] = None,
    file_media_bytes: Optional[int] = None,
    **kwargs,
) -> SchemeStack:
    """Build any scheme by its paper name (see :data:`ALL_SCHEME_NAMES`).

    This is the one construction path every experiment shares (the fault
    sweep, the figures, db_bench and the serving cluster all route
    through it) so per-scheme call-shape quirks live here and nowhere
    else: Zone-Cache treats ``cache_bytes=None`` as "cache the whole
    device" (its no-OP premise), the other schemes require an explicit
    budget, and File-Cache may get a larger device via
    ``file_media_bytes`` (F2FS needs room for metadata + provisioning
    around the same cache budget, as §4.1 provisions it).  Z-Cache is
    built by the Region-Cache builder; its name selects its differences.
    """
    if name not in ALL_SCHEME_NAMES:
        raise ConfigError(
            f"unknown scheme {name!r}; expected one of {ALL_SCHEME_NAMES}"
        )
    if name == "Zone-Cache":
        return build_zone_cache(clock, scale, media_bytes, cache_bytes, **kwargs)
    if cache_bytes is None:
        raise ConfigError(f"{name} requires an explicit cache_bytes budget")
    if name == "Block-Cache":
        return build_block_cache(clock, scale, media_bytes, cache_bytes, **kwargs)
    if name == "File-Cache":
        if file_media_bytes is not None:
            media_bytes = file_media_bytes
        return build_file_cache(clock, scale, media_bytes, cache_bytes, **kwargs)
    return _build_ztl_cache(name, clock, scale, media_bytes, cache_bytes, **kwargs)
