"""Builders for the four scheme stacks on matched hardware.

The paper compares "hardware-compatible" devices: a WD ZN540 ZNS SSD and
a WD SN540 block SSD built from the same NAND (§4).  These builders keep
that property: every scheme gets the same :class:`NandGeometry` /
:class:`NandTiming`, only the translation stack differs.

Geometry is scaled (DESIGN.md "Scaling rules"): the default
:class:`SchemeScale` uses 4 MiB zones and 64 KiB regions, preserving the
paper's zone:region ratio (1077 MiB : 16 MiB ≈ 67 : 1 → 64 : 1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cache.admission import TinyLfuAdmission
from repro.cache.backends import (
    BlockRegionStore,
    FileRegionStore,
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

    def enable_adaptive_pacing(self, adaptive) -> bool:
        """Attach an AIMD pacing controller to the reclamation layer.

        Returns False when the scheme has none (Zone-Cache).  Built
        clusters use this to close the GC↔QoS loop without rebuilding
        per-layer configs.
        """
        _, engine = self.reclaim_engine()
        if engine is None:
            return False
        engine.pacer.enable_adaptive(adaptive)
        return True


def _bind_gc_hints(cache: HybridCache, store) -> None:
    """§3.4 co-design: the one rule for which reclaim layer asks the
    cache whether a region is worth copying (and tells it what it
    dropped).  ``hint_layers="ztl"`` — the historical coverage — hints
    only the zone translation layer; ``"all"`` also the F2FS cleaner
    and the FTL."""
    lifecycle = cache.config.lifecycle
    if lifecycle.gc_hints and (
        lifecycle.hint_layers == "all" or isinstance(store, ZtlRegionStore)
    ):
        store.bind_gc_hints(GcHints(cache.migration_worth, cache.on_region_dropped))


def _cache_config(scale: SchemeScale, region_size: int, num_regions: int,
                  **overrides) -> CacheConfig:
    defaults = dict(
        region_size=region_size,
        num_regions=num_regions,
        ram_bytes=scale.ram_bytes,
    )
    defaults.update(overrides)
    return CacheConfig(**defaults)


def build_block_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    ftl_op_ratio: float = 0.20,
    ftl: Optional[FtlConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """Block-Cache: regions on a conventional SSD with internal OP + GC.

    ``ftl`` overrides the whole FTL config (GC policy/watermark sweeps);
    when omitted, only ``ftl_op_ratio`` deviates from the defaults.
    ``zone_costs`` is accepted (so mixed fleets can apply one override to
    every shard) but has nothing to charge: a block SSD has no zones.
    """
    del zone_costs
    geometry = scale.geometry_for(media_bytes)
    device = BlockSsd(
        clock,
        BlockSsdConfig(
            geometry=geometry,
            timing=scale.timing,
            ftl=ftl if ftl is not None else FtlConfig(op_ratio=ftl_op_ratio),
        ),
        io=scale.io,
        tracer=IoTracer(),
        faults=faults,
    )
    num_regions = min(cache_bytes, device.capacity_bytes) // scale.region_size
    store = BlockRegionStore(device, scale.region_size, num_regions)
    config = _cache_config(scale, scale.region_size, num_regions, **cache_overrides)
    cache = HybridCache(clock, store, config)
    _bind_gc_hints(cache, store)
    return SchemeStack(
        name="Block-Cache",
        cache=cache,
        clock=clock,
        substrate={"device": device, "store": store, "faults": faults},
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
    geometry = scale.geometry_for(media_bytes)
    device = ZnsSsd(
        clock,
        ZnsConfig(
            geometry=geometry,
            timing=scale.timing,
            zone_size=scale.zone_size,
            zone_costs=zone_costs if zone_costs is not None else ZoneCostConfig(),
        ),
        io=scale.io,
        tracer=IoTracer(),
        faults=faults,
    )
    if cache_bytes is None:
        num_regions = device.num_zones
    else:
        num_regions = min(cache_bytes // scale.zone_size, device.num_zones)
    store = ZoneRegionStore(device, num_regions)
    config = _cache_config(scale, scale.zone_size, num_regions, **cache_overrides)
    return SchemeStack(
        name="Zone-Cache",
        cache=HybridCache(clock, store, config),
        clock=clock,
        substrate={"device": device, "store": store, "faults": faults},
    )


def build_region_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    host_open_zones: int = 2,
    gc: Optional[GcConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """Region-Cache: flexible regions through the zone translation layer."""
    geometry = scale.geometry_for(media_bytes)
    device = ZnsSsd(
        clock,
        ZnsConfig(
            geometry=geometry,
            timing=scale.timing,
            zone_size=scale.zone_size,
            zone_costs=zone_costs if zone_costs is not None else ZoneCostConfig(),
        ),
        io=scale.io,
        tracer=IoTracer(),
        faults=faults,
    )
    if gc is None:
        # The empty-zone watermark scales with the device: the paper's
        # example is 8 empty zones on a 904-zone device (~1%).
        gc = GcConfig(
            min_empty_zones=max(2, device.num_zones // 12),
            victim_valid_threshold=0.20,
        )
    layer = RegionTranslationLayer(
        device,
        ZtlConfig(
            region_size=scale.region_size,
            host_open_zones=host_open_zones,
            gc=gc,
        ),
    )
    num_regions = min(cache_bytes // scale.region_size, layer.total_slots - 1)
    store = ZtlRegionStore(layer, num_regions)
    config = _cache_config(scale, scale.region_size, num_regions, **cache_overrides)
    cache = HybridCache(clock, store, config)
    _bind_gc_hints(cache, store)
    return SchemeStack(
        name="Region-Cache",
        cache=cache,
        clock=clock,
        substrate={"device": device, "layer": layer, "store": store,
                   "faults": faults},
    )


def build_file_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    provision_ratio: float = 0.20,
    meta_bytes: int = 16 * MIB,
    cleaner: Optional[CleanerConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """File-Cache: regions in one large file on the F2FS-like filesystem.

    ``cleaner`` overrides the section-cleaning config (policy/watermark
    sweeps); the default is F2FS's stock cost-benefit cleaner.
    """
    geometry = scale.geometry_for(media_bytes)
    device = ZnsSsd(
        clock,
        ZnsConfig(
            geometry=geometry,
            timing=scale.timing,
            zone_size=scale.zone_size,
            zone_costs=zone_costs if zone_costs is not None else ZoneCostConfig(),
        ),
        io=scale.io,
        tracer=IoTracer(),
        faults=faults,
    )
    # The metadata device shares the data device's tracer so one trace
    # shows the whole stack (journal writes included).
    meta = NullBlkDevice(
        clock,
        capacity_bytes=meta_bytes,
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
    config = _cache_config(scale, scale.region_size, num_regions, **cache_overrides)
    cache = HybridCache(clock, store, config)
    _bind_gc_hints(cache, store)
    return SchemeStack(
        name="File-Cache",
        cache=cache,
        clock=clock,
        substrate={"device": device, "meta": meta, "fs": fs, "store": store,
                   "faults": faults},
    )


def build_z_cache(
    clock: SimClock,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: int,
    host_open_zones: int = 1,
    host_groups: int = 2,
    hot_threshold: int = 2,
    admission_threshold: int = 1,
    gc: Optional[GcConfig] = None,
    faults: Optional[FaultInjector] = None,
    zone_costs: Optional[ZoneCostConfig] = None,
    **cache_overrides,
) -> SchemeStack:
    """Z-Cache: Region-Cache plus ZNS-native hot/cold separation.

    The Z-CacheLib scheme (arxiv 2410.11260): one TinyLFU sketch serves
    both the admission filter and the flush-time hot/cold classifier
    (:class:`ZCacheRegionStore`), the ZTL keeps a separate open-zone
    pool per lifetime group (one open zone each, so the open-zone
    footprint matches Region-Cache's), and GC defaults to the lazy
    ``cold_defer`` policy — harvest hot zones once they decay, leave
    cold zones sealed instead of recopying their stable survivors.
    ``admission_threshold=1`` admits everything (hit-ratio parity with
    Region-Cache) while still feeding the sketch; raise it to also
    filter one-hit wonders from flash.
    """
    geometry = scale.geometry_for(media_bytes)
    device = ZnsSsd(
        clock,
        ZnsConfig(
            geometry=geometry,
            timing=scale.timing,
            zone_size=scale.zone_size,
            zone_costs=zone_costs if zone_costs is not None else ZoneCostConfig(),
        ),
        io=scale.io,
        tracer=IoTracer(),
        faults=faults,
    )
    if gc is None:
        gc = GcConfig(
            min_empty_zones=max(2, device.num_zones // 12),
            victim_valid_threshold=0.20,
            policy="cold_defer",
        )
    layer = RegionTranslationLayer(
        device,
        ZtlConfig(
            region_size=scale.region_size,
            host_open_zones=host_open_zones,
            host_groups=host_groups,
            gc=gc,
        ),
    )
    num_regions = min(cache_bytes // scale.region_size, layer.total_slots - 1)
    admission = TinyLfuAdmission(threshold=admission_threshold)
    store = ZCacheRegionStore(
        layer, num_regions, admission.sketch, hot_threshold=hot_threshold
    )
    config = _cache_config(scale, scale.region_size, num_regions, **cache_overrides)
    cache = HybridCache(clock, store, config, admission=admission)
    _bind_gc_hints(cache, store)
    return SchemeStack(
        name="Z-Cache",
        cache=cache,
        clock=clock,
        substrate={"device": device, "layer": layer, "store": store,
                   "faults": faults},
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
    """Build any scheme by its paper name (see :data:`SCHEME_NAMES`).

    This is the one construction path every experiment shares (the fault
    sweep, the figures, db_bench and the serving cluster all route
    through it) so per-scheme call-shape quirks live here and nowhere
    else: Zone-Cache treats ``cache_bytes=None`` as "cache the whole
    device" (its no-OP premise), the other schemes require an explicit
    budget, and File-Cache may get a larger device via
    ``file_media_bytes`` (F2FS needs room for metadata + provisioning
    around the same cache budget, as §4.1 provisions it).
    """
    builders: Dict[str, Callable[..., SchemeStack]] = {
        "Block-Cache": build_block_cache,
        "Zone-Cache": build_zone_cache,
        "File-Cache": build_file_cache,
        "Region-Cache": build_region_cache,
        "Z-Cache": build_z_cache,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; expected one of {ALL_SCHEME_NAMES}"
        ) from None
    if name == "Zone-Cache":
        return builder(clock, scale, media_bytes, cache_bytes=cache_bytes, **kwargs)
    if cache_bytes is None:
        raise ConfigError(f"{name} requires an explicit cache_bytes budget")
    if name == "File-Cache" and file_media_bytes is not None:
        media_bytes = file_media_bytes
    return builder(clock, scale, media_bytes, cache_bytes, **kwargs)


# Pristine (never-run) stacks keyed by their full construction shape.
_STACK_TEMPLATES: Dict[Tuple, SchemeStack] = {}


def clear_stack_cache() -> None:
    """Drop all cached stack templates (tests, memory-sensitive sweeps)."""
    _STACK_TEMPLATES.clear()


def build_scheme_cached(
    name: str,
    scale: SchemeScale,
    media_bytes: int,
    cache_bytes: Optional[int] = None,
    file_media_bytes: Optional[int] = None,
    **kwargs,
) -> SchemeStack:
    """:func:`build_scheme`, amortizing construction across sweep cells.

    A pristine template per distinct construction shape is built once
    and deep-copied per request, so a sweep that rebuilds the same
    cluster for every cell pays construction-time simulation once.  The
    win is concentrated where construction itself simulates I/O —
    File-Cache's ``mkfs`` journal writes; for the other schemes cloning
    is roughly break-even with a fresh build, so callers with one-off
    stacks should keep calling :func:`build_scheme`.

    Clones are fully independent — each carries its own clock, device,
    and state, positioned exactly where a fresh build would leave them —
    and never alias the template, which is built once and never run.
    Unhashable overrides (config objects, fault injectors) fall back to
    an uncached fresh build.
    """
    try:
        key = (
            name,
            scale,
            media_bytes,
            cache_bytes,
            file_media_bytes,
            tuple(sorted(kwargs.items())),
        )
        template = _STACK_TEMPLATES.get(key)
    except TypeError:
        return build_scheme(
            name,
            SimClock(),
            scale,
            media_bytes,
            cache_bytes,
            file_media_bytes=file_media_bytes,
            **kwargs,
        )
    if template is None:
        template = build_scheme(
            name,
            SimClock(),
            scale,
            media_bytes,
            cache_bytes,
            file_media_bytes=file_media_bytes,
            **kwargs,
        )
        _STACK_TEMPLATES[key] = template
    return copy.deepcopy(template)
