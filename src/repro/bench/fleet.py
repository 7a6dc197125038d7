"""One fleet cell, built, run and turned into a row — once.

Every serving sweep in :mod:`repro.bench.experiments` is the paper's §4
comparison with one more axis: the same open-loop tenants against a
sharded fleet of each scheme, each shard provisioned by its scheme's own
OP rule.  This module is the part they share: a frozen :class:`FleetCell`,
:func:`build_fleet` (cell → un-run ``Server``, through the public
``ShardSpec`` / ``CacheCluster`` / ``Server`` constructors),
:func:`run_fleet_cell`, and :func:`fleet_row`, which projects every
column family a finished run can report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.bench.schemes import SchemeScale, SchemeStack, provision
from repro.errors import ConfigError
from repro.f2fs.gc import CleanerConfig
from repro.flash.ftl import FtlConfig
from repro.serve import (
    CacheCluster,
    FailoverPlan,
    InvalidationPlan,
    ReplicationConfig,
    RoutingConfig,
    Server,
    ServerConfig,
    ServingReport,
    ShardKill,
    ShardSpec,
    TenantConfig,
    TenantInvalidate,
)
from repro.units import KIB
from repro.workloads.cachebench import MEAN_ENTRY_BYTES, CacheBenchConfig
from repro.ztl.gc import GcConfig

Row = Dict[str, object]

# Reduced hardware for serving runs: small zones/regions so a few
# thousand requests reach eviction/GC steady state on every scheme
# (at full scale Zone-Cache's 4 MiB region buffer would absorb the
# whole run in RAM and never touch the device).
SERVING_SCALE = SchemeScale(
    zone_size=256 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,
    ram_bytes=32 * KIB,
)

# Every tenant mix splits the offered load 70/30 between the
# interactive tenant and the second (batch / purge) tenant.
WEB_SHARE, OTHER_SHARE = 0.7, 0.3
# The storm tenants' flash crowd / delete storm, as a horizon fraction.
STORM_DURATION_FRAC = 0.10
# Bounded hint journal per shard (entries).
HINT_LIMIT = 8192
# AIMD reclaim pacing's stall budget: half the interactive tenant's 2 ms
# p99 SLO (device-side stall is only part of the end-to-end path).
ADAPTIVE_STALL_SLO_NS = 1_000_000

RECLAIM_PRESETS = ("default", "qos", "storm")
TENANT_MIXES = ("steady", "diurnal", "storm")
PACING_MODES = ("static", "adaptive")


@dataclass(frozen=True)
class FleetCell:
    """One cell of a serving sweep: the fleet, its tenants and its script.

    ``shards`` names a scheme per shard, so mixed fleets are the general
    case and a homogeneous fleet is ``(name,) * n``; each shard gets
    ``zones`` zones of :data:`SERVING_SCALE` hardware and caches what its
    scheme's OP rule allows (:func:`shard_spec`).  ``reclaim`` names the
    per-layer reclaim configs (:func:`reclaim_overrides`),
    ``cache_overrides`` adds ``build_scheme`` keywords on every shard
    (lifecycle, zone costs, an ablation's own reclaim config),
    ``tenants`` names the two-tenant mix (:func:`tenant_mix`).  ``kill``
    = (kill-at, outage) power-cuts shard 0 and ``bumps`` = (web, purge)
    bumps the two storm tenants' namespaces, all as fractions of
    :func:`horizon_ns`.  ``trace`` captures every shard's record stream
    (the ``reclaim_*`` columns); ``count_drop_spans`` streams it through
    a drop-span counter instead (``gc_hint_drop_spans``).
    """

    shards: Tuple[str, ...]
    zones: int = 10
    cache_zones: int = 8
    file_zones: int = 16
    block_fills_lba: bool = False
    reclaim: str = "default"
    cache_overrides: Tuple[Tuple[str, object], ...] = ()
    routing: str = "static"
    replicas: int = 1
    pacing: str = "static"
    tenants: str = "steady"
    offered_kops: float = 12.0
    requests_per_tenant: int = 8_000
    num_keys: Optional[int] = None
    max_queue_depth: int = 48
    kill: Optional[Tuple[float, float]] = None
    bumps: Optional[Tuple[float, float]] = None
    trace: bool = False
    count_drop_spans: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.shards:
            raise ConfigError("a fleet cell needs at least one shard")
        for value, allowed in (
            (self.reclaim, RECLAIM_PRESETS),
            (self.tenants, TENANT_MIXES),
            (self.pacing, PACING_MODES),
        ):
            if value not in allowed:
                raise ConfigError(f"{value!r} is not one of {allowed}")
        if (self.bumps is not None) != (self.tenants == "storm"):
            raise ConfigError(
                "namespace bumps and the storm tenant mix go together: the "
                "storm tenants are the versioned ones a bump can target"
            )


def horizon_ns(cell: FleetCell) -> int:
    """Open-loop duration estimate: the web tenant (70% of load) offers
    ``requests_per_tenant`` ops at 0.7*rate; kills, outages and bumps
    are placed as fractions of that horizon so the storm always lands
    mid-run regardless of the load point."""
    return int(
        cell.requests_per_tenant / (WEB_SHARE * cell.offered_kops * 1000) * 1e9
    )


def placed_ns(cell: FleetCell, fractions: Tuple[float, float]) -> Tuple[int, int]:
    """``cell.kill`` or ``cell.bumps`` as nanoseconds on the horizon."""
    horizon = horizon_ns(cell)
    first, second = fractions
    return int(first * horizon), int(second * horizon)


# --------------------------------------------------------------------------
# Provisioning — one shard of one scheme
# --------------------------------------------------------------------------

def reclaim_overrides(preset: str, scheme: str) -> tuple:
    """``cache_overrides`` entries carrying a preset's reclaim configs.

    ``"default"`` leaves every layer on its builder default.  ``"qos"``
    wires the ``urgent`` pressure band: GC-aware routing reroutes at the
    urgent band and adaptive pacing relaxes/clamps around it, so every
    scheme that reclaims gets an urgent watermark one container above
    its emergency floor.  ``"storm"`` is the invalidation sweeps'
    variant: the ZTL schemes get dead-first victim selection and keep
    the paper's deferring 0.20 valid-data threshold — a namespace bump
    turns whole zones dead at once, dead-first takes them as zero-valid
    victims instantly, and zones still holding live survivors are left
    to keep decaying instead of being copied.  The FTL and the F2FS
    cleaner have no lifecycle integration (they keep the ``"qos"``
    configs) — that asymmetry is the measurement: Block-/File-Cache copy
    dead-generation bytes their layers cannot see through.  Zone-Cache
    has no reclamation and gets nothing — its pressure is always idle,
    which is itself the paper's point.
    """
    if preset == "default":
        return ()
    storm = preset == "storm"
    if scheme in ("Region-Cache", "Z-Cache"):
        # The background band (urgent < free < min_empty) must be wide
        # enough that paced steps actually run there; with background and
        # urgent adjacent every GC step lands in the unbounded urgent
        # regime and pace_units never binds.  Z-Cache gets the same
        # watermarks as Region-Cache so the comparison isolates the
        # hot/cold separation, but victims are scored cold-first: finish
        # (and decay) cold zones instead of copying hot ones.
        gc = GcConfig(
            min_empty_zones=3 if storm else 4,
            urgent_empty_zones=2,
            emergency_empty_zones=1,
            victim_valid_threshold=0.20 if storm else 0.90,
            pace_regions=8,
            policy="cold_defer" if scheme == "Z-Cache" else "greedy",
            dead_first=storm,
        )
        return (("gc", gc),)
    if scheme == "File-Cache":
        cleaner = CleanerConfig(
            low_watermark=4,
            urgent_sections=2,
            emergency_sections=1,
            pace_blocks=16,
            policy="cost_benefit",
            victim_valid_threshold=0.90,
        )
        return (("cleaner", cleaner),)
    if scheme == "Block-Cache":
        ftl = FtlConfig(
            op_ratio=0.20,
            gc_low_watermark=4,
            gc_high_watermark=8,
            gc_urgent_watermark=2,
        )
        return (("ftl", ftl),)
    return ()


def shard_spec(cell: FleetCell, scheme: str) -> ShardSpec:
    """Provision one shard of ``scheme`` for ``cell``: the scheme's OP
    rule (:func:`~repro.bench.schemes.provision`), then the cell's extra
    overrides, then its reclaim preset."""
    kwargs = provision(
        scheme, SERVING_SCALE, cell.zones, cell.cache_zones, cell.file_zones,
        cell.block_fills_lba,
    )
    media = kwargs.pop("media_bytes")
    cache_bytes = kwargs.pop("cache_bytes")
    file_media = kwargs.pop("file_media_bytes", None)
    kwargs.update(cell.cache_overrides)
    return ShardSpec(
        scheme,
        media_bytes=media,
        cache_bytes=cache_bytes,
        file_media_bytes=file_media,
        cache_overrides=tuple(sorted(kwargs.items()))
        + reclaim_overrides(cell.reclaim, scheme),
    )


def tenant_mix(cell: FleetCell) -> List[TenantConfig]:
    """The cell's two tenants, splitting the offered load 70/30.

    ``"steady"``: a steady interactive tenant and a bursty batch tenant.
    The batch tenant carries a token bucket at 1.5x its mean rate, so
    its 4x bursts are clipped by rate limiting *before* they reach the
    shard queues — per-tenant QoS isolating the interactive tenant.
    ``"diurnal"`` switches the interactive tenant's arrival process (the
    failover sweep kills shards mid-*diurnal* load).  ``"storm"``: a
    versioned interactive tenant whose bump triggers a flash crowd of
    refill traffic, and a versioned purge tenant that tears its keyspace
    down in a delete storm that starts at its own bump.
    """
    num_keys = cell.num_keys
    if num_keys is None:
        # Working set just above the fleet's capacity, as Fig 2 does.
        media = cell.zones * SERVING_SCALE.zone_size
        num_keys = int(1.05 * len(cell.shards) * media / MEAN_ENTRY_BYTES)
    total_rate = cell.offered_kops * 1000
    other_rate = OTHER_SHARE * total_rate
    if cell.tenants == "storm":
        bump_ns, purge_ns = placed_ns(cell, cell.bumps)
        storm_s = max(STORM_DURATION_FRAC * horizon_ns(cell) / 1e9, 0.001)
        web_shape: Dict[str, object] = dict(
            arrival="flash_crowd", flash_crowd_factor=3.0, flash_crowd_at_s=bump_ns / 1e9,
            flash_crowd_decay_s=storm_s, versioned_keys=True,
        )
        other_name, (gets, sets, deletes) = "purge", (0.20, 0.40, 0.40)
        other_shape: Dict[str, object] = dict(
            arrival="storm", storm_factor=4.0, storm_at_s=purge_ns / 1e9,
            storm_duration_s=storm_s, versioned_keys=True,
        )
    else:
        web_shape = dict(arrival="diurnal" if cell.tenants == "diurnal" else "poisson")
        other_name, (gets, sets, deletes) = "batch", (0.30, 0.60, 0.10)
        other_shape = dict(
            arrival="burst", burst_factor=4.0,
            rate_limit_ops_per_sec=1.5 * other_rate, rate_limit_burst=32.0,
        )
    return [
        TenantConfig(
            "web",
            rate_ops_per_sec=WEB_SHARE * total_rate,
            workload=CacheBenchConfig(
                num_ops=cell.requests_per_tenant, num_keys=num_keys,
                zipf_theta=1.0, set_on_miss=True, seed=cell.seed,
            ),
            slo_p99_ms=2.0,
            seed=cell.seed + 100,
            **web_shape,
        ),
        TenantConfig(
            other_name,
            rate_ops_per_sec=other_rate,
            workload=CacheBenchConfig(
                num_ops=cell.requests_per_tenant, num_keys=max(1, num_keys // 2),
                get_ratio=gets, set_ratio=sets, delete_ratio=deletes,
                seed=cell.seed + 1,
            ),
            slo_p99_ms=10.0,
            seed=cell.seed + 200,
            **other_shape,
        ),
    ]


# --------------------------------------------------------------------------
# Build, run, collect
# --------------------------------------------------------------------------

def build_fleet(cell: FleetCell) -> Server:
    """Turn a cell into an un-run :class:`~repro.serve.Server` — the one
    place a sweep fleet is provisioned.  ``Server.run()`` is single-shot,
    so every cell (and every test that wants a cell's fleet) builds its
    own."""
    cluster = CacheCluster(
        [shard_spec(cell, scheme) for scheme in cell.shards],
        scale=SERVING_SCALE,
        routing=RoutingConfig(policy=cell.routing),
        replication=ReplicationConfig(replicas=cell.replicas, hint_limit=HINT_LIMIT),
    )
    for shard in cluster.shards:
        if cell.pacing == "adaptive":
            shard.stack.enable_adaptive_pacing(ADAPTIVE_STALL_SLO_NS)
        if cell.trace:
            shard.stack.cache.store.tracer.enable()
    failover = invalidations = None
    if cell.kill is not None:
        kill_at, outage = placed_ns(cell, cell.kill)
        failover = FailoverPlan((ShardKill(kill_at, 0, outage),))
    if cell.bumps is not None:
        web_at, purge_at = placed_ns(cell, cell.bumps)
        invalidations = InvalidationPlan(
            (TenantInvalidate(web_at, "web"), TenantInvalidate(purge_at, "purge"))
        )
    return Server(
        cluster,
        tenant_mix(cell),
        ServerConfig(max_queue_depth=cell.max_queue_depth),
        failover=failover,
        invalidations=invalidations,
    )


class FleetRun(NamedTuple):
    """A finished cell: what :func:`fleet_row` reads its columns from."""

    cell: FleetCell
    cluster: CacheCluster
    report: ServingReport
    drop_spans: int


def run_fleet_cell(cell: FleetCell) -> FleetRun:
    """Build the cell's fleet and run it; the report comes back with the
    cluster it ran on."""
    server = build_fleet(cell)
    drop_spans = [0]
    if cell.count_drop_spans:
        # Per-layer drop-span counter: subscribing streams records
        # through the callback without capturing them, so the
        # reconciliation costs no memory.

        def count_drop(record) -> None:
            if record.op == "drop" and record.layer.startswith("reclaim."):
                drop_spans[0] += 1

        for shard in server.cluster.shards:
            engine = shard.stack.reclaim_engine()[1]
            if engine is None:
                continue
            # Unconditional: the FTL's engine is born on the shared
            # NULL_TRACER, the ZTL/F2FS engines already point here —
            # either way the drop spans must join the device stream the
            # counter subscribes to.
            engine.tracer = shard.stack.cache.store.tracer
            engine.tracer.subscribe(count_drop)
    report = server.run()
    return FleetRun(cell, server.cluster, report, drop_spans[0])


def zone_mgmt_columns(devices) -> Row:
    """Zone-management service-time columns — the ``zns_*`` family.

    Summed over every device that exposes a
    :class:`~repro.flash.zone.ZoneMgmtStats` (conventional SSDs have no
    zones and contribute zeros), so the same helper serves single-stack
    rows and fleet rows.  The ``*_us`` columns are the service time the
    zone commands were charged through the I/O pipeline, which is why
    they reconcile exactly with the tracer's OPEN/CLOSE/FINISH/RESET
    span attribution (asserted in ``tests/test_zone_lifecycle.py``).
    """
    stats = [getattr(device, "zone_mgmt", None) for device in devices]
    stats = [mgmt for mgmt in stats if mgmt is not None]
    return {
        "zns_open_us": sum(mgmt.open_ns for mgmt in stats) / 1000,
        "zns_close_us": sum(mgmt.close_ns for mgmt in stats) / 1000,
        "zns_finish_us": sum(mgmt.finish_ns for mgmt in stats) / 1000,
        "zns_reset_us": sum(mgmt.reset_ns for mgmt in stats) / 1000,
        "zns_forced_close": sum(mgmt.forced_closes for mgmt in stats),
    }


def gc_columns(stack: SchemeStack) -> Row:
    """Uniform reclamation columns — the ``gc_*`` family (EXPERIMENTS.md).

    Read off the scheme's :class:`~repro.reclaim.ReclaimEngine` whichever
    layer owns it, plus the cache's own region-eviction stats.  Always
    present so mixed-scheme tables stay rectangular; Zone-Cache has no
    device-side reclamation — the paper's premise — so its engine
    columns are zeros.
    """
    layer_name, engine = stack.reclaim_engine()
    stats = engine.stats if engine is not None else None
    pacer = engine.pacer if engine is not None else None
    cache_stats = stack.cache.regions.reclaim_stats
    return {
        "gc_layer": layer_name,
        "gc_policy": engine.policy.name if engine is not None else "none",
        "gc_victims": stats.victims_reclaimed if stats is not None else 0,
        "gc_migrated_units": stats.units_migrated if stats is not None else 0,
        "gc_dropped_units": stats.units_dropped if stats is not None else 0,
        "gc_hint_dropped_units": (
            stats.hint_dropped_units if stats is not None else 0
        ),
        "gc_copied_bytes": stats.copied_bytes if stats is not None else 0,
        "gc_triggers": stats.triggers if stats is not None else 0,
        "gc_stall_us_p99": stats.stall_us_p99 if stats is not None else 0.0,
        "gc_cache_evictions": cache_stats.victims_reclaimed,
        "gc_cache_dropped_keys": cache_stats.units_dropped,
        # Adaptive-pacing telemetry (zeros when static).
        "gc_pace_adjustments": pacer.pace_adjustments if pacer is not None else 0,
        "gc_pace_clamps": pacer.pace_clamps if pacer is not None else 0,
        "gc_pace_units_end": pacer.pace_units if pacer is not None else 0,
    }


def _first_reclaiming(values):
    return next((value for value in values if value != "none"), "none")


# How a gc_* column folds across a fleet's shards: counters sum (the
# default), the two level-like columns take the worst shard, and the two
# names take the first shard that reclaims at all.
GC_FOLD = {
    "gc_layer": _first_reclaiming,
    "gc_policy": _first_reclaiming,
    "gc_stall_us_p99": max,
    "gc_pace_units_end": max,
}


def traced_reclaim(tracer) -> Dict[str, int]:
    """Count reclaim spans and the device bytes they attribute.

    ``reclaim_traced_bytes`` sums device-level transfer records whose
    ancestry passes through a ``reclaim.*`` span — the check that every
    migrated byte is tracer-attributed to the GC engine that moved it.
    """
    by_id = {record.record_id: record for record in tracer.records}
    spans = 0
    traced = 0
    for record in tracer.records:
        if record.layer.startswith("reclaim."):
            spans += 1
            continue
        if record.op not in ("write", "append", "gc"):
            continue
        cursor = record
        while cursor is not None:
            if cursor.layer.startswith("reclaim."):
                traced += record.length
                break
            cursor = by_id.get(cursor.parent_id)  # None at a root span
    return {"reclaim_spans": spans, "reclaim_traced_bytes": traced}


def fleet_row(run: FleetRun) -> Row:
    """Every column a finished cell can report, in one flat row.

    The cell's coordinates; each tenant's QoS columns prefixed with the
    tenant's name; the ``cluster_*`` / ``waf_*_max`` / ``rerouted_writes``
    aggregates; ``gc_*`` folded over the shards by :data:`GC_FOLD`;
    ``zns_*`` summed over their devices; ``fleet_*`` when replication or
    a kill was armed; ``inval_*`` / ``tenant_*`` when bumps ran; and the
    traced reconciliation columns.  A sweep's column tuple selects and
    orders what its table prints.
    """
    cell, cluster, report, drop_spans = run
    shard_rows = report.shard_rows
    row: Row = {
        "num_shards": len(cell.shards),
        "offered_total_kops": cell.offered_kops,
        "pacing": cell.pacing,
        "routing": cell.routing,
        "replicas": cell.replicas,
    }
    if cell.kill is not None:
        kill_at, outage = placed_ns(cell, cell.kill)
        row.update(kill_at_ms=kill_at / 1e6, outage_ms=outage / 1e6)
    if cell.bumps is not None:
        web_at, purge_at = placed_ns(cell, cell.bumps)
        row.update(bump_at_ms=web_at / 1e6, purge_bump_at_ms=purge_at / 1e6)
    for tenant_row in report.tenant_rows:
        name = tenant_row["tenant"]
        row.update(
            (f"{name}_{key}", value)
            for key, value in tenant_row.items()
            if key != "tenant"
        )
    row["cluster_shed_rate"] = report.shed_rate
    row["cluster_util_max"] = max(r["util"] for r in shard_rows)
    row["cluster_served"] = sum(r["served"] for r in shard_rows)
    row["waf_app_max"] = max(r["waf_app"] for r in shard_rows)
    row["waf_device_max"] = max(r["waf_device"] for r in shard_rows)
    row["rerouted_writes"] = sum(r["rerouted_out"] for r in shard_rows)
    stacks = [shard.stack for shard in cluster.shards]
    per_shard = [gc_columns(stack) for stack in stacks]
    for column in per_shard[0]:
        row[column] = GC_FOLD.get(column, sum)([cols[column] for cols in per_shard])
    row["gc_hint_drop_spans"] = drop_spans
    row.update(zone_mgmt_columns(stack.substrate.get("device") for stack in stacks))
    row.update((f"fleet_{key}", value) for key, value in (report.fleet_row or {}).items())
    row.update(report.inval_row or {})
    if cell.trace:
        traced = [traced_reclaim(stack.cache.store.tracer) for stack in stacks]
        for column in traced[0]:
            row[column] = sum(cols[column] for cols in traced)
    return row
