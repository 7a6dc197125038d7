"""Provisioning for the six perf workloads, from public constructors only.

Nothing here imports ``repro.bench.experiments`` or a ``_private``
helper: the sweeps' ``run_*`` functions can be rewritten or deleted
without touching the benchmark.  The numbers mirror what those sweeps
provision (Figure 2 / Table 1 for the closed loops, the gc-qos /
failover / hint-sweep cells for serving, Figure 5 for the LSM run).

The reclaim watermarks of the serving fleets are pinned to the gc-qos /
invalidate sweeps' values.  With a default ``GcConfig`` a 4-shard
Z-Cache fleet at serving scale raises ``TranslationFullError`` after
~100k requests at 8 kops/s (see README "Known robustness bug").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.schemes import SchemeScale, SchemeStack, build_scheme
from repro.cache.lifecycle import LifecycleConfig
from repro.f2fs.gc import CleanerConfig
from repro.flash.ftl import FtlConfig
from repro.serve import (
    CacheCluster,
    FailoverPlan,
    InvalidationPlan,
    ReplicationConfig,
    Server,
    ServerConfig,
    ShardKill,
    ShardSpec,
    TenantConfig,
    TenantInvalidate,
)
from repro.sim.clock import SimClock
from repro.units import KIB, MIB
from repro.workloads.cachebench import CacheBenchConfig
from repro.workloads.dbbench import FIG5_SCALE, DbBenchConfig, DbBenchDriver
from repro.ztl.gc import GcConfig

WORKLOADS = (
    "closed_mix",
    "closed_fill",
    "serve_steady",
    "serve_failover",
    "serve_hints",
    "lsm_secondary",
)

ALL_SCHEMES = ("Region-Cache", "Zone-Cache", "File-Cache", "Block-Cache", "Z-Cache")
LSM_SCHEMES = ("Block-Cache", "File-Cache", "Zone-Cache", "Region-Cache")

# Mean cache entry of the CacheBench bc mix (values 0.5-4 KiB plus key
# and header); the figure the sweeps size their keyspaces with.
MEAN_ENTRY_BYTES = 1568

# Op counts per scale.  "full" is what BENCHMARK.json measures; "tiny"
# exists for test_perf.py.  Geometry, keyspace ratios and rates are the
# same in both except where a tiny run could not reach steady state.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "closed_mix": {
            "zones": 25, "zone_mib": 4, "warmup_ops": 35_000, "window_ops": 20_000,
        },
        "closed_fill": {
            "zones": 25, "zone_mib": 4, "warmup_ops": 60_000, "window_ops": 10_000,
        },
        "serve_steady": {"requests_per_tenant": 40_000},
        "serve_failover": {"requests_per_tenant": 15_000},
        "serve_hints": {"requests_per_tenant": 20_000},
        "lsm_secondary": {
            "num_keys": 80_000,
            "warmup_reads": 16_000,
            "window_reads": 5_000,
        },
    },
    "tiny": {
        "closed_mix": {
            "zones": 12, "zone_mib": 1, "warmup_ops": 2_000, "window_ops": 1_000,
        },
        "closed_fill": {
            "zones": 12, "zone_mib": 1, "warmup_ops": 3_000, "window_ops": 1_000,
        },
        "serve_steady": {"requests_per_tenant": 2_500},
        "serve_failover": {"requests_per_tenant": 1_500},
        "serve_hints": {"requests_per_tenant": 2_000},
        "lsm_secondary": {
            "num_keys": 4_000,
            "warmup_reads": 1_000,
            "window_reads": 400,
        },
    },
}


# --------------------------------------------------------------------------
# Closed-loop CacheBench workloads (closed_mix, closed_fill)
# --------------------------------------------------------------------------

# Flash regions are reclaimed FIFO with navy's clean-region pool, as the
# Figure 2 sweep provisions them; Zone-Cache reclaims one zone at a time.
NAVY = {"eviction_policy": "fifo", "reclaim_window": 128}


def closed_scale(sizes: Dict[str, int]) -> SchemeScale:
    """Default ``SchemeScale`` (4 MiB zones, 64 KiB regions) at full
    scale; the tiny scale shrinks the zones, not their number."""
    return SchemeScale(zone_size=sizes["zone_mib"] * MIB)


def closed_cache_bytes(sizes: Dict[str, int]) -> int:
    """The schemes that need OP cache 80% of the zones (Figure 2)."""
    return (sizes["zones"] * 4 // 5) * closed_scale(sizes).zone_size


def closed_stack(scheme: str, sizes: Dict[str, int]) -> SchemeStack:
    """Figure 2 provisioning: Zone-Cache caches the whole device, the
    others 80% of it, File-Cache's F2FS gets 1.52x the zones."""
    scale = closed_scale(sizes)
    media = sizes["zones"] * scale.zone_size
    if scheme == "Zone-Cache":
        kwargs: Dict[str, object] = dict(eviction_policy="fifo")
    else:
        kwargs = dict(cache_bytes=closed_cache_bytes(sizes), **NAVY)
    if scheme == "File-Cache":
        kwargs["file_media_bytes"] = (sizes["zones"] * 38 // 25) * scale.zone_size
    return build_scheme(scheme, SimClock(), scale, media, **kwargs)


def closed_mix_config(sizes: Dict[str, int], seed: int) -> CacheBenchConfig:
    """CacheBench ``bc`` mix: 50/30/20, Zipf 1.0, set-on-miss, 0.5-4 KiB."""
    media = sizes["zones"] * closed_scale(sizes).zone_size
    return CacheBenchConfig(
        num_keys=int(1.05 * media / MEAN_ENTRY_BYTES),
        zipf_theta=1.0,
        set_on_miss=True,
        seed=seed,
    )


def closed_fill_config(sizes: Dict[str, int], seed: int) -> CacheBenchConfig:
    """Insert-heavy: 10/85/5, Zipf 0.6, values 1-8 KiB, keyspace 3x cache."""
    value_sizes = (1024, 2048, 4096, 8192)
    weights = (2.0, 4.0, 3.0, 1.0)
    mean_value = sum(s * w for s, w in zip(value_sizes, weights)) / sum(weights)
    return CacheBenchConfig(
        num_keys=int(3 * closed_cache_bytes(sizes) / mean_value),
        get_ratio=0.10,
        set_ratio=0.85,
        delete_ratio=0.05,
        zipf_theta=0.6,
        value_sizes=value_sizes,
        value_weights=weights,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Serving workloads (serve_steady, serve_failover, serve_hints)
# --------------------------------------------------------------------------

SERVING_SCALE = SchemeScale(
    zone_size=256 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,
    ram_bytes=32 * KIB,
)
ZONES_PER_SHARD = 10
CACHE_ZONES_PER_SHARD = 6
FILE_ZONES_PER_SHARD = 16
MAX_QUEUE_DEPTH = 128


def reclaim_overrides(scheme: str, dead_first: bool = False) -> Tuple[Tuple[str, object], ...]:
    """The pinned reclaim watermarks (ZTL 4/2/1, F2FS low_watermark 4,
    FTL op 0.20 with gc 4/8/2).  ``dead_first`` is the invalidate
    sweep's variant for the ZTL schemes: zero-valid zones first and the
    paper's deferring 0.20 valid-data threshold."""
    if scheme in ("Region-Cache", "Z-Cache"):
        gc = GcConfig(
            min_empty_zones=4,
            urgent_empty_zones=2,
            emergency_empty_zones=1,
            victim_valid_threshold=0.20 if dead_first else 0.90,
            pace_regions=8,
            policy="cold_defer" if scheme == "Z-Cache" else "greedy",
            dead_first=dead_first,
        )
        return (("gc", gc),)
    if scheme == "File-Cache":
        cleaner = CleanerConfig(
            low_watermark=4,
            urgent_sections=2,
            emergency_sections=1,
            pace_blocks=16,
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


def shard_spec(
    scheme: str,
    lifecycle: Optional[LifecycleConfig] = None,
    block_fills_lba: bool = False,
) -> ShardSpec:
    zone = SERVING_SCALE.zone_size
    media = ZONES_PER_SHARD * zone
    overrides: Dict[str, object] = (
        {"eviction_policy": "fifo"} if scheme == "Zone-Cache" else dict(NAVY)
    )
    if lifecycle is not None:
        overrides["lifecycle"] = lifecycle
    if scheme == "Zone-Cache":
        cache_bytes = None
    elif scheme == "Block-Cache" and block_fills_lba:
        cache_bytes = media
    else:
        cache_bytes = CACHE_ZONES_PER_SHARD * zone
    return ShardSpec(
        scheme,
        media_bytes=media,
        cache_bytes=cache_bytes,
        file_media_bytes=FILE_ZONES_PER_SHARD * zone if scheme == "File-Cache" else None,
        cache_overrides=tuple(sorted(overrides.items()))
        + reclaim_overrides(scheme, dead_first=lifecycle is not None),
    )


def fleet_keys(num_shards: int) -> int:
    """Working set just above the fleet's media, as every sweep sizes it."""
    media = ZONES_PER_SHARD * SERVING_SCALE.zone_size
    return int(1.05 * num_shards * media / MEAN_ENTRY_BYTES)


def horizon_ns(requests_per_tenant: int, total_rate: float) -> int:
    """Open-loop duration estimate: the web tenant offers its budget at
    70% of the total rate; kills and bumps are placed as fractions."""
    return int(requests_per_tenant / (0.7 * total_rate) * 1e9)


def steady_tenants(
    total_rate: float, requests_per_tenant: int, num_keys: int, seed: int,
    web_arrival: str = "poisson",
) -> List[TenantConfig]:
    """70% interactive web tenant + 30% batch tenant in 4x bursts.  No
    token bucket: every request reaches a shard queue."""
    return [
        TenantConfig(
            "web",
            rate_ops_per_sec=0.7 * total_rate,
            arrival=web_arrival,
            workload=CacheBenchConfig(
                num_ops=requests_per_tenant,
                num_keys=num_keys,
                zipf_theta=1.0,
                set_on_miss=True,
                seed=seed,
            ),
            slo_p99_ms=2.0,
            seed=seed + 100,
        ),
        TenantConfig(
            "batch",
            rate_ops_per_sec=0.3 * total_rate,
            arrival="burst",
            burst_factor=4.0,
            workload=CacheBenchConfig(
                num_ops=requests_per_tenant,
                num_keys=max(1, num_keys // 2),
                get_ratio=0.30,
                set_ratio=0.60,
                delete_ratio=0.10,
                seed=seed + 1,
            ),
            slo_p99_ms=10.0,
            seed=seed + 200,
        ),
    ]


def storm_tenants(
    total_rate: float, requests_per_tenant: int, num_keys: int, seed: int,
    bump_at_s: float, storm_at_s: float, storm_duration_s: float,
) -> List[TenantConfig]:
    """Versioned web tenant whose bump starts a flash crowd of refills,
    and a versioned purge tenant tearing its keyspace down in a storm."""
    return [
        TenantConfig(
            "web",
            rate_ops_per_sec=0.7 * total_rate,
            arrival="flash_crowd",
            flash_crowd_factor=3.0,
            flash_crowd_at_s=bump_at_s,
            flash_crowd_decay_s=max(storm_duration_s, 0.001),
            versioned_keys=True,
            workload=CacheBenchConfig(
                num_ops=requests_per_tenant,
                num_keys=num_keys,
                zipf_theta=1.0,
                set_on_miss=True,
                seed=seed,
            ),
            slo_p99_ms=2.0,
            seed=seed + 100,
        ),
        TenantConfig(
            "purge",
            rate_ops_per_sec=0.3 * total_rate,
            arrival="storm",
            storm_factor=4.0,
            storm_at_s=storm_at_s,
            storm_duration_s=max(storm_duration_s, 0.001),
            versioned_keys=True,
            workload=CacheBenchConfig(
                num_ops=requests_per_tenant,
                num_keys=max(1, num_keys // 2),
                get_ratio=0.20,
                set_ratio=0.40,
                delete_ratio=0.40,
                seed=seed + 1,
            ),
            slo_p99_ms=10.0,
            seed=seed + 200,
        ),
    ]


STEADY_RATE = 4_000.0
FAILOVER_RATE = 6_000.0
HINTS_RATE = 6_000.0
FAILOVER_SCHEMES = ("Region-Cache", "Z-Cache") * 3
HINTS_SCHEMES = ("Block-Cache", "File-Cache", "Region-Cache", "Z-Cache")
HINTS_LIFECYCLE = LifecycleConfig(
    versioning=True, dead_first_eviction=True, gc_hints=True, hint_layers="all"
)


def serve_steady(requests_per_tenant: int, seed: int) -> Server:
    """Five-shard mixed fleet, one shard per scheme, below every knee:
    R=1, no plans, tracer off, so ``Server.run`` takes its fast loop."""
    cluster = CacheCluster(
        [shard_spec(scheme) for scheme in ALL_SCHEMES], scale=SERVING_SCALE
    )
    tenants = steady_tenants(
        STEADY_RATE, requests_per_tenant, fleet_keys(len(ALL_SCHEMES)), seed
    )
    return Server(cluster, tenants, ServerConfig(max_queue_depth=MAX_QUEUE_DEPTH))


def serve_failover(requests_per_tenant: int, seed: int) -> Server:
    """Six shards alternating Region-/Z-Cache at R=2; shard 0 is power-cut
    at 35% of the horizon for 25% of it (the replicated loop)."""
    cluster = CacheCluster(
        [shard_spec(scheme) for scheme in FAILOVER_SCHEMES],
        scale=SERVING_SCALE,
        replication=ReplicationConfig(replicas=2, hint_limit=8192),
    )
    tenants = steady_tenants(
        FAILOVER_RATE,
        requests_per_tenant,
        fleet_keys(len(FAILOVER_SCHEMES)),
        seed,
        web_arrival="diurnal",
    )
    duration = horizon_ns(requests_per_tenant, FAILOVER_RATE)
    plan = FailoverPlan((ShardKill(int(0.35 * duration), 0, int(0.25 * duration)),))
    return Server(
        cluster,
        tenants,
        ServerConfig(max_queue_depth=MAX_QUEUE_DEPTH),
        failover=plan,
    )


def serve_hints(requests_per_tenant: int, seed: int) -> Server:
    """The hint sweep's ``full`` cell on a mixed four-scheme fleet: the
    whole lifecycle layer armed, web bumped at 35% and purge at 55% of
    the horizon (an armed plan takes the legacy loop)."""
    cluster = CacheCluster(
        [
            shard_spec(
                scheme,
                lifecycle=HINTS_LIFECYCLE,
                block_fills_lba=True,
            )
            for scheme in HINTS_SCHEMES
        ],
        scale=SERVING_SCALE,
    )
    duration = horizon_ns(requests_per_tenant, HINTS_RATE)
    bump_at, purge_at = int(0.35 * duration), int(0.55 * duration)
    tenants = storm_tenants(
        HINTS_RATE,
        requests_per_tenant,
        fleet_keys(len(HINTS_SCHEMES)),
        seed,
        bump_at_s=bump_at / 1e9,
        storm_at_s=purge_at / 1e9,
        storm_duration_s=0.10 * duration / 1e9,
    )
    plan = InvalidationPlan(
        (TenantInvalidate(bump_at, "web"), TenantInvalidate(purge_at, "purge"))
    )
    return Server(
        cluster,
        tenants,
        ServerConfig(max_queue_depth=MAX_QUEUE_DEPTH),
        invalidations=plan,
    )


SERVE_BUILDERS = {
    "serve_steady": serve_steady,
    "serve_failover": serve_failover,
    "serve_hints": serve_hints,
}


# --------------------------------------------------------------------------
# db_bench on the LSM with each scheme as secondary cache (lsm_secondary)
# --------------------------------------------------------------------------

LSM_EXP_RANGE = 25.0


def lsm_driver(scheme: str, num_keys: int, seed: int) -> DbBenchDriver:
    """Figure 5 provisioning: FIG5_SCALE, 4.5-zone cache, LSM on the HDD.
    The caller runs ``setup()`` (fillrandom) and drives the reads."""
    config = DbBenchConfig(
        num_keys=num_keys,
        exp_range=LSM_EXP_RANGE,
        cache_zones=4.5,
        scheme=scheme,
        seed=seed,
    )
    return DbBenchDriver(config, FIG5_SCALE)

