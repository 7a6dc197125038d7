"""Ablation — cache/zone-GC co-design via migration hints (§3.4).

The paper: "By using the cache or upper application information or
hints, the GC overhead can be effectively minimized without explicitly
sacrificing the cache hit ratio."  With hints the collector drops
regions the cache barely indexes instead of migrating them.
"""

from conftest import run_once

from repro.bench.reporting import format_table
from repro.bench.schemes import SchemeScale, build_region_cache
from repro.reclaim import GcHints
from repro.sim import SimClock
from repro.workloads import CacheBenchConfig, CacheBenchDriver
from repro.ztl.gc import GcConfig


def run_one(use_hints: bool):
    scale = SchemeScale()
    media = 25 * scale.zone_size
    cache_bytes = 21 * scale.zone_size
    stack = build_region_cache(
        SimClock(), scale, media, cache_bytes,
        gc=GcConfig(min_empty_zones=2, victim_valid_threshold=0.35),
    )
    cache = stack.cache
    engine = stack.substrate["layer"].reclaim
    if use_hints:
        def migration_hint(region_id: int) -> bool:
            # Co-design: regions already near cache eviction are not
            # worth migrating — they will be reclaimed moments later.
            position = cache.regions.eviction_position(region_id)
            return position is not None and position > 0.35

        def on_drop(region_id: int) -> None:
            meta = cache.regions.meta(region_id)
            if meta is not None:
                for key in list(meta.keys):
                    cache.index.pop(key, None)
                    meta.note_removed(key)

        stack.substrate["store"].bind_gc_hints(GcHints(migration_hint, on_drop))
    driver = CacheBenchDriver(
        CacheBenchConfig(
            num_ops=20_000, num_keys=45_000, zipf_theta=1.0,
            warmup_ops=45_000, set_on_miss=True,
        )
    )
    driver.populate(cache)
    result = driver.run(cache)
    return {
        "gc_mode": "hints (drop cold)" if use_hints else "migrate all",
        "waf_app": result.waf_app,
        "hit_ratio": result.hit_ratio,
        "throughput_mops_per_min": result.ops_per_minute_m,
        "migrated": engine.stats.units_migrated,
        "dropped": engine.stats.units_dropped,
    }


def sweep():
    return [run_one(False), run_one(True)]


def test_gc_hints_ablation(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, title="Ablation: GC with cache hints (§3.4 co-design)"))
    migrate_all, hints = rows
    # Hints reduce migration work (lower app WAF)...
    assert hints["waf_app"] <= migrate_all["waf_app"]
    # ...without collapsing the hit ratio (within a few points).
    assert hints["hit_ratio"] > migrate_all["hit_ratio"] - 0.05
    benchmark.extra_info["rows"] = rows
