#!/usr/bin/env python3
"""Cache/zone-GC co-design via migration hints (§3.4).

The paper's closing argument: "during the zone GC, not all the valid
regions are needed to be migrated.  By using the cache or upper
application information or hints, the GC overhead can be effectively
minimized without explicitly sacrificing the cache hit ratio."

This example wires exactly that: the store binds a pair of
:class:`~repro.reclaim.GcHints` into the middle layer's GC, which asks
the cache whether a region is worth keeping; cold regions are *dropped*
instead of migrated, and the layer reports each drop so the cache purges
its index.  Compare WAF and hit ratio with and without hints.

Run:  python examples/gc_hints_codesign.py
"""

from repro.bench.schemes import SchemeScale, build_region_cache
from repro.reclaim import GcHints
from repro.sim import SimClock
from repro.workloads import CacheBenchConfig, CacheBenchDriver
from repro.ztl.gc import GcConfig


def run(use_hints: bool):
    clock = SimClock()
    scale = SchemeScale()
    media = 25 * scale.zone_size
    cache_bytes = 21 * scale.zone_size  # high utilization → GC pressure

    stack = build_region_cache(
        clock, scale, media, cache_bytes,
        gc=GcConfig(min_empty_zones=2, victim_valid_threshold=0.35),
    )
    cache = stack.cache
    engine = stack.substrate["layer"].reclaim

    if use_hints:
        # Co-design hook: drop regions the cache no longer indexes many
        # items for; the cache purges its index entries on drop.
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
            num_ops=25_000, num_keys=45_000, zipf_theta=1.0,
            warmup_ops=50_000, set_on_miss=True,
        )
    )
    driver.populate(cache)
    result = driver.run(cache)
    label = "hint-based GC " if use_hints else "migrate-all GC"
    print(
        f"{label}: WAF(app) {result.waf_app:.3f}   hit {result.hit_ratio:.4f}   "
        f"{result.ops_per_minute_m:.3f} Mops/min   "
        f"migrated {engine.stats.units_migrated}   dropped {engine.stats.units_dropped}"
    )


def main() -> None:
    print("Region-Cache at high utilization, with and without GC hints:\n")
    run(use_hints=False)
    run(use_hints=True)
    print()
    print("Hints trade a little hit ratio for less migration (lower WAF) —")
    print("the co-design the paper proposes as future work.")


if __name__ == "__main__":
    main()
