#!/usr/bin/env python3
"""Compare the paper's four schemes under a CacheBench-style mix.

A miniature of Figure 2: same hardware budget for everyone, the
50/30/20 get/set/delete mix, and a report of throughput, hit ratio and
write amplification per scheme.

Run:  python examples/compare_schemes.py
"""

from repro.bench.reporting import format_table
from repro.bench.schemes import (
    SchemeScale,
    build_block_cache,
    build_file_cache,
    build_region_cache,
    build_zone_cache,
)
from repro.sim import SimClock
from repro.workloads import CacheBenchConfig, CacheBenchDriver


def main() -> None:
    scale = SchemeScale()
    zones = 25
    media = zones * scale.zone_size
    cache_bytes = 20 * scale.zone_size
    # Working set slightly above the cache so eviction pressure is real
    # (with everything fitting, no scheme has anything to prove).
    workload = CacheBenchConfig(
        num_ops=20_000,
        num_keys=68_000,
        zipf_theta=1.0,
        warmup_ops=70_000,
        set_on_miss=True,
    )

    builders = {
        "Region-Cache": lambda c: build_region_cache(c, scale, media, cache_bytes),
        "Zone-Cache": lambda c: build_zone_cache(c, scale, media),
        "File-Cache": lambda c: build_file_cache(c, scale, 38 * scale.zone_size, cache_bytes),
        "Block-Cache": lambda c: build_block_cache(c, scale, media, cache_bytes),
    }

    rows = []
    for name, builder in builders.items():
        print(f"running {name} ...")
        stack = builder(SimClock())
        driver = CacheBenchDriver(workload)
        driver.populate(stack.cache)
        result = driver.run(stack.cache)
        rows.append(
            {
                "scheme": name,
                "Mops/min": round(result.ops_per_minute_m, 3),
                "hit_ratio": round(result.hit_ratio, 4),
                "WAF(app)": round(result.waf_app, 3),
                "WAF(dev)": round(result.waf_device, 3),
                "get_p99_us": round(result.get_p99_ns / 1000, 1),
            }
        )
    print()
    print(format_table(rows, title="CacheBench bc-mix, four schemes (mini Figure 2)"))
    print()
    print("Expected shape (paper §4.1): Zone-Cache has the best hit ratio")
    print("(largest cache, zero OP); Region-Cache and Block-Cache lead on")
    print("throughput; File-Cache trails on both.")


if __name__ == "__main__":
    main()
