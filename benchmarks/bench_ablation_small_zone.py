"""Ablation — Zone-Cache on small-zone ZNS SSDs (§3.2).

The paper: "If the ZNS SSD is produced with a small zone size (e.g., 16
or 64 MiB), Zone-Cache might be a good design to avoid the overhead of
large region size."  Same cache capacity, two zone sizes: the small-zone
device avoids the whole-zone eviction/contention penalty.
"""

from conftest import run_once

from repro.bench.reporting import format_table
from repro.bench.schemes import SchemeScale, build_zone_cache
from repro.sim import SimClock
from repro.units import KIB, MIB
from repro.workloads import MEAN_ENTRY_BYTES, CacheBenchConfig, CacheBenchDriver


def compare_zone_sizes():
    cache_bytes = 96 * MIB
    rows = []
    for label, zone_size in (("large (4 MiB)", 4 * MIB), ("small (512 KiB)", 512 * KIB)):
        # Same NAND (256 KiB erase blocks) for both devices; only the
        # zone size differs — the paper's small-zone ZNS SSD scenario.
        scale = SchemeScale(zone_size=zone_size, pages_per_block=64)
        stack = build_zone_cache(SimClock(), scale, cache_bytes)
        driver = CacheBenchDriver(
            CacheBenchConfig(
                num_ops=20_000,
                num_keys=int(1.05 * cache_bytes / MEAN_ENTRY_BYTES),
                zipf_theta=1.0,
                warmup_ops=int(1.2 * 1.05 * cache_bytes / MEAN_ENTRY_BYTES),
                set_on_miss=True,
            )
        )
        driver.populate(stack.cache)
        result = driver.run(stack.cache)
        rows.append(
            {
                "zone_size": label,
                "throughput_mops_per_min": result.ops_per_minute_m,
                "hit_ratio": result.hit_ratio,
                # Mean set latency exposes the amortized flush + eviction
                # teardown cost of zone-sized regions (their rare huge
                # stalls sit beyond P99 at this op count).
                "set_mean_us": stack.cache.stats.set_latency.mean() / 1000,
                "set_max_ms": stack.cache.stats.set_latency.max() / 1e6,
                "waf_total": result.waf_total,
            }
        )
    return rows


def test_small_zone_ablation(benchmark):
    rows = run_once(benchmark, compare_zone_sizes)
    print()
    print(format_table(rows, title="Ablation: Zone-Cache zone size"))
    large, small = rows
    # Small zones: better throughput (no huge-region contention), far
    # lower worst-case set stall; WA stays 1 either way.
    assert small["throughput_mops_per_min"] > large["throughput_mops_per_min"]
    assert small["set_max_ms"] < large["set_max_ms"]
    assert small["waf_total"] == 1.0 and large["waf_total"] == 1.0
    benchmark.extra_info["rows"] = rows
