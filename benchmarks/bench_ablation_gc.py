"""Ablation — middle-layer GC thresholds (§3.3).

The paper: "the GC threshold and the zone selection threshold are
configurable ... Exploring the thresholds can be the future work."
This bench sweeps the victim valid-data threshold at high cache
utilization and reports the WAF/throughput trade-off.
"""

from conftest import run_once

from repro.bench.reporting import format_table
from repro.bench.schemes import SchemeScale, build_region_cache
from repro.sim import SimClock
from repro.workloads import CacheBenchConfig, CacheBenchDriver
from repro.ztl.gc import GcConfig


def sweep_thresholds(thresholds=(0.10, 0.30, 0.50)):
    scale = SchemeScale()
    media = 25 * scale.zone_size
    cache_bytes = 21 * scale.zone_size  # high utilization → GC pressure
    rows = []
    for threshold in thresholds:
        stack = build_region_cache(
            SimClock(), scale, media, cache_bytes,
            gc=GcConfig(min_empty_zones=2, victim_valid_threshold=threshold),
        )
        driver = CacheBenchDriver(
            CacheBenchConfig(
                num_ops=20_000, num_keys=45_000, zipf_theta=1.0,
                warmup_ops=45_000, set_on_miss=True,
            )
        )
        driver.populate(stack.cache)
        result = driver.run(stack.cache)
        engine = stack.substrate["layer"].reclaim
        rows.append(
            {
                "victim_threshold": threshold,
                "waf_app": result.waf_app,
                "throughput_mops_per_min": result.ops_per_minute_m,
                "hit_ratio": result.hit_ratio,
                "gc_victims": engine.stats.victims_reclaimed,
            }
        )
    return rows


def test_gc_threshold_ablation(benchmark):
    rows = run_once(benchmark, sweep_thresholds)
    print()
    print(format_table(rows, title="Ablation: ZTL victim valid-data threshold"))
    # WAF must stay in a sane band and respond to the threshold: a more
    # aggressive (higher) threshold collects earlier, at higher valid
    # fractions, so it cannot produce *less* migration than the laziest one.
    wafs = [r["waf_app"] for r in rows]
    assert all(1.0 <= w < 3.0 for w in wafs), wafs
    assert wafs[0] <= wafs[-1] * 1.10, wafs
    benchmark.extra_info["rows"] = rows
