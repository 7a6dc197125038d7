"""Figure 3 — time to fill the region in-memory buffer.

Paper result (§3.2): with a large (zone-sized) region, per-region
insertion time jumps sharply once region eviction begins (the shared-
index lock contention); with a small region the series stays flat.
"""

from conftest import run_once

from repro.bench.experiments import run_sweep


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def test_fig3_insertion_time(benchmark):
    rows = run_once(benchmark, run_sweep, "fig3")
    large = [r for r in rows if r["series"] == "large_region"]
    small = [r for r in rows if r["series"] == "small_region"]

    print()
    print(f"large regions: {len(large)} sealed; first/last fill times (us):")
    print("  head:", [round(p['fill_time_us'], 1) for p in large[:5]])
    print("  tail:", [round(p['fill_time_us'], 1) for p in large[-5:]])
    print(f"small regions: {len(small)} sealed")

    # The large-region series must show the eviction jump: fill times
    # after evictions begin exceed the pre-eviction fill times severalfold.
    num_regions_large = 25  # eviction begins once the region pool is used
    pre = [p["fill_time_us"] for p in large[: num_regions_large - 1]]
    post = [p["fill_time_us"] for p in large[num_regions_large + 1 :]]
    assert post, "workload did not reach eviction for large regions"
    assert _mean(post) > 2.5 * _mean(pre), (
        f"no eviction jump: pre={_mean(pre):.0f}us post={_mean(post):.0f}us"
    )

    # Small regions: same comparison shows no comparable jump.
    small_times = [p["fill_time_us"] for p in small]
    boundary = len(small_times) // 3
    small_pre = _mean(small_times[:boundary])
    small_post = _mean(small_times[boundary * 2 :])
    assert small_post < 2.5 * max(small_pre, 1e-9)

    benchmark.extra_info["large_mean_pre_us"] = _mean(pre)
    benchmark.extra_info["large_mean_post_us"] = _mean(post)
    benchmark.extra_info["small_mean_us"] = _mean(small_times)
