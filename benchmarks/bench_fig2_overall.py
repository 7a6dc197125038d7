"""Figure 2 — overall throughput and hit ratio of the four schemes.

Paper result (§4.1): Zone-Cache reaches the best hit ratio (94.29% →
95.08% vs Block-Cache) thanks to its larger OP-free cache; Region-Cache
and Block-Cache lead on throughput; File-Cache trails both metrics.
"""

from conftest import by_scheme, run_once

from repro.bench.experiments import run_sweep
from repro.bench.reporting import format_table


def test_fig2_overall(benchmark):
    rows = run_once(benchmark, run_sweep, "fig2", num_ops=40_000)
    print()
    print(format_table(rows, title="Figure 2: four schemes, CacheBench bc-mix"))
    schemes = by_scheme(rows)

    # Shape assertions (who wins, not absolute numbers):
    # 1. Zone-Cache has the best hit ratio (largest cache, no OP) —
    #    the paper's 94.29% → 95.08% observation.
    assert schemes["Zone-Cache"]["hit_ratio"] == max(r["hit_ratio"] for r in rows)
    # 2. Zone-Cache and File-Cache are the bottom two on throughput
    #    (huge-region management vs filesystem overhead); Region-Cache
    #    and Block-Cache lead, within ~10% of each other.
    ranked = sorted(rows, key=lambda r: r["throughput_mops_per_min"])
    assert {ranked[0]["scheme"], ranked[1]["scheme"]} == {"Zone-Cache", "File-Cache"}
    assert (
        schemes["Region-Cache"]["throughput_mops_per_min"]
        > 0.9 * schemes["Block-Cache"]["throughput_mops_per_min"]
    )
    # 3. Zone-Cache is GC-free: total WAF exactly 1; the middle layer's
    #    WAF stays in the paper's low-1.x band.
    assert schemes["Zone-Cache"]["waf_total"] == 1.0
    assert 1.0 <= schemes["Region-Cache"]["waf_app"] < 2.0

    benchmark.extra_info["rows"] = rows
