"""Figure 5 — the four schemes as RocksDB's secondary cache.

Paper result (§4.2): Region-Cache has the highest throughput (up to
+21% over Block-Cache); Zone-Cache has the lowest throughput and hit
ratio (whole-zone eviction with a small cache); Block-Cache's P99 is
the worst (uncontrollable device GC) while its P50 stays low.
"""

from conftest import run_once

from repro.bench.experiments import run_sweep
from repro.bench.reporting import format_table


def test_fig5_rocksdb(benchmark):
    rows = run_once(benchmark, run_sweep, "fig5")
    print()
    print(format_table(rows, title="Figure 5: RocksDB + secondary cache"))

    for exp_range in (15.0, 25.0):
        subset = {r["scheme"]: r for r in rows if r["exp_range"] == exp_range}
        # Zone-Cache: lowest hit ratio AND throughput of the four
        # (whole-zone cache granularity + whole-zone eviction at a small
        # cache size) — the paper's headline Figure 5 observation.
        assert subset["Zone-Cache"]["hit_ratio"] == min(
            r["hit_ratio"] for r in subset.values()
        ), exp_range
        assert subset["Zone-Cache"]["kops_per_sec"] == min(
            r["kops_per_sec"] for r in subset.values()
        ), exp_range
        # Region-Cache has the best throughput (paper: up to +21% over
        # Block-Cache; the simulator reproduces the ordering, the margin
        # is testbed-dependent).
        assert subset["Region-Cache"]["kops_per_sec"] == max(
            r["kops_per_sec"] for r in subset.values()
        ), exp_range
        # Tail latency: the regular SSD's maintenance bursts keep its P99
        # above Region-Cache's.  (The paper's 2× P99 gap comes from
        # queueing under real concurrency, which a synchronous simulator
        # compresses — see EXPERIMENTS.md.)
        assert (
            subset["Block-Cache"]["p99_ms"] >= subset["Region-Cache"]["p99_ms"]
        ), exp_range

    benchmark.extra_info["rows"] = rows
