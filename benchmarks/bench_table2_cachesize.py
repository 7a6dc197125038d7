"""Table 2 — Zone-Cache with growing cache sizes under RocksDB.

Paper result: throughput 1.869 → 4.100 kops and hit ratio 86.95% →
94.40% as the Zone-Cache grows from 4 G to 8 G — both rise
monotonically with cache size, throughput roughly doubling.
"""

from conftest import run_once

from repro.bench.experiments import run_sweep
from repro.bench.reporting import format_table


def test_table2_cache_sizes(benchmark):
    rows = run_once(benchmark, run_sweep, "table2")
    print()
    print(format_table(rows, title="Table 2: Zone-Cache cache-size sweep"))

    hits = [r["hit_ratio_pct"] for r in rows]
    kops = [r["kops_per_sec"] for r in rows]
    # Hit ratio climbs (allowing sim noise of half a point per step).
    for earlier, later in zip(hits, hits[1:]):
        assert later >= earlier - 0.5, hits
    assert hits[-1] > hits[0]
    # Throughput climbs with it, by a meaningful factor end to end.
    assert kops[-1] > kops[0] * 1.15, kops

    benchmark.extra_info["rows"] = rows
