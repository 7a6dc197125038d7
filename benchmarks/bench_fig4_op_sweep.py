"""Figure 4 — throughput and hit ratio under different OP ratios.

Paper result (§4.1): for Region-Cache and File-Cache "a larger OP ratio
will lead to higher throughput and lower hit ratio"; Zone-Cache (no OP)
holds the hit-ratio crown with mid-pack throughput.
"""

from conftest import run_once

from repro.bench.experiments import run_sweep
from repro.bench.reporting import format_table


def _series(rows, scheme):
    picked = [r for r in rows if r["scheme"] == scheme and r["op_ratio"] > 0]
    return sorted(picked, key=lambda r: r["op_ratio"])


def test_fig4_op_sweep(benchmark):
    rows = run_once(benchmark, run_sweep, "fig4", num_ops=40_000)
    print()
    print(format_table(rows, title="Figure 4: OP-ratio sweep (Zone-Cache = no OP)"))

    for scheme in ("Region-Cache", "File-Cache"):
        series = _series(rows, scheme)
        assert len(series) == 3
        # Higher OP → lower hit ratio (smaller cache).
        assert series[0]["hit_ratio"] >= series[-1]["hit_ratio"], scheme
        # Higher OP → lower WAF (more GC headroom).
        assert series[0]["waf_app"] >= series[-1]["waf_app"] * 0.98, scheme

    zone = next(r for r in rows if r["scheme"] == "Zone-Cache")
    assert zone["hit_ratio"] == max(r["hit_ratio"] for r in rows)
    assert zone["waf_total"] == 1.0

    benchmark.extra_info["rows"] = rows
