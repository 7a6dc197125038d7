"""Table 1 — WA factor under different OP ratios.

Paper result: Region-Cache 1.39 / 1.30 / 1.15 and File-Cache 1.25 /
1.19 / 1.11 at OP 10% / 15% / 20% — WAF strictly decreases as OP grows,
stays in the low-1.x range, and Zone-Cache (not shown in the table) is
always exactly 1.
"""

from conftest import run_once

from repro.bench.experiments import run_sweep
from repro.bench.reporting import format_table


def test_table1_waf(benchmark):
    rows = run_once(benchmark, run_sweep, "table1", num_ops=40_000)
    print()
    print(format_table(rows, title="Table 1: WA factor vs OP ratio"))

    for scheme in ("Region-Cache", "File-Cache"):
        series = sorted(
            (r for r in rows if r["scheme"] == scheme), key=lambda r: r["op_ratio"]
        )
        wafs = [r["waf"] for r in series]
        assert len(wafs) == 3
        # Monotone non-increasing with OP, as in the paper's table.
        assert wafs[0] >= wafs[1] >= wafs[2] * 0.98
        # Low-1.x range: above 1, far below the pathological regime.
        assert all(1.0 <= w < 2.5 for w in wafs), wafs

    benchmark.extra_info["rows"] = rows
