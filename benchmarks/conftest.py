"""Shared helpers for the benchmark suite.

Every benchmark wraps one experiment of the registry in
:mod:`repro.bench.experiments` (``run_sweep(name, ...)``, one per
table/figure in the paper) with ``benchmark.pedantic(rounds=1)``: the experiments are deterministic
simulations, so a single round measures wall-clock cost without
perturbing the reported (simulated) results.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from typing import Callable, List


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def by_scheme(rows: List[dict], **filters) -> dict:
    """Index result rows by scheme name (optionally filtered)."""
    out = {}
    for row in rows:
        if all(row.get(k) == v for k, v in filters.items()):
            out[row["scheme"]] = row
    return out
