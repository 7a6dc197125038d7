"""Benchmark harness: builders for the scheme stacks, the fleet cell the
serving sweeps share, and the experiment registry.

``repro.bench.schemes`` builds any scheme on matched hardware;
``repro.bench.fleet`` builds, runs and collects one serving-sweep cell;
``repro.bench.experiments`` registers every table, figure and sweep once
and runs them through ``run_sweep(name, size, **overrides)`` — the entry
point the CLI, ``benchmarks/bench_*.py`` and the tests all use (see
DESIGN.md's experiment index).  The package itself imports only the
builders and the reporting helpers: the serving layer imports
``repro.bench.schemes``, so pulling the experiments in here would make
every ``import repro.serve`` pay for them (and be a cycle).
"""

from repro.bench.schemes import (
    SchemeScale,
    SchemeStack,
    build_block_cache,
    build_file_cache,
    build_region_cache,
    build_zone_cache,
    build_scheme,
    SCHEME_NAMES,
)
from repro.bench.reporting import format_table, rows_to_csv

__all__ = [
    "SchemeScale",
    "SchemeStack",
    "build_block_cache",
    "build_file_cache",
    "build_region_cache",
    "build_zone_cache",
    "build_scheme",
    "SCHEME_NAMES",
    "format_table",
    "rows_to_csv",
]
