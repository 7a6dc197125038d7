"""Workload generators.

* :mod:`repro.workloads.distributions` — Zipf popularity (CacheBench-
  style) and db_bench's ``ReadRandom Exp Range`` skew knob.
* :mod:`repro.workloads.cachebench` — the micro-benchmark driver
  modelled on CacheBench's ``feature_stress/navy/bc`` config: 50% get,
  30% set, 20% delete (§4.1).
* :mod:`repro.workloads.dbbench` — fillrandom + readrandom drivers for
  the end-to-end RocksDB experiment (§4.2).
"""

from repro.workloads.distributions import (
    ExponentialSampler,
    ExpRangeSampler,
    UniformSampler,
    ZipfSampler,
    ValueSizeSampler,
)
from repro.workloads.cachebench import (
    MEAN_ENTRY_BYTES,
    CacheBenchConfig,
    CacheBenchDriver,
    CacheOp,
    WorkloadResult,
)
from repro.workloads.dbbench import DbBenchConfig, DbBenchDriver, DbBenchResult

__all__ = [
    "ExponentialSampler",
    "ExpRangeSampler",
    "UniformSampler",
    "ZipfSampler",
    "ValueSizeSampler",
    "CacheOp",
    "MEAN_ENTRY_BYTES",
    "CacheBenchConfig",
    "CacheBenchDriver",
    "WorkloadResult",
    "DbBenchConfig",
    "DbBenchDriver",
    "DbBenchResult",
]
