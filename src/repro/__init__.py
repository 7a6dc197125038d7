"""zns-cache: a reproduction of "Can ZNS SSDs be Better Storage Devices
for Persistent Cache?" (Yang et al., HotStorage '24).

The package builds the paper's entire stack as a deterministic
simulation — see README.md for the architecture and DESIGN.md for the
paper-to-simulator substitution map.  The most common entry points:

>>> from repro.sim import SimClock
>>> from repro.bench.schemes import SchemeScale, build_region_cache
>>> stack = build_region_cache(SimClock(), SchemeScale(),
...                            media_bytes=25 * 4 * 1024 * 1024,
...                            cache_bytes=20 * 4 * 1024 * 1024)
>>> stack.cache.set(b"key", b"value")
True
>>> stack.cache.get(b"key")
b'value'

Subpackages
-----------
``repro.sim``
    Virtual clock, RNG streams, statistics primitives.
``repro.flash``
    Simulated devices: conventional SSD (FTL + GC), ZNS SSD, nullblk,
    HDD, and I/O tracing.
``repro.f2fs``
    F2FS-like log-structured filesystem (File-Cache substrate).
``repro.ztl``
    Zone translation middle layer (Region-Cache substrate).
``repro.cache``
    CacheLib-like hybrid cache with the four scheme backends.
``repro.lsm``
    RocksDB-like LSM store with secondary-cache integration.
``repro.workloads``
    CacheBench- and db_bench-style drivers.
``repro.bench``
    Scheme builders, the fleet cell the serving sweeps share, the
    registry of every experiment (``run_sweep``), plus reporting.
``repro.cli``
    ``python -m repro`` — regenerate any paper result.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
