"""db_bench-style drivers for the end-to-end experiment (§4.2).

``fillrandom`` inserts the keyspace in random order (16-byte keys,
64-byte values, the paper's sizes), then ``readrandom`` issues point
gets with the ``ReadRandom Exp Range`` skew knob.  The LSM lives on the
simulated HDD; the scheme under test serves as the secondary cache.

The fill runs before the scheme stack exists, so it cannot depend on the
scheme: a process fills once per fill key (:func:`_fill_key`) and every
driver starts from a deep copy of that filled ``(clock, Db)``.  The copy
duplicates only what a driver changes (clock, HDD state, block cache,
level lists, stats); the frozen HDD bytes, the tables and their pinned
indexes, and the read-plan cache are shared, so the blocks and plans one
driver's reads build serve every later driver too.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.bench.schemes import SCHEME_NAMES, SchemeScale, SchemeStack, build_scheme
from repro.errors import ConfigError
from repro.flash.hdd import HddConfig, HddDevice
from repro.lsm.db import Db, DbConfig, DbStats
from repro.lsm.secondary import CacheLibSecondaryCache
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.units import GIB, KIB, MIB
from repro.workloads.distributions import ExpRangeSampler


# (field, minimum) of DbBenchConfig's int fields (bools refused; the
# seed has no bound) and of its int-or-float ones.
_INT_MINIMUMS = (
    ("num_keys", 1),
    ("num_reads", 1),
    ("warmup_reads", -1),  # -1: as many as num_reads
    ("key_size", 8),  # b"user" plus at least four digits
    ("value_size", 1),
    ("op_zones", 0),
    ("hdd_bytes", 1),
    ("dram_block_cache_bytes", 0),
    ("seed", None),
)
_NUMBER_MINIMUMS = (("exp_range", 0), ("cache_zones", 1))


@dataclass(frozen=True)
class DbBenchConfig:
    """Scaled mirror of the paper's db_bench settings."""

    num_keys: int = 80_000
    num_reads: int = 8_000
    warmup_reads: int = -1  # -1 → same as num_reads
    key_size: int = 16
    value_size: int = 64
    exp_range: float = 25.0
    scheme: str = "Region-Cache"
    # Flash cache size in zones (may be fractional: the paper's 5 GiB
    # cache is 4.75 zones of 1077 MiB, so Zone-Cache can only use 4 whole
    # zones while the other schemes get the full budget — one source of
    # its lower hit ratio in Figure 5).
    cache_zones: float = 4.5
    # Extra zones of OP for the non-Zone schemes.  The paper "reserves
    # enough OP space to reduce GC and focus on tail latency" (§4.2); at
    # zone granularity a FIFO-cycled cache needs roughly a cache-sized
    # tail of aging zones before garbage concentrates, hence ~6 spare
    # zones for a 4.5-zone cache.
    op_zones: int = 6
    hdd_bytes: int = 1 * GIB
    dram_block_cache_bytes: int = 128 * KIB
    seed: int = 7

    def __post_init__(self) -> None:
        # A field's type before its bound: no bound compares a str, and
        # no float count reaches the fill or the reads.
        for name, minimum in _INT_MINIMUMS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            if minimum is not None and value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        for name, minimum in _NUMBER_MINIMUMS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not (minimum <= value < math.inf):
                raise ConfigError(f"{name} must be finite and >= {minimum}, got {value}")
        if self.scheme not in SCHEME_NAMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEME_NAMES}"
            )


@dataclass
class DbBenchResult:
    """What Figure 5 and Table 2 report."""

    scheme: str
    exp_range: float
    reads: int
    sim_seconds: float
    ops_per_sec: float
    p50_ns: int
    p99_ns: int
    cache_hit_ratio: float
    found_ratio: float
    waf_app: float
    waf_device: float


# Fig 5 scale: 1 MiB zones keep the paper's zone≈cache/5 ratio at a DB
# size a simulation can fill; parallelism 4 keeps the per-byte program
# cost of 16 KiB regions and whole zones identical.
FIG5_SCALE = SchemeScale(
    zone_size=1 * MIB,
    # 64 KiB regions: 15 of the LSM's ~4 KiB blocks per region (≈6%
    # internal fragmentation).  Smaller scaled regions would waste a
    # quarter of the cache on fragmentation, which the paper's real
    # 16 MiB regions do not.
    region_size=64 * KIB,
    ram_bytes=64 * KIB,
    parallelism=4,
    pages_per_block=32,  # 128 KiB erase blocks: the small devices of this
    # experiment must hold many erase blocks or the FTL's GC headroom
    # would swallow the cache.
)


# DbBenchConfig fields that shape only the scheme stack or the reads:
# every other field is an input of the fill.
_READ_SIDE_FIELDS = frozenset(
    ("scheme", "cache_zones", "op_zones", "exp_range", "num_reads", "warmup_reads")
)

# This process's one filled snapshot: (fill key, (clock, Db)), or None.
# Nothing reads from it; its HDD chunks are frozen, so it and every copy
# made from it share the filled bytes.
_filled: Optional[Tuple[tuple, Tuple[SimClock, Db]]] = None


def _fill_key(driver: "DbBenchDriver") -> tuple:
    """What the filled ``(clock, Db)`` of ``driver`` depends on."""
    config = driver.config
    return (type(driver),) + tuple(
        getattr(config, f.name)
        for f in fields(config)
        if f.name not in _READ_SIDE_FIELDS
    )


class DbBenchDriver:
    """fillrandom + readrandom against one scheme stack."""

    def __init__(
        self, config: DbBenchConfig, scale: Optional[SchemeScale] = None
    ) -> None:
        self.config = config
        self.scale = scale if scale is not None else FIG5_SCALE
        self.clock = SimClock()
        self.stack: Optional[SchemeStack] = None
        self.db: Optional[Db] = None
        self._key_format = b"user%%0%dd" % (config.key_size - 4)

    def key_bytes(self, index: int) -> bytes:
        return self._key_format % index

    def value_bytes(self, index: int) -> bytes:
        unit, size = b"val%09d" % index, self.config.value_size
        return (unit * -(-size // len(unit)))[:size]

    def setup(self) -> None:
        """A copy of the filled HDD-backed DB (fillrandom runs on a miss),
        then the scheme stack as its secondary cache, both on this
        driver's clock."""
        global _filled
        config = self.config
        key = _fill_key(self)
        if _filled is None or _filled[0] != key:
            _filled = None  # one snapshot per process, never two
            clock = SimClock()
            hdd = HddDevice(
                clock, HddConfig(capacity_bytes=config.hdd_bytes), seed=config.seed
            )
            self.db = Db(
                clock, hdd, DbConfig(block_cache_bytes=config.dram_block_cache_bytes)
            )
            self._fillrandom()
            hdd.media.freeze()
            _filled = key, (clock, self.db)
        # The first driver copies too, so the snapshot stays as the fill
        # left it: nothing ever reads through it.
        clock, db = _filled[1]
        self.db = copy.deepcopy(db, {id(clock): self.clock})
        self.clock.now = clock.now
        cache_bytes = int(config.cache_zones * self.scale.zone_size)
        if config.scheme == "Zone-Cache":
            # Zone-Cache can only use whole zones of the budget.
            media_bytes = max(
                self.scale.zone_size,
                (cache_bytes // self.scale.zone_size) * self.scale.zone_size,
            )
        elif config.scheme == "File-Cache":
            # F2FS needs roughly double the zones for a given cache size
            # (the paper's 38 zones + nullblk for a 20 GiB cache), plus
            # the cleaning margin the small zone counts of this scaled
            # experiment demand.
            media_bytes = int(2.5 * cache_bytes)
        else:
            media_bytes = cache_bytes + config.op_zones * self.scale.zone_size
        self.stack = build_scheme(
            config.scheme, self.clock, self.scale, media_bytes, cache_bytes
        )
        self.db.block_cache.secondary = CacheLibSecondaryCache(self.stack.cache)

    def _fillrandom(self) -> None:
        assert self.db is not None
        order = list(range(self.config.num_keys))
        make_rng(self.config.seed, "fillrandom").shuffle(order)
        for index in order:
            self.db.put(self.key_bytes(index), self.value_bytes(index))
        self.db.flush_memtable()

    def run(self) -> DbBenchResult:
        """Execute the benchmark and summarize (setup() runs if needed)."""
        if self.db is None:
            self.setup()
        assert self.db is not None and self.stack is not None
        sampler = ExpRangeSampler(
            self.config.num_keys, self.config.exp_range, self.config.seed
        )
        warmup = self.config.warmup_reads
        if warmup < 0:
            warmup = self.config.num_reads
        for _ in range(warmup):
            self.db.get(self.key_bytes(sampler.sample()))
        # Fresh measurement window after fill + cache warm-up.
        self.db.stats = DbStats()
        self.stack.cache.reset_stats()
        start_ns = self.clock.now
        for _ in range(self.config.num_reads):
            self.db.get(self.key_bytes(sampler.sample()))
        elapsed = (self.clock.now - start_ns) / 1e9
        waf = self.stack.cache.waf_window()
        return DbBenchResult(
            scheme=self.config.scheme,
            exp_range=self.config.exp_range,
            reads=self.config.num_reads,
            sim_seconds=elapsed,
            ops_per_sec=self.config.num_reads / elapsed if elapsed > 0 else 0.0,
            p50_ns=self.db.stats.get_latency.p50(),
            p99_ns=self.db.stats.get_latency.p99(),
            cache_hit_ratio=self.stack.cache.stats.hit_ratio,
            found_ratio=self.db.stats.found.ratio,
            waf_app=waf.app,
            waf_device=waf.device,
        )
