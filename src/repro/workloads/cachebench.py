"""CacheBench-style micro-benchmark driver.

Models the workload the paper uses in §4.1: CacheBench's
``feature_stress/navy/bc`` mix — "50% get, 30% set, and 20% delete
operations" over a Zipf-popular keyspace, with LRU eviction in the
cache.  The driver runs against any :class:`~repro.cache.HybridCache`
and reports the figures the paper plots: throughput (operations per
minute), hit ratio, WAF breakdown, and latency percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cache.engine import HybridCache
from repro.errors import ConfigError
from repro.sim.rng import bulk_random, make_rng
from repro.workloads.distributions import (
    UniformSampler,
    ValueSizeSampler,
    ZipfSampler,
)

# Integer op kinds for the pre-generated streams: comparing small ints
# in the serving loop is markedly cheaper than string comparison, and
# the kinds array packs tighter than one CacheOp object per arrival.
KIND_GET = 0
KIND_SET = 1
KIND_DELETE = 2
KIND_NAMES = ("get", "set", "delete")

# Mean on-flash entry under the default value-size mix: the weighted
# mean value (1536 B) plus the 16-byte key and 16-byte entry header.
# Experiments size keyspaces against a byte budget by dividing by it.
MEAN_ENTRY_BYTES = 1568

# Deletes model invalidations of *stale* content: they sample uniformly
# from this cold fraction of the popularity ranking rather than by
# popularity (popularity-weighted deletes would cap the hit ratio at
# sets/(sets+deletes) = 0.6, far below the paper's 94%).
DELETE_COLD_FRACTION = 0.3


@dataclass(frozen=True)
class CacheBenchConfig:
    """Knobs mirroring the CacheBench config file."""

    num_ops: int = 50_000
    num_keys: int = 20_000
    get_ratio: float = 0.50
    set_ratio: float = 0.30
    delete_ratio: float = 0.20
    zipf_theta: float = 0.9
    key_size: int = 16
    value_sizes: Tuple[int, ...] = (512, 1024, 2048, 4096)
    value_weights: Tuple[float, ...] = (2.0, 4.0, 3.0, 1.0)
    warmup_ops: int = 0
    set_on_miss: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        total = self.get_ratio + self.set_ratio + self.delete_ratio
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"op ratios must sum to 1.0, got {total}")
        if self.num_ops < 1 or self.num_keys < 1:
            raise ConfigError("num_ops and num_keys must be >= 1")
        if self.key_size < 4:
            raise ConfigError("key_size must be >= 4")
        validate_value_distribution(self.value_sizes, self.value_weights)


def validate_value_distribution(
    sizes: Tuple[int, ...], weights: Tuple[float, ...]
) -> None:
    """Reject malformed value-size distributions at config time.

    The samplers would eventually fail on these, but deep inside a run
    with an unhelpful traceback; benchmark configs validate up front.
    """
    if not sizes:
        raise ConfigError("value_sizes must not be empty")
    for size in sizes:
        if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
            raise ConfigError(f"value_sizes must be positive ints, got {size!r}")
    if weights:
        if len(weights) != len(sizes):
            raise ConfigError(
                f"value_weights length {len(weights)} != value_sizes "
                f"length {len(sizes)}"
            )
        for weight in weights:
            if not isinstance(weight, (int, float)) or isinstance(weight, bool) \
                    or weight <= 0:
                raise ConfigError(
                    f"value_weights must be positive numbers, got {weight!r}"
                )


@dataclass
class WorkloadResult:
    """Everything the paper's micro-benchmark figures report."""

    scheme: str
    operations: int
    sim_seconds: float
    throughput_ops_per_sec: float
    hit_ratio: float
    waf_app: float
    waf_device: float
    get_p50_ns: int = 0
    get_p99_ns: int = 0
    set_p50_ns: int = 0
    set_p99_ns: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_minute_m(self) -> float:
        """Operations per minute, in millions (Figure 4's y-axis)."""
        return self.throughput_ops_per_sec * 60 / 1e6

    @property
    def waf_total(self) -> float:
        return self.waf_app * self.waf_device


class CacheOp(NamedTuple):
    """One generated operation, decoupled from its execution.

    The closed-loop driver applies each op immediately; the serving
    layer pre-draws the same stream (:meth:`CacheBenchDriver.next_ops`)
    and applies each op when its shard's queue drains.  Value bytes are
    materialized at *apply* time so the size-sampler RNG stream is
    identical in both modes (ops that get shed never draw from it).

    A NamedTuple rather than a dataclass: op construction sits on the
    generation hot path and tuples allocate in one step.
    """

    kind: str  # "get" | "set" | "delete"
    key_index: int


class CacheBenchDriver:
    """Drives the get/set/delete mix against one cache instance."""

    def __init__(self, config: CacheBenchConfig = CacheBenchConfig()) -> None:
        self.config = config
        self._keys = ZipfSampler(config.num_keys, config.zipf_theta, config.seed)
        self._delete_keys = UniformSampler(config.num_keys, config.seed)
        # Deletes draw a rank uniformly from the cold tail
        # [first_cold_rank, num_keys) of the popularity ranking.
        self._first_cold_rank = int(config.num_keys * (1.0 - DELETE_COLD_FRACTION))
        self._cold_span = max(1, config.num_keys - self._first_cold_rank)
        self._sizes = ValueSizeSampler(
            config.value_sizes, config.value_weights, config.seed
        )
        self._ops_rng = make_rng(config.seed, "opmix")
        # Key memo: a pure function of the index, bounded by the keyspace
        # and reused constantly under Zipf.  Values are *not* memoised —
        # (key, size) pairs are effectively unbounded and each would pin
        # kilobytes for the life of the driver.
        self._key_cache: Dict[int, bytes] = {}

    def key_bytes(self, key_index: int) -> bytes:
        """Fixed-width printable key, like CacheBench's generated keys."""
        cached = self._key_cache.get(key_index)
        if cached is None:
            cached = f"k{key_index:0{self.config.key_size - 1}d}".encode()[
                : self.config.key_size
            ]
            self._key_cache[key_index] = cached
        return cached

    def value_bytes(self, key_index: int, size: int) -> bytes:
        unit = b"v%014d" % key_index
        return (unit * -(-size // len(unit)))[:size]

    def populate(self, cache: HybridCache) -> None:
        """CacheBench-style population phase: one set per key (not measured)."""
        for key_index in range(self.config.num_keys):
            cache.set(
                self.key_bytes(key_index),
                self.value_bytes(key_index, self._sizes.sample()),
            )

    def run(self, cache: HybridCache) -> WorkloadResult:
        """Execute the mix; stats are reset after warm-up."""
        config = self.config
        for op_index in range(config.warmup_ops):
            self._one_op(cache)
        cache.reset_stats()
        for op_index in range(config.num_ops):
            self._one_op(cache)
        return self.summarize(cache)

    def summarize(self, cache: HybridCache) -> WorkloadResult:
        stats = cache.stats
        waf = cache.waf_window()
        return WorkloadResult(
            scheme=cache.store.scheme_name,
            operations=stats.operations,
            sim_seconds=stats.elapsed_seconds(),
            throughput_ops_per_sec=stats.throughput_ops(),
            hit_ratio=stats.hit_ratio,
            waf_app=waf.app,
            waf_device=waf.device,
            get_p50_ns=stats.get_latency.p50(),
            get_p99_ns=stats.get_latency.p99(),
            set_p50_ns=stats.set_latency.p50(),
            set_p99_ns=stats.set_latency.p99(),
            extra={
                "flash_hit_ratio": stats.flash_lookups.ratio,
                "ram_hit_ratio": stats.ram_lookups.ratio,
                "regions_evicted": cache.regions.regions_evicted,
                "items_evicted": cache.regions.items_evicted,
            },
        )

    def next_op(self) -> CacheOp:
        """Draw the next operation of the mix without executing it."""
        draw = self._ops_rng.random()
        config = self.config
        if draw < config.get_ratio:
            return CacheOp("get", self._keys.sample())
        if draw < config.get_ratio + config.set_ratio:
            return CacheOp("set", self._keys.sample())
        rank = self._first_cold_rank + self._delete_keys.sample() % self._cold_span
        return CacheOp("delete", self._keys.key_of_rank(rank))

    def next_ops(self, n: int) -> Tuple[List[int], List[int]]:
        """Pre-draw ``n`` ops, bit-identical to ``n`` :meth:`next_op` calls.

        Returns parallel ``(kinds, key_indices)`` lists with ``KIND_*``
        integer kinds.  The op-mix, Zipf and uniform-delete streams are
        independent generators, so draining each in bulk preserves every
        per-stream draw sequence; the Zipf draws are consumed in op
        order by the get/set ops exactly as the scalar path would.
        """
        config = self.config
        us = bulk_random(self._ops_rng, n)
        get_t = config.get_ratio
        set_t = config.get_ratio + config.set_ratio
        kinds = [
            KIND_GET if u < get_t else (KIND_SET if u < set_t else KIND_DELETE)
            for u in us
        ]
        num_deletes = kinds.count(KIND_DELETE)
        zipf_keys = self._keys.sample_many(n - num_deletes)
        if num_deletes == 0:
            return kinds, zipf_keys
        key_indices = [0] * n
        zi = 0
        first_cold_rank, cold_span = self._first_cold_rank, self._cold_span
        sample_delete = self._delete_keys.sample
        key_of_rank = self._keys.key_of_rank
        for i, kind in enumerate(kinds):
            if kind != KIND_DELETE:
                key_indices[i] = zipf_keys[zi]
                zi += 1
            else:
                # randrange takes the *top* bits with rejection — numpy
                # masks the bottom bits — so delete draws stay scalar.
                key_indices[i] = key_of_rank(
                    first_cold_rank + sample_delete() % cold_span
                )
        return kinds, key_indices

    def apply_op(
        self, cache: HybridCache, op: CacheOp, key_prefix: bytes = b""
    ) -> bool:
        """Execute a generated op; returns True for a get that hit.

        ``key_prefix`` namespaces the keyspace (the serving layer gives
        each tenant a distinct prefix); with the default empty prefix the
        byte stream is identical to the closed-loop driver's.
        """
        key = key_prefix + self.key_bytes(op.key_index)
        if op.kind == "get":
            value = cache.get(key)
            if value is None and self.config.set_on_miss:
                cache.set(key, self.value_bytes(op.key_index, self._sizes.sample()))
            return value is not None
        if op.kind == "set":
            cache.set(key, self.value_bytes(op.key_index, self._sizes.sample()))
            return False
        cache.delete(key)
        return False

    def apply_kind_value(
        self, cache: HybridCache, kind: int, key_index: int, key: bytes
    ) -> Tuple[bool, Optional[bytes]]:
        """:meth:`apply_op` for the serving loop's pre-generated streams.

        Takes the ``KIND_*`` integer and the key bytes bound at arrival,
        so the loop neither constructs a CacheOp nor re-derives the key.
        Returns ``(hit, value)``: for a get hit, the value read (so a
        fallback read can read-repair without another lookup); for a set
        or a set-on-miss fill, the value written (so replica writes
        reuse the primary's bytes and never re-draw from the size
        stream); ``None`` for a bare miss or a delete.  Draw-for-draw
        identical to :meth:`apply_op`.
        """
        if kind == KIND_GET:
            value = cache.get(key)
            if value is None:
                if self.config.set_on_miss:
                    written = self.value_bytes(key_index, self._sizes.sample())
                    cache.set(key, written)
                    return False, written
                return False, None
            return True, value
        if kind == KIND_SET:
            written = self.value_bytes(key_index, self._sizes.sample())
            cache.set(key, written)
            return False, written
        cache.delete(key)
        return False, None

    def _one_op(self, cache: HybridCache) -> None:
        self.apply_op(cache, self.next_op())
