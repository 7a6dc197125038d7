"""Tenant model: a named request stream with its own workload and QoS.

Each tenant owns a keyspace (namespaced by a key prefix), an op mix
(reusing :class:`~repro.workloads.cachebench.CacheBenchConfig` so the
serving path and the closed-loop driver stay comparable op-for-op), an
open-loop arrival process, an optional token-bucket rate limit, and an
SLO target the tracker scores completions against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cache.lifecycle import versioned_prefix
from repro.errors import ConfigError
from repro.serve.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    StormArrivals,
)
from repro.serve.qos import SloTracker, TokenBucket
from repro.workloads.cachebench import CacheBenchConfig, CacheBenchDriver


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's traffic contract.

    ``workload.num_ops`` is the tenant's request budget for the run;
    ``rate_ops_per_sec`` its offered (open-loop) rate.  A
    ``rate_limit_ops_per_sec`` of 0 disables the token bucket (the
    parity configuration against the closed-loop driver).
    """

    name: str
    rate_ops_per_sec: float = 50_000.0
    arrival: str = "poisson"
    burst_factor: float = 4.0
    flash_crowd_factor: float = 4.0
    flash_crowd_at_s: float = 0.05
    flash_crowd_decay_s: float = 0.05
    storm_factor: float = 4.0
    storm_at_s: float = 0.05
    storm_duration_s: float = 0.02
    workload: CacheBenchConfig = field(default_factory=CacheBenchConfig)
    # None → derived from the name; pass b"" explicitly to share the
    # closed-loop driver's exact key bytes (single-tenant parity runs).
    key_prefix: Optional[bytes] = None
    # Generation-prefixed keys (``name:gen:key``): lets the server
    # invalidate the whole namespace in O(1) by bumping the generation.
    # Off by default — prefixes change every key byte, so parity runs
    # and existing goldens keep the plain prefix.
    versioned_keys: bool = False
    slo_p99_ms: float = 5.0
    rate_limit_ops_per_sec: float = 0.0
    rate_limit_burst: float = 64.0
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.rate_ops_per_sec <= 0:
            raise ConfigError(
                f"rate_ops_per_sec must be positive, got {self.rate_ops_per_sec}"
            )
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival kind {self.arrival!r}; expected one of "
                f"{ARRIVAL_KINDS}"
            )
        if self.slo_p99_ms <= 0:
            raise ConfigError(f"slo_p99_ms must be positive, got {self.slo_p99_ms}")
        if self.rate_limit_ops_per_sec < 0:
            raise ConfigError("rate_limit_ops_per_sec must be non-negative")
        if self.versioned_keys and self.key_prefix is not None:
            raise ConfigError(
                "versioned_keys derives the prefix from the tenant name; "
                "drop the explicit key_prefix"
            )

    @property
    def effective_key_prefix(self) -> bytes:
        if self.key_prefix is not None:
            return self.key_prefix
        return f"{self.name}:".encode()


class Tenant:
    """Runtime state of one tenant inside a serving run."""

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.generation = 0
        if config.versioned_keys:
            self.key_prefix = versioned_prefix(config.name.encode(), 0)
        else:
            self.key_prefix = config.effective_key_prefix
        # key_index -> prefixed key bytes under the current generation
        # (Zipf reuse means most arrivals hit the same few hundred keys).
        # The serving loop reads it directly and calls bind_key on a miss.
        self.bound_keys: Dict[int, bytes] = {}
        self.driver = CacheBenchDriver(config.workload)
        self.arrivals = self._make_arrivals(config)
        self.bucket: Optional[TokenBucket] = None
        if config.rate_limit_ops_per_sec > 0:
            self.bucket = TokenBucket(
                config.rate_limit_ops_per_sec, config.rate_limit_burst
            )
        self.slo = SloTracker(config.name, int(config.slo_p99_ms * 1e6))
        self.issued = 0

    @staticmethod
    def _make_arrivals(config: TenantConfig) -> ArrivalProcess:
        if config.arrival == "poisson":
            return PoissonArrivals(config.rate_ops_per_sec, seed=config.seed)
        if config.arrival == "diurnal":
            return DiurnalArrivals(config.rate_ops_per_sec, seed=config.seed)
        if config.arrival == "flash_crowd":
            return FlashCrowdArrivals(
                config.rate_ops_per_sec,
                peak_factor=config.flash_crowd_factor,
                at_s=config.flash_crowd_at_s,
                decay_s=config.flash_crowd_decay_s,
                seed=config.seed,
            )
        if config.arrival == "storm":
            return StormArrivals(
                config.rate_ops_per_sec,
                storm_factor=config.storm_factor,
                at_s=config.storm_at_s,
                duration_s=config.storm_duration_s,
                seed=config.seed,
            )
        return BurstArrivals(
            config.rate_ops_per_sec,
            burst_factor=config.burst_factor,
            seed=config.seed,
        )

    @property
    def budget(self) -> int:
        """Total requests this tenant offers over the run."""
        return self.config.workload.num_ops

    def bind_key(self, key_index: int) -> bytes:
        """The key a request for ``key_index`` carries if it arrives now:
        the tenant's current prefix (generation included) + key bytes."""
        key = self.bound_keys.get(key_index)
        if key is None:
            key = self.key_prefix + self.driver.key_bytes(key_index)
            self.bound_keys[key_index] = key
        return key

    @property
    def namespace_id(self) -> bytes:
        """Tenant id the cache's namespace-version table keys on."""
        return self.config.name.encode()

    def invalidate(self) -> int:
        """Bump this tenant's generation and return the new value.

        Requires ``versioned_keys``; subsequent requests carry the new
        generation prefix, so every key written under the old one
        becomes unreachable — dead bytes for the storage layers to
        discover.  The server mirrors the bump into each shard's cache
        so old-generation reads are refused even where the index still
        holds them.
        """
        if not self.config.versioned_keys:
            raise ConfigError(
                f"tenant {self.config.name!r} does not use versioned keys"
            )
        self.generation += 1
        self.key_prefix = versioned_prefix(self.namespace_id, self.generation)
        self.bound_keys.clear()
        return self.generation

    def __repr__(self) -> str:
        return (
            f"Tenant({self.config.name!r}, rate={self.config.rate_ops_per_sec}/s, "
            f"issued={self.issued}/{self.budget})"
        )
