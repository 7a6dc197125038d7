"""QoS primitives: token-bucket rate limiting and per-tenant SLO tracking.

The serving layer prefers *rejecting* work to collapsing under it: a
token bucket caps each tenant's admitted rate, bounded shard queues shed
what would otherwise grow without bound, and :class:`SloTracker` keeps
the per-tenant evidence (end-to-end latency percentiles, goodput, shed
accounting) the serving sweep reports.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigError
from repro.sim.stats import LatencyRecorder
from repro.units import SEC


class TokenBucket:
    """Deterministic token bucket over virtual time.

    Refills continuously at ``rate_per_sec`` up to ``burst`` tokens;
    ``try_take`` consumes one token or reports the request as over-rate.
    All arithmetic is pure function of virtual timestamps, so the same
    arrival sequence always sheds the same requests.
    """

    __slots__ = ("rate_per_sec", "burst", "_tokens", "_last_ns", "accepted", "rejected")

    def __init__(
        self, rate_per_sec: float, burst: float = 64.0, start_ns: int = 0
    ) -> None:
        if rate_per_sec <= 0:
            raise ConfigError(f"rate_per_sec must be positive, got {rate_per_sec}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst}")
        self.rate_per_sec = rate_per_sec
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_ns = start_ns
        self.accepted = 0
        self.rejected = 0

    def try_take(self, now_ns: int) -> bool:
        if now_ns > self._last_ns:
            refill = (now_ns - self._last_ns) / SEC * self.rate_per_sec
            self._tokens = min(self.burst, self._tokens + refill)
            self._last_ns = now_ns
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.accepted += 1
            return True
        self.rejected += 1
        return False

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate_per_sec}/s, "
            f"tokens={self._tokens:.2f}/{self.burst})"
        )


class SloTracker:
    """Per-tenant service-level accounting.

    End-to-end latency here is *arrival to completion* — queueing delay
    at the shard plus the cache operation's full simulated cost — which
    is what a client of the fleet would measure.  ``goodput`` counts
    only completions that met the tenant's latency objective, so a
    saturated shard serving everything late scores near zero even though
    its raw throughput looks healthy.
    """

    def __init__(self, name: str, slo_latency_ns: int) -> None:
        if slo_latency_ns <= 0:
            raise ConfigError(
                f"slo_latency_ns must be positive, got {slo_latency_ns}"
            )
        self.name = name
        self.slo_latency_ns = slo_latency_ns
        self.latency = LatencyRecorder(f"{name}.e2e")
        self.offered = 0
        self.completed = 0
        self.within_slo = 0
        self.shed_rate_limited = 0
        self.shed_queue_full = 0
        self.rerouted = 0
        self.gets = 0
        self.get_hits = 0
        # Requests accepted for service but never completed: routed to a
        # dead shard, lost in a power cut, or left with no live replica.
        # Only a run with replication armed can produce these; the row()
        # schema is unchanged so pre-replication goldens stay identical
        # (the failover sweep reads this attribute directly).
        self.failed_unavailable = 0

    # --- recording ----------------------------------------------------------

    def record_offered(self) -> None:
        self.offered += 1

    def record_shed(self, reason: str) -> None:
        if reason == "rate_limited":
            self.shed_rate_limited += 1
        elif reason == "queue_full":
            self.shed_queue_full += 1
        else:
            raise ValueError(f"unknown shed reason {reason!r}")

    def record_failed(self) -> None:
        """A request lost to shard unavailability (see failed_unavailable)."""
        self.failed_unavailable += 1

    def record_completion(self, latency_ns: int, is_get: bool, hit: bool) -> None:
        self.completed += 1
        self.latency.record(latency_ns)
        if latency_ns <= self.slo_latency_ns:
            self.within_slo += 1
        if is_get:
            self.gets += 1
            if hit:
                self.get_hits += 1

    # --- derived quantities -------------------------------------------------

    @property
    def shed(self) -> int:
        return self.shed_rate_limited + self.shed_queue_full

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected before service."""
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def hit_ratio(self) -> float:
        if self.gets == 0:
            return 0.0
        return self.get_hits / self.gets

    def goodput_ops_per_sec(self, elapsed_seconds: float) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        return self.within_slo / elapsed_seconds

    def row(self, elapsed_seconds: float) -> Dict[str, object]:
        """Rectangular per-tenant summary (one bench row per tenant)."""
        return {
            "tenant": self.name,
            "offered": self.offered,
            "completed": self.completed,
            "shed_rate_limited": self.shed_rate_limited,
            "shed_queue_full": self.shed_queue_full,
            "shed_rate": self.shed_rate,
            "rerouted": self.rerouted,
            "p50_us": self.latency.p50() / 1000,
            "p99_us": self.latency.p99() / 1000,
            "p999_us": self.latency.percentile(99.9) / 1000,
            "goodput_kops": self.goodput_ops_per_sec(elapsed_seconds) / 1000,
            "slo_attainment": (
                self.within_slo / self.completed if self.completed else 0.0
            ),
            "hit_ratio": self.hit_ratio,
        }
