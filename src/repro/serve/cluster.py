"""Sharded cache cluster: N independent scheme stacks behind one ring.

Each shard is a complete :class:`~repro.bench.schemes.SchemeStack` — its
own device, translation stack, and :class:`HybridCache` — on its own
virtual clock, exactly as fleet machines own their SSDs.  Mixed fleets
are first-class: every shard names its scheme, so a cluster can run
Zone-Cache next to Block-Cache on matched NAND and the serving sweep can
compare them under identical tenant traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.bench.schemes import (
    ALL_SCHEME_NAMES,
    SchemeScale,
    SchemeStack,
    build_scheme,
)
from repro.errors import ConfigError
from repro.serve.hashing import ConsistentHashRing
from repro.serve.replication import (
    HEALTH_UP,
    HintJournal,
    ReplicationConfig,
)
from repro.sim.clock import SimClock
from repro.units import MIB, MSEC


# Pressure bands in escalation order; the routing policy compares ranks.
PRESSURE_RANK: Dict[str, int] = {
    "idle": 0,
    "background": 1,
    "urgent": 2,
    "emergency": 3,
}

ROUTING_POLICIES = ("static", "gc_aware")

# The gc_aware policy's shape: a write is diverted once its home shard is
# at REROUTE_LEVEL or above, to one of the next MAX_REROUTE_DISTANCE ring
# successors, scored by STALL_WEIGHT * gc_stall_us_p99 - HEADROOM_WEIGHT
# * free_units within a pressure rank.
MAX_REROUTE_DISTANCE = 2
REROUTE_LEVEL = "urgent"
STALL_WEIGHT = 1.0
HEADROOM_WEIGHT = 1.0


@dataclass(frozen=True)
class RoutingConfig:
    """How the cluster steers traffic around reclamation pressure.

    ``static`` is the PR 3 behavior: every request follows the
    consistent-hash ring, period.  ``gc_aware`` keeps reads on the ring
    (a diverted read would just miss) but re-routes a *write* whose home
    shard is at or above :data:`REROUTE_LEVEL` to the ring successor with
    the *best pressure score* among those with strictly lower pressure,
    looking at most :data:`MAX_REROUTE_DISTANCE` successors ahead — the
    bound that keeps key affinity: a bounded walk means a later read's
    home shard and the write's landing shard stay within a known ring
    neighborhood.

    The score orders candidates first by pressure rank, then by
    ``STALL_WEIGHT * gc_stall_us_p99 - HEADROOM_WEIGHT * free_units``
    (lower is better): between two equally-pressured successors the
    write prefers the one that has stalled foreground traffic least and
    has the most reclamation headroom left.  Exact ties resolve to the
    nearest successor on the ring.
    """

    policy: str = "static"

    def __post_init__(self) -> None:
        if self.policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {self.policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )


@dataclass(frozen=True)
class ShardSpec:
    """Hardware + scheme shape of one shard."""

    scheme: str
    media_bytes: int
    cache_bytes: Optional[int] = None  # None → Zone-Cache caches it all
    file_media_bytes: Optional[int] = None
    cache_overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.scheme not in ALL_SCHEME_NAMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; expected one of {ALL_SCHEME_NAMES}"
            )
        if self.media_bytes <= 0:
            raise ConfigError("media_bytes must be positive")


class Shard:
    """One serving shard: a scheme stack plus its service-queue state.

    The shard is a serial server (one request in service at a time, as
    navy's per-region-buffer write path is): ``queue`` holds admitted
    requests waiting for service, ``busy`` marks an in-flight one.  The
    event loop in :mod:`repro.serve.server` owns the transitions.
    """

    def __init__(self, index: int, name: str, stack: SchemeStack) -> None:
        self.index = index
        self.name = name
        self.stack = stack
        # Building the stack costs simulated time (zone resets, formatting)
        # that varies per scheme; serving starts *after* that, so fleet
        # time 0 maps to this local clock value, not to local 0.
        self.epoch_ns = stack.clock.now
        # Tagged (tag, time_ns, kind, key, ...) items owned by the
        # serving loop: foreground request, replica write or hint replay.
        self.queue: Deque[tuple] = deque()
        self.busy = False
        self.served = 0
        self.shed_queue_full = 0
        self.busy_ns = 0
        # GC-aware routing accounting: writes this shard handed off
        # while under reclamation pressure / absorbed for a neighbor.
        self.rerouted_out = 0
        self.rerouted_in = 0
        # --- replication & failover state (repro.serve.replication) ---
        # `alive` is ground truth (the fault injector's view: power on or
        # off); `health` is the *declared* state routing acts on.  The
        # gap between them is detection latency, which the serving
        # loop simulates instead of assuming away.
        self.alive = True
        self.health = HEALTH_UP
        self.health_log: List[Tuple[int, str]] = []
        self.failures = 0
        self.hint_journal: Optional[HintJournal] = None
        self.hints_outstanding = 0
        self.replication_active = False
        self.repl_served = 0
        self.repl_bytes = 0
        self.repl_dropped = 0
        self.handoff_served = 0
        self.handoff_bytes = 0
        self.fallback_served = 0
        self.resync_ns = 0
        # Deferred post-completion work (replication fan-out / hint
        # bookkeeping) the serving loop runs when the _DONE event fires.
        self._done_action: Optional[tuple] = None

    @property
    def clock(self) -> SimClock:
        return self.stack.clock

    def pressure(self) -> Dict[str, object]:
        """Live reclamation pressure (see SchemeStack.reclaim_pressure)."""
        return self.stack.reclaim_pressure()

    def pressure_rank(self) -> int:
        return PRESSURE_RANK[self.pressure()["level"]]

    def to_local(self, fleet_ns: int) -> int:
        return self.epoch_ns + fleet_ns

    def to_fleet(self, local_ns: int) -> int:
        return local_ns - self.epoch_ns

    def utilization(self) -> float:
        elapsed = self.clock.now - self.epoch_ns
        if elapsed <= 0:
            return 0.0
        return self.busy_ns / elapsed

    def row(self) -> Dict[str, object]:
        """Rectangular per-shard summary row."""
        cache = self.stack.cache
        waf = cache.waf()
        pressure = self.pressure()
        row: Dict[str, object] = {
            "shard": self.name,
            "scheme": self.stack.name,
            "served": self.served,
            "shed_queue_full": self.shed_queue_full,
            "queue_depth_end": len(self.queue),
            "util": self.utilization(),
            "hit_ratio": cache.stats.hit_ratio,
            "waf_app": waf.app,
            "waf_device": waf.device,
            "cache_mib": cache.config.flash_bytes / MIB,
            "rerouted_out": self.rerouted_out,
            "rerouted_in": self.rerouted_in,
            "gc_level_end": pressure["level"],
            "gc_free_units_end": pressure["free_units"],
        }
        if self.replication_active:
            # Extra columns only when replication was armed, so the
            # PR 3–7 golden row shapes stay bit-identical at R=1.
            journal = self.hint_journal
            row.update(
                {
                    "health": self.health,
                    "failures": self.failures,
                    "repl_served": self.repl_served,
                    "repl_bytes": self.repl_bytes,
                    "repl_dropped": self.repl_dropped,
                    "handoff_served": self.handoff_served,
                    "handoff_bytes": self.handoff_bytes,
                    "hints_dropped": journal.dropped if journal else 0,
                    "fallback_served": self.fallback_served,
                    "resync_ms": self.resync_ns / MSEC,
                }
            )
        return row


class CacheCluster:
    """Shards + the consistent-hash ring that routes keys to them."""

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        scale: Optional[SchemeScale] = None,
        vnodes: int = 128,
        routing: Optional[RoutingConfig] = None,
        replication: Optional[ReplicationConfig] = None,
    ) -> None:
        if not specs:
            raise ConfigError("cluster needs at least one shard")
        self.scale = scale if scale is not None else SchemeScale()
        self.routing = routing if routing is not None else RoutingConfig()
        self.replication = (
            replication if replication is not None else ReplicationConfig()
        )
        if self.replication.replicas > len(specs):
            raise ConfigError(
                f"replicas ({self.replication.replicas}) cannot exceed the "
                f"number of shards ({len(specs)})"
            )
        if self.replication.replicas > 1 and self.routing.policy == "gc_aware":
            raise ConfigError(
                "replication (replicas > 1) cannot be combined with gc_aware "
                "routing: replica placement must stay ring-faithful so read "
                "fallback finds the copies"
            )
        self.shards: List[Shard] = []
        for index, spec in enumerate(specs):
            name = f"shard{index}"
            stack = build_scheme(
                spec.scheme,
                SimClock(),
                self.scale,
                spec.media_bytes,
                spec.cache_bytes,
                file_media_bytes=spec.file_media_bytes,
                **dict(spec.cache_overrides),
            )
            self.shards.append(Shard(index, name, stack))
        self._by_name = {shard.name: shard for shard in self.shards}
        self.ring = ConsistentHashRing([s.name for s in self.shards], vnodes=vnodes)
        # Ring lookups are pure functions of the (immutable) ring, so
        # the serving loop memoizes them per key: the hot keyspace is
        # small and every arrival would otherwise re-hash.
        self._home_cache: Dict[bytes, Shard] = {}
        self._successor_cache: Dict[bytes, Tuple[Shard, ...]] = {}
        self._replica_cache: Dict[bytes, Tuple[Shard, ...]] = {}
        for shard in self.shards:
            shard.hint_journal = HintJournal(self.replication.hint_limit)
            if self.replication.replicas > 1:
                shard.replication_active = True

    @classmethod
    def homogeneous(
        cls,
        scheme: str,
        num_shards: int,
        media_bytes: int,
        cache_bytes: Optional[int] = None,
        file_media_bytes: Optional[int] = None,
        scale: Optional[SchemeScale] = None,
        cache_overrides: Tuple[Tuple[str, object], ...] = (),
        vnodes: int = 128,
        routing: Optional[RoutingConfig] = None,
        replication: Optional[ReplicationConfig] = None,
    ) -> "CacheCluster":
        """The common case: N identical shards of one scheme."""
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        spec = ShardSpec(
            scheme=scheme,
            media_bytes=media_bytes,
            cache_bytes=cache_bytes,
            file_media_bytes=file_media_bytes,
            cache_overrides=cache_overrides,
        )
        return cls(
            [spec] * num_shards,
            scale=scale,
            vnodes=vnodes,
            routing=routing,
            replication=replication,
        )

    def shard_for(self, key: bytes) -> Shard:
        shard = self._home_cache.get(key)
        if shard is None:
            shard = self._by_name[self.ring.node_for(key)]
            self._home_cache[key] = shard
        return shard

    def replica_set(self, key: bytes) -> Tuple[Shard, ...]:
        """The R distinct shards owning ``key``: primary first, then the
        R−1 ring successors replica writes fan out to (memoized; the
        ring is immutable)."""
        cached = self._replica_cache.get(key)
        if cached is None:
            names = self.ring.nodes_for(key, self.replication.replicas)
            cached = tuple(self._by_name[name] for name in names)
            self._replica_cache[key] = cached
        return cached

    def successors_for(self, key: bytes) -> Tuple[Shard, ...]:
        """The (memoized) reroute candidates after ``key``'s home shard."""
        cached = self._successor_cache.get(key)
        if cached is None:
            names = self.ring.nodes_for(key, 1 + MAX_REROUTE_DISTANCE)
            cached = tuple(self._by_name[name] for name in names[1:])
            self._successor_cache[key] = cached
        return cached

    def route_for(self, key: bytes, is_write: bool) -> Tuple[Shard, Optional[Shard]]:
        """Serving shard for ``key``, plus the home shard when diverted.

        Returns ``(shard, None)`` for ring-faithful routing (always for
        reads and under the static policy).  Under ``gc_aware``, a write
        whose home shard is at/above :data:`REROUTE_LEVEL` lands on the
        best-scoring ring successor (within :data:`MAX_REROUTE_DISTANCE`)
        with strictly lower pressure, returned as ``(successor, home)``;
        if every nearby successor is just as pressured the write stays
        home.
        """
        home = self.shard_for(key)
        if not is_write or self.routing.policy != "gc_aware":
            return home, None
        return self.route_from_home(key, home)

    def route_from_home(
        self, key: bytes, home: Shard
    ) -> Tuple[Shard, Optional[Shard]]:
        """gc_aware write routing with the home shard already resolved."""
        home_rank = home.pressure_rank()
        if home_rank < PRESSURE_RANK[REROUTE_LEVEL]:
            return home, None
        best: Optional[Shard] = None
        best_score: Optional[Tuple[int, float]] = None
        for shard in self.successors_for(key):
            rank = shard.pressure_rank()
            if rank >= home_rank:
                continue
            pressure = shard.pressure()
            score = (
                rank,
                STALL_WEIGHT * pressure["gc_stall_us_p99"]
                - HEADROOM_WEIGHT * max(0, pressure["free_units"]),
            )
            # Strict < keeps ties on the nearest successor: candidates
            # iterate in ring order, so an equal score never displaces
            # an earlier (closer) winner.
            if best_score is None or score < best_score:
                best = shard
                best_score = score
        if best is None:
            return home, None
        home.rerouted_out += 1
        best.rerouted_in += 1
        return best, home

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def rows(self) -> List[Dict[str, object]]:
        return [shard.row() for shard in self.shards]

    def __repr__(self) -> str:
        schemes = {shard.stack.name for shard in self.shards}
        return f"CacheCluster(shards={len(self.shards)}, schemes={sorted(schemes)})"
