"""Fleet replication & failover: survive shard loss while serving.

The fault injector (PR 2) can power-cut a whole shard; the ring (PR 3)
already computes R-way successor lists (`ConsistentHashRing.nodes_for`)
that nothing consumed.  This module closes that gap with the primitives
a replicated fleet needs:

* :class:`ReplicationConfig` — R-way successor replication on writes
  (primary + R−1 replicas in ring order), read fallback, read-repair,
  hinted handoff, and the failure-detection thresholds.
* Shard **health states** (``UP → SUSPECT → DOWN → RESYNCING → UP``):
  failed requests and probe timeouts move a shard from UP through
  SUSPECT to DOWN; power restoration runs ``crash_recover`` and enters
  RESYNCING while hinted writes replay; draining the hint queue returns
  it to UP.  The machine deliberately only *declares* state — routing
  reads it, the fault injector drives it — so detection latency (the
  window where a dead shard is still being sent requests) is simulated,
  not assumed away.
* :class:`HintJournal` — the bounded per-shard buffer of writes owed to
  a DOWN shard.  Hints replay through the normal write path at recovery
  so GC and zone-management costs are charged, exactly as a production
  handoff queue drains through the storage engine.
* :class:`ShardKill` / :class:`FailoverPlan` — the scripted fault
  schedule a serving run executes (kill shard *i* at *t*, restore power
  after the outage), mirroring the PR 2 ``FaultInjector`` power-cut
  shape at fleet scope.
* :class:`FleetStats` — phase-aware accounting (steady / storm /
  recovered) for availability, p99 during the storm, and the hit-ratio
  recovery slope the failover sweep reports as ``fleet_*`` columns.

Everything is deterministic: the kill schedule is explicit virtual
time, probes are fixed-interval events on the serving run-list, and the
journals are FIFO — the same configs produce byte-identical reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.sim.rng import make_rng
from repro.sim.stats import LatencyRecorder
from repro.units import MSEC

# Shard health states, in the order the state machine visits them.
HEALTH_UP = "up"
HEALTH_SUSPECT = "suspect"
HEALTH_DOWN = "down"
HEALTH_RESYNCING = "resyncing"

HEALTH_STATES = (HEALTH_UP, HEALTH_SUSPECT, HEALTH_DOWN, HEALTH_RESYNCING)

# Serving phases FleetStats buckets completions into.
PHASE_STEADY = "steady"
PHASE_STORM = "storm"
PHASE_RECOVERED = "recovered"


@dataclass(frozen=True)
class ReplicationConfig:
    """Fleet replication + failure-detection knobs.

    ``replicas`` counts the primary: 1 (the default) is the PR 3
    behavior — no replica writes, no fallback, every existing golden
    bit-identical.  With R > 1 each write lands on the primary and fans
    out to the next R−1 *distinct* ring successors; reads stay on the
    primary while it is healthy and fall back along the same successor
    list when it is not.

    Failure detection is counted in failures, not wall time, so it
    composes with virtual time: a shard is SUSPECT after
    ``suspect_after_failures`` consecutive failures and DOWN after
    ``down_after_failures``.  Probes (every ``probe_interval_ms``) poke
    dead shards so detection happens even when no tenant traffic is
    homed there.
    """

    replicas: int = 1
    # Bounded hint journal per shard (entries).  Overflow drops the
    # oldest hint (counted) — a production handoff queue is finite too.
    hint_limit: int = 4096
    probe_interval_ms: float = 0.5
    suspect_after_failures: int = 1
    down_after_failures: int = 3
    # Record every acknowledged write (key -> value history) so tests
    # can assert no torn/stale reads after hint replay.  Off by default:
    # it is an oracle, not a serving feature.
    track_writes: bool = False

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.hint_limit < 1:
            raise ConfigError(f"hint_limit must be >= 1, got {self.hint_limit}")
        if self.probe_interval_ms <= 0:
            raise ConfigError(
                f"probe_interval_ms must be positive, got {self.probe_interval_ms}"
            )
        if self.suspect_after_failures < 1:
            raise ConfigError(
                "suspect_after_failures must be >= 1, "
                f"got {self.suspect_after_failures}"
            )
        if self.down_after_failures < self.suspect_after_failures:
            raise ConfigError(
                "down_after_failures must be >= suspect_after_failures, "
                f"got {self.down_after_failures} < {self.suspect_after_failures}"
            )

    @property
    def probe_interval_ns(self) -> int:
        return int(self.probe_interval_ms * MSEC)


@dataclass(frozen=True)
class ShardKill:
    """One scripted shard power cut: lights out at ``at_ns``, power back
    after ``outage_ns``.  DRAM and queued requests are lost; flash
    survives and ``crash_recover`` rebuilds from it."""

    at_ns: int
    shard: int
    outage_ns: int

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ConfigError(f"at_ns must be >= 0, got {self.at_ns}")
        if self.shard < 0:
            raise ConfigError(f"shard must be >= 0, got {self.shard}")
        if self.outage_ns <= 0:
            raise ConfigError(f"outage_ns must be positive, got {self.outage_ns}")


@dataclass(frozen=True)
class FailoverPlan:
    """The fault schedule one serving run executes.

    An empty plan still arms replication (health machinery, fleet
    row, replica-set routing — useful for equivalence tests); a ``None``
    plan with R=1 leaves it unarmed.
    """

    kills: Tuple[ShardKill, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kills", tuple(self.kills))

    def first_kill_ns(self) -> Optional[int]:
        if not self.kills:
            return None
        return min(kill.at_ns for kill in self.kills)

    @classmethod
    def random(
        cls,
        num_shards: int,
        duration_ns: int,
        kills: int = 1,
        seed: int = 0,
        window: Tuple[float, float] = (0.2, 0.6),
        outage_fraction: float = 0.15,
    ) -> "FailoverPlan":
        """Draw a kill schedule from the fault injector's RNG family.

        ``kills`` distinct shards are power-cut at times drawn uniformly
        from ``window`` (as fractions of ``duration_ns``), each staying
        dark for ``outage_fraction`` of the run.  Deterministic under
        ``seed``: the RNG stream is decorrelated the same way the fault
        injector's per-fault streams are, so plans never perturb — and
        are never perturbed by — workload or device draws.
        """
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if duration_ns <= 0:
            raise ConfigError(f"duration_ns must be positive, got {duration_ns}")
        if not 0 < kills <= num_shards:
            raise ConfigError(
                f"kills must be in [1, {num_shards}], got {kills}"
            )
        lo, hi = window
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError(f"window must satisfy 0 <= lo < hi <= 1, got {window}")
        if not 0.0 < outage_fraction < 1.0:
            raise ConfigError(
                f"outage_fraction must be in (0, 1), got {outage_fraction}"
            )
        rng = make_rng(seed, "fault.failover.plan")
        pool = list(range(num_shards))
        outage_ns = max(1, int(duration_ns * outage_fraction))
        drawn = []
        for _ in range(kills):
            shard = pool.pop(rng.randrange(len(pool)))
            at_ns = int(duration_ns * (lo + (hi - lo) * rng.random()))
            drawn.append(ShardKill(at_ns=at_ns, shard=shard, outage_ns=outage_ns))
        drawn.sort(key=lambda kill: (kill.at_ns, kill.shard))
        return cls(kills=tuple(drawn))


class HintJournal:
    """Bounded FIFO of writes owed to a DOWN shard.

    Each entry is ``(kind, key, value)`` with ``kind`` a cachebench
    ``KIND_*`` int (value ``None`` for deletes).  The bound models a
    finite handoff queue: overflow drops the *oldest* hint (the one a
    later hint for the same key most likely supersedes) and counts the
    drop, so the sweep can report hint-journal pressure honestly.

    Read-repair hints are weaker than write hints — they carry a value
    observed on a fallback replica, not a new client write — so
    :meth:`append_repair` refuses keys that already hold a write hint:
    replaying an old repaired value *after* a newer hinted write would
    resurrect stale data.
    """

    __slots__ = ("limit", "appended", "dropped", "bytes", "_entries", "_written_keys")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigError(f"hint journal limit must be >= 1, got {limit}")
        self.limit = limit
        self.appended = 0
        self.dropped = 0
        self.bytes = 0
        self._entries: Deque[Tuple[int, bytes, Optional[bytes]]] = deque()
        self._written_keys: Set[bytes] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, kind: int, key: bytes, value: Optional[bytes]) -> bool:
        """Journal a write hint; returns False when the bound forced a drop."""
        self.appended += 1
        self.bytes += len(value) if value is not None else 0
        self._entries.append((kind, key, value))
        self._written_keys.add(key)
        if len(self._entries) > self.limit:
            self._entries.popleft()
            self.dropped += 1
            return False
        return True

    def append_repair(self, kind: int, key: bytes, value: Optional[bytes]) -> bool:
        """Journal a read-repair hint unless a write hint supersedes it."""
        if key in self._written_keys:
            return False
        return self.append(kind, key, value)

    def drain(self) -> List[Tuple[int, bytes, Optional[bytes]]]:
        """Hand the buffered hints (FIFO order) to the replay path."""
        entries = list(self._entries)
        self._entries.clear()
        self._written_keys.clear()
        return entries


class FleetStats:
    """Phase-aware fleet accounting for one failover run.

    Completions are bucketed by the fleet's health *at completion time*:
    ``steady`` before the first kill, ``storm`` while any shard is dead
    or not yet back to UP, ``recovered`` once every shard is UP again.
    The steady-phase hit ratio ignores completions before ``warmup_ns``
    (half the lead-in to the first kill) so cold-start misses don't
    flatter the recovery comparison.
    """

    def __init__(self, warmup_ns: int = 0) -> None:
        self.warmup_ns = warmup_ns
        self.storm_latency = LatencyRecorder("fleet.storm")
        self.failed: Dict[str, int] = {
            PHASE_STEADY: 0,
            PHASE_STORM: 0,
            PHASE_RECOVERED: 0,
        }
        self._gets: Dict[str, int] = {
            PHASE_STEADY: 0,
            PHASE_STORM: 0,
            PHASE_RECOVERED: 0,
        }
        self._hits: Dict[str, int] = {
            PHASE_STEADY: 0,
            PHASE_STORM: 0,
            PHASE_RECOVERED: 0,
        }
        self.fallback_reads = 0
        self.read_repairs = 0
        self.first_kill_ns: Optional[int] = None
        self.recovered_at_ns: Optional[int] = None

    def note_completion(
        self, phase: str, latency_ns: int, is_get: bool, hit: bool, now_ns: int
    ) -> None:
        if phase == PHASE_STORM:
            self.storm_latency.record(latency_ns)
        if is_get and (phase != PHASE_STEADY or now_ns >= self.warmup_ns):
            self._gets[phase] += 1
            if hit:
                self._hits[phase] += 1

    def note_failed(self, phase: str) -> None:
        self.failed[phase] += 1

    def note_kill(self, now_ns: int) -> None:
        if self.first_kill_ns is None:
            self.first_kill_ns = now_ns

    def note_all_up(self, now_ns: int) -> None:
        # Overwrite on every return-to-all-UP so sequential storms leave
        # the *last* recovery timestamp.
        self.recovered_at_ns = now_ns

    def hit_ratio(self, phase: str) -> float:
        gets = self._gets[phase]
        if gets == 0:
            return 0.0
        return self._hits[phase] / gets

    def total_failed(self) -> int:
        return sum(self.failed.values())

    def recovery_ms(self) -> float:
        if self.first_kill_ns is None or self.recovered_at_ns is None:
            return 0.0
        return (self.recovered_at_ns - self.first_kill_ns) / MSEC
