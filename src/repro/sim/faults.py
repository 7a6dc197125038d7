"""Seeded, deterministic fault injection on the unified I/O pipeline.

The :class:`FaultInjector` hooks :class:`repro.sim.io.IoPipeline`'s
one charge routine (``IoPipeline.inject``, which every device command
passes through before it changes device state) and can

* fail individual requests with typed errors (``TransientMediaError``,
  ``AppendFailedError``, ``ZoneResourceError``) via probability rules,
* inject latency spikes on matching requests,
* flip a ZNS zone to READ-ONLY or OFFLINE at a scheduled sim instant
  (devices poll :meth:`due_zone_faults` on entry to their public ops),
* simulate a power cut at an arbitrary sim-clock instant, tearing the
  write in flight at the cut (:meth:`torn_write_bytes`) and failing all
  subsequent I/O with :class:`PowerCutError` until
  :meth:`restore_power` is called.

Determinism: every rule owns an independent RNG stream derived from
``make_rng(seed, "fault.<i>.<kind>")``, so two runs with the same seed
and the same fault plan produce bit-identical error sequences and
traces regardless of how other seeded components draw.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    AppendFailedError,
    ConfigError,
    PowerCutError,
    TransientMediaError,
    ZoneResourceError,
)
from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (io imports us)
    from repro.sim.clock import SimClock
    from repro.sim.io import IoRequest, IoTracer


class FaultKind(enum.Enum):
    """What a :class:`FaultRule` or zone event does when it fires."""

    MEDIA_ERROR = "media_error"  # raise TransientMediaError
    APPEND_ERROR = "append_error"  # raise AppendFailedError (append ops only)
    ZONE_RESOURCE = "zone_resource"  # raise ZoneResourceError
    LATENCY = "latency"  # add extra_latency_ns to the service time
    ZONE_READONLY = "zone_readonly"  # scheduled zone-state flip
    ZONE_OFFLINE = "zone_offline"  # scheduled zone-state flip
    POWER_CUT = "power_cut"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Rule kinds evaluated per request at the gate (the rest are scheduled).
_REQUEST_KINDS = (
    FaultKind.MEDIA_ERROR,
    FaultKind.APPEND_ERROR,
    FaultKind.ZONE_RESOURCE,
    FaultKind.LATENCY,
)


@dataclass(frozen=True)
class FaultRule:
    """One probabilistic per-request fault.

    ``layer``/``pipeline`` are prefix matches (empty = match all);
    ``op`` matches the :class:`IoOp` value exactly (None = all ops).
    ``after_requests`` skips the first N matching requests and
    ``max_injections`` caps how many times the rule fires (0 = no cap).
    """

    kind: FaultKind
    probability: float = 1.0
    layer: str = ""
    op: Optional[str] = None
    pipeline: str = ""
    zone: Optional[int] = None
    after_requests: int = 0
    max_injections: int = 0
    extra_latency_ns: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _REQUEST_KINDS:
            raise ConfigError(
                f"rule kind must be a per-request fault, got {self.kind}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")
        if self.kind is FaultKind.LATENCY and self.extra_latency_ns <= 0:
            raise ConfigError("LATENCY rules need extra_latency_ns > 0")
        if self.extra_latency_ns < 0:
            raise ConfigError("extra_latency_ns must be >= 0")
        if self.after_requests < 0 or self.max_injections < 0:
            raise ConfigError("after_requests/max_injections must be >= 0")


@dataclass(frozen=True)
class ZoneFault:
    """Scheduled zone-state flip: at ``at_ns`` the zone dies."""

    at_ns: int
    zone_index: int
    kind: FaultKind = FaultKind.ZONE_OFFLINE

    def __post_init__(self) -> None:
        if self.kind not in (FaultKind.ZONE_READONLY, FaultKind.ZONE_OFFLINE):
            raise ConfigError(f"zone fault kind must flip zone state, got {self.kind}")
        if self.at_ns < 0:
            raise ConfigError("at_ns must be >= 0")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff budget for :class:`RetryableError` handling."""

    max_attempts: int = 3
    backoff_ns: int = 200_000
    multiplier: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_ns < 0 or self.multiplier < 1:
            raise ConfigError("backoff_ns >= 0 and multiplier >= 1 required")

    def backoff_for(self, attempt: int) -> int:
        """Delay before retry number ``attempt`` (0-based)."""
        return self.backoff_ns * self.multiplier**attempt


@dataclass
class FaultStats:
    """What the injector actually did, by kind."""

    injected: Dict[str, int] = field(default_factory=dict)
    latency_injected_ns: int = 0
    zone_faults_applied: int = 0
    torn_writes: int = 0
    torn_bytes_dropped: int = 0
    power_cuts: int = 0

    @property
    def total_injected(self) -> int:
        return (
            sum(self.injected.values())
            + self.zone_faults_applied
            + self.power_cuts
        )

    def count(self, kind: FaultKind) -> int:
        return self.injected.get(kind.value, 0)


class _RuleState:
    """Mutable per-rule counters + private RNG stream."""

    __slots__ = ("seen", "fired", "rng")

    def __init__(self, seed: int, index: int, rule: FaultRule) -> None:
        self.seen = 0
        self.fired = 0
        self.rng = make_rng(seed, f"fault.{index}.{rule.kind.value}")


class FaultInjector:
    """Deterministic fault source shared by every pipeline in a stack.

    Construct with a fault plan (rules, zone faults, power-cut instant),
    hand the instance to the device builders; each ``IoPipeline`` binds
    it to the clock/tracer and consults :meth:`inspect` before any
    device state changes — so a failed request can always be retried
    without tripping over a half-applied write.
    """

    def __init__(
        self,
        seed: int = 0,
        rules: Iterable[FaultRule] = (),
        zone_faults: Iterable[ZoneFault] = (),
        power_cut_at_ns: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.zone_faults: List[ZoneFault] = sorted(
            zone_faults, key=lambda fault: (fault.at_ns, fault.zone_index)
        )
        self.power_cut_at_ns = power_cut_at_ns
        self.enabled = True
        self.tripped = False  # power already cut
        self.stats = FaultStats()
        self._states = [
            _RuleState(seed, i, rule) for i, rule in enumerate(self.rules)
        ]
        self._zone_cursor = 0
        self._clock: Optional["SimClock"] = None
        self._tracer: Optional["IoTracer"] = None

    # --- wiring ---------------------------------------------------------------

    def bind(self, clock: "SimClock", tracer: Optional["IoTracer"]) -> None:
        """Attach clock and tracer (first binding wins, like IoTracer)."""
        if self._clock is None:
            self._clock = clock
        if self._tracer is None and tracer is not None:
            self._tracer = tracer

    def enable(self) -> "FaultInjector":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    @property
    def now(self) -> int:
        return self._clock.now if self._clock is not None else 0

    # --- the gate -------------------------------------------------------------

    def inspect(
        self, pipeline_name: str, request: "IoRequest", service_ns: int
    ) -> int:
        """Evaluate the fault plan against one request.

        Returns extra latency to add to the service time; raises the
        typed error of the first error rule that fires.  Called by
        ``IoPipeline.inject`` *before* the owning device mutates any
        state for the request, so raising here is always safe to retry.
        """
        if not self.enabled:
            return 0
        if self.power_cut_at_ns is not None and (
            self.tripped or self.now >= self.power_cut_at_ns
        ):
            self.trip_power()
        extra = 0
        for rule, state in zip(self.rules, self._states):
            if not self._matches(rule, pipeline_name, request):
                continue
            state.seen += 1
            if state.seen <= rule.after_requests:
                continue
            if rule.max_injections and state.fired >= rule.max_injections:
                continue
            if rule.probability < 1.0 and state.rng.random() >= rule.probability:
                continue
            state.fired += 1
            kind = rule.kind
            self.stats.injected[kind.value] = self.stats.injected.get(kind.value, 0) + 1
            self._emit(f"inject.{kind.value}", request.offset, request.length,
                       request.zone)
            if kind is FaultKind.LATENCY:
                extra += rule.extra_latency_ns
                self.stats.latency_injected_ns += rule.extra_latency_ns
                continue
            if kind is FaultKind.MEDIA_ERROR:
                raise TransientMediaError(
                    f"injected media error on {pipeline_name} "
                    f"{request.op.value}@{request.offset}"
                )
            if kind is FaultKind.APPEND_ERROR:
                raise AppendFailedError(
                    f"injected append failure on {pipeline_name} "
                    f"zone {request.zone}"
                )
            raise ZoneResourceError(
                f"injected open-resource exhaustion on {pipeline_name}"
            )
        return extra

    @staticmethod
    def _matches(
        rule: FaultRule, pipeline_name: str, request: "IoRequest"
    ) -> bool:
        if rule.kind is FaultKind.APPEND_ERROR and request.op.value != "append":
            return False
        if rule.pipeline and not pipeline_name.startswith(rule.pipeline):
            return False
        if rule.layer and not request.layer.startswith(rule.layer):
            return False
        if rule.op is not None and request.op.value != rule.op:
            return False
        if rule.zone is not None and request.zone != rule.zone:
            return False
        return True

    # --- zone faults ----------------------------------------------------------

    def due_zone_faults(self, now_ns: int) -> List[ZoneFault]:
        """Scheduled zone flips that have come due; consumed once."""
        if not self.enabled:
            return []
        due: List[ZoneFault] = []
        while (
            self._zone_cursor < len(self.zone_faults)
            and self.zone_faults[self._zone_cursor].at_ns <= now_ns
        ):
            due.append(self.zone_faults[self._zone_cursor])
            self._zone_cursor += 1
        return due

    def note_zone_fault(self, fault: ZoneFault) -> None:
        """Device callback: the zone flip was applied to real zone state."""
        self.stats.zone_faults_applied += 1
        self._emit(f"inject.{fault.kind.value}", 0, 0, fault.zone_index)

    # --- power cut ------------------------------------------------------------

    def torn_write_bytes(
        self, now_ns: int, service_ns: int, length: int, align: int
    ) -> Optional[int]:
        """Bytes of a write that persist if the cut lands in its window.

        Returns None when the write is unaffected; otherwise the number
        of bytes (floored to ``align``) that reached the media before
        the lights went out.  The caller stores that prefix, then calls
        :meth:`trip_power` — which raises :class:`PowerCutError`.
        """
        if not self.enabled or self.power_cut_at_ns is None or self.tripped:
            return None
        if now_ns >= self.power_cut_at_ns:
            return 0
        if service_ns <= 0 or now_ns + service_ns <= self.power_cut_at_ns:
            return None
        fraction = (self.power_cut_at_ns - now_ns) / service_ns
        keep = int(length * fraction) // align * align
        self.stats.torn_writes += 1
        self.stats.torn_bytes_dropped += length - keep
        return keep

    def trip_power(self) -> None:
        """Cut the power: advance the clock to the cut instant (if it is
        still in the future) and raise :class:`PowerCutError`.  Every
        later :meth:`inspect` re-raises until :meth:`restore_power`."""
        if not self.tripped:
            self.tripped = True
            self.stats.power_cuts += 1
            if (
                self._clock is not None
                and self.power_cut_at_ns is not None
                and self._clock.now < self.power_cut_at_ns
            ):
                self._clock.advance_to(self.power_cut_at_ns)
            self._emit("inject.power_cut", 0, 0, None)
        raise PowerCutError(
            f"power lost at {self.power_cut_at_ns} ns (simulated)"
        )

    def restore_power(self) -> None:
        """Bring the device back so crash recovery can run."""
        self.tripped = False
        self.power_cut_at_ns = None

    # --- tracing --------------------------------------------------------------

    def _emit(
        self, op: str, offset: int, length: int, zone: Optional[int]
    ) -> None:
        if self._tracer is not None:
            self._tracer.emit_event("faults", op, offset, length, zone)

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, rules={len(self.rules)}, "
            f"zone_faults={len(self.zone_faults)}, "
            f"power_cut_at_ns={self.power_cut_at_ns}, "
            f"injected={self.stats.total_injected})"
        )
