"""Trigger watermarks, copy-I/O token bucket, and stall accounting.

Each reclamation layer historically hard-wired *when* to collect (a free
watermark), *how hard* (a per-step pace), and *when to panic* (emergency
foreground collection).  :class:`ReclaimPacer` owns those three levers
behind one validated config so the bench can sweep them uniformly:

* ``background``/``target`` — reclaim starts when free containers drop
  below ``background`` and synchronous drains stop at ``target`` (the
  FTL's low/high watermark pair; layers that pace incrementally use
  ``target == background``).
* ``urgent`` — below this free level, background steps ignore the pace
  budget and run unbounded (disabled at -1, the bit-identical default).
* ``emergency`` — at or below this free level, victim acceptance ignores
  ``victim_valid_threshold`` so forward progress is guaranteed.
* ``pace_units`` — units migrated per background step (0 = unbounded).
* ``copy_tokens_per_step`` — optional token bucket on copy *bytes*: each
  step refills the bucket (which holds four refills) and migrations stop
  when it is dry, bounding GC bandwidth independently of unit count
  (0 = unlimited, the default).

On top of the static levers sits the optional :class:`AdaptivePacing`
controller (the GC↔QoS loop): AIMD on the observed foreground stall —
additive relax of ``pace_units``/``copy_tokens_per_step`` while stall
p99 is under the layer's ``stall_slo_ns`` budget, multiplicative clamp
when it is over — bounded by a floor/ceiling derived from the static
config.  With no controller attached the pacer is exactly the static
one, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.reclaim.config import (
    ensure_at_least,
    ensure_between,
    ensure_fraction,
)
from repro.sim.stats import LatencyRecorder


@dataclass(frozen=True)
class AdaptivePacingConfig:
    """AIMD shape for the adaptive reclaim-pacing controller.

    ``stall_slo_ns`` is the layer's foreground-stall budget (typically a
    fraction of the tenant latency SLO the fleet serves under).  Every
    ``interval_steps`` background steps the controller compares the
    windowed stall p99 against it: under budget, ``pace_units`` grows by
    ``increase_units`` (and the copy-token refill by an eighth of its
    static value); over budget, both are cut by ``decrease_factor``.
    The runtime values stay inside [max(1, static/``max_scale``), static
    × ``max_scale``] so a misbehaving signal can never wedge or unleash
    reclamation entirely.  An interval with no stall samples counts as
    under budget.
    """

    stall_slo_ns: int
    interval_steps: int = 32
    increase_units: int = 1
    decrease_factor: float = 0.5
    max_scale: int = 4

    def __post_init__(self) -> None:
        ensure_at_least("stall_slo_ns", self.stall_slo_ns, 1)
        ensure_at_least("interval_steps", self.interval_steps, 1)
        ensure_at_least("increase_units", self.increase_units, 1)
        ensure_between("decrease_factor", self.decrease_factor, 0.01, 0.99)
        ensure_at_least("max_scale", self.max_scale, 1)


@dataclass(frozen=True)
class PacerConfig:
    """Watermark + pacing knobs; defaults are neutral (no throttling)."""

    background: int = 2
    target: int = 2
    urgent: int = -1
    emergency: int = 0
    victim_valid_threshold: float = 1.0
    pace_units: int = 0
    copy_tokens_per_step: int = 0
    adaptive: Optional[AdaptivePacingConfig] = None

    def __post_init__(self) -> None:
        ensure_at_least("background", self.background, 1)
        ensure_at_least("target", self.target, self.background)
        ensure_at_least("urgent", self.urgent, -1)
        ensure_between("emergency", self.emergency, 0, self.background)
        ensure_fraction("victim_valid_threshold", self.victim_valid_threshold)
        ensure_at_least("pace_units", self.pace_units, 0)
        ensure_at_least("copy_tokens_per_step", self.copy_tokens_per_step, 0)


class ReclaimPacer:
    """Runtime side of :class:`PacerConfig`: bucket state + stall stats.

    ``pace_units`` and ``copy_tokens_per_step`` are *runtime* copies of
    the static config; with an :class:`AdaptivePacingConfig` attached
    (at construction, via the config, or later through
    :meth:`enable_adaptive`) the AIMD controller moves them between
    adjustment intervals.  Without one they never change.
    """

    def __init__(
        self,
        config: PacerConfig,
        adaptive: Optional[AdaptivePacingConfig] = None,
    ) -> None:
        self.config = config
        # The copy-token bucket holds four refills.
        self._bucket_cap = 4 * config.copy_tokens_per_step
        self._tokens = self._bucket_cap
        # Adaptive-pacing runtime values (static unless a controller runs).
        self.pace_units = config.pace_units
        self.copy_tokens_per_step = config.copy_tokens_per_step
        self.adaptive = adaptive if adaptive is not None else config.adaptive
        self._steps_since_adjust = 0
        # Distinct steps that hit the copy budget vs raw per-unit
        # rejections (one throttled step rejects every remaining unit).
        self.throttled_steps = 0
        self.copy_throttle_events = 0
        self._step_throttled = False
        # AIMD telemetry: decisions taken and how many were clamps.
        self.pace_adjustments = 0
        self.pace_clamps = 0
        # Foreground-stall accounting: wall time (ns) host operations
        # spent blocked on reclamation, windowed per adjustment interval.
        self.stall = LatencyRecorder("reclaim_stall")

    # --- watermark decisions -----------------------------------------------------

    def should_trigger(self, free_units: int) -> bool:
        return free_units < self.config.background

    def reached_target(self, free_units: int) -> bool:
        return free_units >= self.config.target

    def accepts(self, valid_fraction: float, free_units: int) -> bool:
        """Is this victim worth taking at the current free level?

        Above the emergency level only victims under the valid-data
        threshold qualify — deferring lets invalidations keep
        concentrating in old containers, which is what keeps WA low.
        """
        if valid_fraction <= self.config.victim_valid_threshold:
            return True
        return free_units <= self.config.emergency

    def level(self, free_units: int) -> str:
        """Pressure level name for telemetry: idle/background/urgent/emergency."""
        if free_units <= self.config.emergency:
            return "emergency"
        if 0 <= self.config.urgent and free_units <= self.config.urgent:
            return "urgent"
        if free_units < self.config.background:
            return "background"
        return "idle"

    # --- per-step budgets ---------------------------------------------------------

    def step_budget(self, free_units: int) -> Optional[int]:
        """Units this background step may process (None = unbounded)."""
        if self.pace_units <= 0:
            return None
        if 0 <= self.config.urgent and free_units <= self.config.urgent:
            return None
        return self.pace_units

    def refill(self) -> None:
        self._step_throttled = False
        if self.copy_tokens_per_step > 0:
            self._tokens = min(
                self._bucket_cap, self._tokens + self.copy_tokens_per_step
            )

    def try_reserve(self, nbytes: int) -> bool:
        """May a migration of ``nbytes`` proceed under the copy budget?

        A unit larger than the whole bucket is granted whenever the
        bucket is full — the balance goes negative and is paid back by
        later refills — so an oversized migration unit throttles the
        *rate* of reclamation instead of wedging it forever.
        """
        if self.copy_tokens_per_step <= 0:
            return True
        if self._tokens >= nbytes or self._tokens >= self._bucket_cap:
            return True
        self.copy_throttle_events += 1
        if not self._step_throttled:
            self._step_throttled = True
            self.throttled_steps += 1
        return False

    def spend(self, nbytes: int) -> None:
        if self.copy_tokens_per_step > 0:
            self._tokens -= nbytes

    @property
    def copy_tokens(self) -> int:
        return self._tokens

    @property
    def bucket_cap(self) -> int:
        return self._bucket_cap

    # --- adaptive control ---------------------------------------------------------

    def enable_adaptive(self, adaptive: AdaptivePacingConfig) -> None:
        """Attach (or replace) the AIMD controller at runtime."""
        self.adaptive = adaptive
        self._steps_since_adjust = 0

    def observe_step(self) -> None:
        """Controller hook the engine calls once per background step.

        Every ``interval_steps`` calls, the windowed foreground-stall p99
        is compared against the SLO budget and the runtime pace is
        adjusted; the window then resets so the controller tracks the
        *current* interference regime, not the whole run.
        """
        if self.adaptive is None:
            return
        self._steps_since_adjust += 1
        if self._steps_since_adjust < self.adaptive.interval_steps:
            return
        self._steps_since_adjust = 0
        stall = self.stall
        over = stall.count > 0 and stall.p99() > self.adaptive.stall_slo_ns
        self._adjust(over)
        stall.reset()

    def _adjust(self, over_budget: bool) -> None:
        adaptive = self.adaptive
        assert adaptive is not None
        self.pace_adjustments += 1
        if over_budget:
            self.pace_clamps += 1
        static_pace = self.config.pace_units
        if static_pace > 0:
            floor = max(1, static_pace // adaptive.max_scale)
            ceiling = static_pace * adaptive.max_scale
            if over_budget:
                self.pace_units = max(
                    floor, int(self.pace_units * adaptive.decrease_factor)
                )
            else:
                self.pace_units = min(
                    ceiling, self.pace_units + adaptive.increase_units
                )
        static_tokens = self.config.copy_tokens_per_step
        if static_tokens > 0:
            floor = max(1, static_tokens // adaptive.max_scale)
            # Refilling more than the bucket holds is meaningless, so the
            # cap doubles as the refill ceiling.
            ceiling = min(self._bucket_cap, static_tokens * adaptive.max_scale)
            if over_budget:
                self.copy_tokens_per_step = max(
                    floor,
                    int(self.copy_tokens_per_step * adaptive.decrease_factor),
                )
            else:
                self.copy_tokens_per_step = min(
                    ceiling,
                    self.copy_tokens_per_step + max(1, static_tokens // 8),
                )
