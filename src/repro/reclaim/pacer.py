"""Trigger watermarks, per-step pacing, and stall accounting.

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

On top of the static levers sits the optional adaptive controller (the
GC↔QoS loop, armed by :meth:`ReclaimPacer.enable_adaptive`): AIMD on the
observed foreground stall — additive relax of ``pace_units`` while stall
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


# The adaptive controller's AIMD shape.  Every ADAPTIVE_INTERVAL_STEPS
# background steps it compares the windowed stall p99 against the
# budget: under it, ``pace_units`` grows by ADAPTIVE_INCREASE_UNITS; over
# it, it is cut by ADAPTIVE_DECREASE_FACTOR.  The runtime value stays inside
# [max(1, static / ADAPTIVE_MAX_SCALE), static × ADAPTIVE_MAX_SCALE], so a
# misbehaving signal can never wedge or unleash reclamation entirely.
# An interval with no stall samples counts as under budget.
ADAPTIVE_INTERVAL_STEPS = 16
ADAPTIVE_INCREASE_UNITS = 1
ADAPTIVE_DECREASE_FACTOR = 0.5
ADAPTIVE_MAX_SCALE = 4


@dataclass(frozen=True)
class PacerConfig:
    """Watermark + pacing knobs; defaults are neutral (no throttling)."""

    background: int = 2
    target: int = 2
    urgent: int = -1
    emergency: int = 0
    victim_valid_threshold: float = 1.0
    pace_units: int = 0

    def __post_init__(self) -> None:
        ensure_at_least("background", self.background, 1)
        ensure_at_least("target", self.target, self.background)
        ensure_at_least("urgent", self.urgent, -1)
        ensure_between("emergency", self.emergency, 0, self.background)
        ensure_fraction("victim_valid_threshold", self.victim_valid_threshold)
        ensure_at_least("pace_units", self.pace_units, 0)


class ReclaimPacer:
    """Runtime side of :class:`PacerConfig`: pace + stall stats.

    ``pace_units`` is a *runtime* copy of the static config; once
    :meth:`enable_adaptive` attaches the AIMD controller it moves
    between adjustment intervals; without the controller it never
    changes.
    """

    def __init__(self, config: PacerConfig) -> None:
        self.config = config
        # Adaptive-pacing runtime value (static unless a controller runs).
        self.pace_units = config.pace_units
        # Foreground-stall budget of the adaptive controller (None = static).
        self.stall_slo_ns: Optional[int] = None
        self._steps_since_adjust = 0
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

    # --- adaptive control ---------------------------------------------------------

    def enable_adaptive(self, stall_slo_ns: int) -> None:
        """Attach (or re-budget) the AIMD controller at runtime.

        ``stall_slo_ns`` is the layer's foreground-stall budget, typically
        a fraction of the tenant latency SLO the fleet serves under.
        """
        ensure_at_least("stall_slo_ns", stall_slo_ns, 1)
        self.stall_slo_ns = stall_slo_ns
        self._steps_since_adjust = 0

    def observe_step(self) -> None:
        """Controller hook the engine calls once per background step.

        Every :data:`ADAPTIVE_INTERVAL_STEPS` calls, the windowed
        foreground-stall p99 is compared against the SLO budget and the
        runtime pace is adjusted; the window then resets so the
        controller tracks the *current* interference regime, not the
        whole run.
        """
        if self.stall_slo_ns is None:
            return
        self._steps_since_adjust += 1
        if self._steps_since_adjust < ADAPTIVE_INTERVAL_STEPS:
            return
        self._steps_since_adjust = 0
        stall = self.stall
        over = stall.count > 0 and stall.p99() > self.stall_slo_ns
        self._adjust(over)
        stall.reset()

    def _adjust(self, over_budget: bool) -> None:
        self.pace_adjustments += 1
        if over_budget:
            self.pace_clamps += 1
        static_pace = self.config.pace_units
        if static_pace > 0:
            floor = max(1, static_pace // ADAPTIVE_MAX_SCALE)
            ceiling = static_pace * ADAPTIVE_MAX_SCALE
            if over_budget:
                self.pace_units = max(
                    floor, int(self.pace_units * ADAPTIVE_DECREASE_FACTOR)
                )
            else:
                self.pace_units = min(
                    ceiling, self.pace_units + ADAPTIVE_INCREASE_UNITS
                )
