"""Unified reclamation framework: one GC engine, four layers.

``repro.reclaim`` factors the garbage-collection machinery that was
previously quadruplicated across the FTL (:mod:`repro.flash.ftl`), the
zone translation layer (:mod:`repro.ztl.gc`), the F2FS cleaner
(:mod:`repro.f2fs.gc`), and cache region reclamation
(:mod:`repro.cache.region_manager`) into one engine with three
pluggable parts:

* :class:`VictimPolicy` — how to score candidates (greedy,
  cost-benefit, age-threshold, random baseline);
* :class:`ReclaimPacer` — when to trigger, how hard to copy, and when
  to panic (watermarks, per-step pace, copy-byte token bucket);
* :class:`ReclaimSource` — the thin per-layer adapter that exposes
  candidates and performs unit migration over the layer's own I/O path.

Every migrate/reset the engine performs is wrapped in a
``reclaim.<layer>`` span on the shared :class:`~repro.sim.io.IoTracer`,
so reclamation traffic is attributable end to end through the
IoPipeline just like host traffic.
"""

from repro.reclaim.config import (
    ensure_at_least,
    ensure_between,
    ensure_choice,
    ensure_fraction,
)
from repro.reclaim.engine import (
    GcHints,
    ReclaimEngine,
    ReclaimSource,
    ReclaimStats,
    UnitOutcome,
)
from repro.reclaim.pacer import PacerConfig, ReclaimPacer
from repro.reclaim.policy import (
    POLICY_NAMES,
    AgeThresholdPolicy,
    ColdDeferPolicy,
    CostBenefitPolicy,
    GreedyPolicy,
    RandomPolicy,
    VictimPolicy,
    VictimView,
    first_dead,
    make_victim_policy,
    view_of,
    windowed_draw,
)

__all__ = [
    "AgeThresholdPolicy",
    "ColdDeferPolicy",
    "CostBenefitPolicy",
    "GcHints",
    "GreedyPolicy",
    "POLICY_NAMES",
    "PacerConfig",
    "RandomPolicy",
    "ReclaimEngine",
    "ReclaimPacer",
    "ReclaimSource",
    "ReclaimStats",
    "UnitOutcome",
    "VictimPolicy",
    "VictimView",
    "ensure_at_least",
    "ensure_between",
    "ensure_choice",
    "ensure_fraction",
    "first_dead",
    "make_victim_policy",
    "view_of",
    "windowed_draw",
]
