"""The shared garbage-collection engine all four layers run on.

One loop, four wearers: the FTL drains whole victim blocks inline with
a host write, the ZTL and the F2FS cleaner keep one victim "in
progress" and migrate a paced batch of units per background check, and
the cache evicts whole regions at allocation time.  The engine owns the
loop structure — victim selection through a :class:`~repro.reclaim.
policy.VictimPolicy`, trigger/budget decisions through a
:class:`~repro.reclaim.pacer.ReclaimPacer`, uniform counters in
:class:`ReclaimStats`, and ``reclaim.<layer>`` spans on the shared
:class:`~repro.sim.io.IoTracer` — while a thin :class:`ReclaimSource`
adapter per layer supplies candidates and performs the actual unit
migration (whose device traffic already rides the IoPipeline).
"""

from __future__ import annotations

import abc
import contextlib
import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.reclaim.pacer import ReclaimPacer
from repro.reclaim.policy import VALID_FRACTION, VictimPolicy, VictimView, first_dead
from repro.sim.io import NULL_TRACER, IoTracer
from repro.sim.stats import LatencyRecorder


class UnitOutcome(enum.Enum):
    """What happened to one pending unit during a reclaim step."""

    MIGRATED = "migrated"
    DROPPED = "dropped"
    # Stale entry (invalidated since the victim was chosen): costs no
    # step budget, mirrors every layer's historical ``continue`` path.
    SKIPPED = "skipped"
    # Transient device error: the unit is re-queued and the step ends.
    RETRY = "retry"


@dataclass
class GcHints:
    """The §3.4 cache→GC hint hooks, as one first-class protocol.

    ``migration_worth(region_id)`` asks the cache whether a region's
    survivors are worth copying; ``on_drop(region_id)`` tells it the
    device dropped the region's units instead (so the index can purge
    the condemned keys).  Sources that hold hints may answer
    ``UnitOutcome.DROPPED`` from ``migrate_unit`` without touching the
    device — the engine accounts those as ``hint_dropped_units``.
    """

    migration_worth: Callable[[int], bool]
    on_drop: Callable[[int], None]


class ReclaimSource(abc.ABC):
    """Layer adapter the engine drives.

    ``name`` labels the layer's ``reclaim.<name>`` spans and bench
    columns; ``unit_bytes`` is the payload size of one migrated unit
    (page/block/region) for copied-byte accounting.
    ``hints``, when bound, carries the cache's §3.4 drop hints — every
    ``DROPPED`` outcome from a hint-bearing source counts as a hint
    drop in :class:`ReclaimStats`.
    """

    name: str = "source"
    unit_bytes: int = 0
    hints: Optional[GcHints] = None

    @abc.abstractmethod
    def free_units(self) -> int:
        """Free containers available (watermark input)."""

    @abc.abstractmethod
    def candidate_views(self) -> List[VictimView]:
        """Reclaimable containers, in the layer's stable candidate order."""

    @abc.abstractmethod
    def pending_units(self, victim_id: int) -> List[int]:
        """Unit work-list for a freshly chosen victim.

        The engine pops from the *end*; sources that must process in a
        specific order return the list accordingly reversed.
        """

    @abc.abstractmethod
    def migrate_unit(self, victim_id: int, unit: int) -> UnitOutcome:
        """Relocate (or drop) one unit; exceptions propagate."""

    @abc.abstractmethod
    def release_victim(self, victim_id: int) -> None:
        """All units processed: erase or reset the container."""

    def least_valid_fraction(self) -> float:
        """A lower bound on the candidates' valid fractions, cheaper than
        their views.  When even the bound is over what the pacer accepts,
        every pick would be deferred, so the engine asks before it builds
        views.  The default claims nothing."""
        return 0.0

    def flush_step(self) -> None:
        """End-of-step hook for sources that batch their migrations."""

    def step_span(self, tracer: IoTracer, victim_id: int):
        """Optional legacy span wrapped inside the engine's reclaim span
        (the F2FS cleaner keeps its ``f2fs.gc`` span this way)."""
        return contextlib.nullcontext()


@dataclass
class ReclaimStats:
    """Uniform per-layer reclamation counters (the ``gc_*`` family)."""

    victims_reclaimed: int = 0
    units_migrated: int = 0
    units_dropped: int = 0
    # Subset of ``units_dropped`` caused by §3.4 cache hints (a
    # hint-bearing source answered DROPPED from ``migrate_unit``).
    hint_dropped_units: int = 0
    copied_bytes: int = 0
    retries: int = 0
    # Distinct victims started (trigger events that found work).
    triggers: int = 0
    fg_collections: int = 0
    stall: LatencyRecorder = field(default_factory=lambda: LatencyRecorder("gc_stall"))

    @property
    def stall_us_p99(self) -> float:
        return self.stall.p99() / 1000


class ReclaimEngine:
    """Victim lifecycle + paced migration loop over a :class:`ReclaimSource`."""

    def __init__(
        self,
        source: ReclaimSource,
        policy: VictimPolicy,
        pacer: ReclaimPacer,
        tracer: IoTracer = NULL_TRACER,
        clock=None,
        dead_first: bool = False,
    ) -> None:
        self.source = source
        self.policy = policy
        self.pacer = pacer
        self.tracer = tracer
        self.clock = clock
        # Opt-in lifecycle integration: zero-valid candidates (whole
        # containers killed by deletes/TTL/namespace bumps) are taken
        # before the policy score or the pacer's valid-threshold gate —
        # they cost nothing to reclaim.  Off by default: cost-benefit
        # and cold-defer deliberately order some dead containers late,
        # and the golden rows lock that behavior.
        self.dead_first = dead_first
        self.stats = ReclaimStats()
        self._victim: Optional[int] = None
        self._pending: List[int] = []

    # --- state ---------------------------------------------------------------------

    @property
    def victim(self) -> Optional[int]:
        """Victim currently in progress, if any."""
        return self._victim

    def abandon_victim(self, victim_id: int) -> None:
        """Forget the in-progress victim if it is ``victim_id`` (its
        container died)."""
        if self._victim == victim_id:
            self._victim = None
            self._pending = []

    # --- policy --------------------------------------------------------------------

    def needs_reclaim(self) -> bool:
        return self.pacer.should_trigger(self.source.free_units())

    def pick_victim(self) -> Optional[int]:
        """Best candidate by policy score, if the pacer accepts it.

        A rejected best candidate defers collection entirely (no
        second-best fallback): rewrites keep concentrating dead units
        into old containers, so waiting is what keeps WA low.
        """
        source, pacer = self.source, self.pacer
        free = source.free_units()
        if self.policy.pure and not pacer.accepts(
            source.least_valid_fraction(), free
        ):
            return None  # whichever candidate scored best, it would be deferred
        views = source.candidate_views()
        if not views:
            return None
        if self.dead_first:
            dead = first_dead(views)
            if dead is not None:
                return dead
        view = self.policy.pick(views)
        if view is None:
            return None
        if not pacer.accepts(view.valid_fraction, free):
            return None
        if view.valid_fraction <= pacer.config.victim_valid_threshold:
            return view.victim_id
        # Emergency admission: the policy's pick is over the valid-data
        # threshold, so it may cost a whole container of survivor slots
        # without freeing net space.  Take the least-valid candidate
        # regardless of policy — the historical guarantee that emergency
        # collection always makes forward progress.
        return min(views, key=VALID_FRACTION).victim_id

    # --- execution -----------------------------------------------------------------

    def background_step(self) -> int:
        """Paced check after a foreground write; returns units processed.

        With adaptive pacing attached, each step's wall time is recorded
        as foreground stall (these checks run inline with host writes)
        and the pacer's AIMD controller observes the step — that one
        hook is how every layer on the engine inherits the GC↔QoS loop.
        """
        pacer = self.pacer
        # needs_reclaim(), in line: this check runs after every write.
        if self._victim is None and not pacer.should_trigger(
            self.source.free_units()
        ):
            return 0
        started = (
            self.clock.now
            if self.clock is not None and pacer.stall_slo_ns is not None
            else None
        )
        processed = self._step(pacer.step_budget(self.source.free_units()))
        if started is not None:
            pacer.stall.record(self.clock.now - started)
        pacer.observe_step()
        return processed

    def collect(self, max_victims: int = 1, max_steps: Optional[int] = None) -> int:
        """Foreground collection: finish up to ``max_victims`` whole
        victims now; returns how many were reclaimed.

        ``max_steps`` bounds the retry loop per victim so a persistently
        faulting device cannot livelock the foreground path.  Wall time
        spent here is recorded as foreground stall when a clock is wired.
        """
        started = self.clock.now if self.clock is not None else None
        self.stats.fg_collections += 1
        reclaimed = 0
        try:
            for _ in range(max_victims):
                before = self.stats.victims_reclaimed
                self._step(None)
                steps = 0
                while self._victim is not None and (
                    max_steps is None or steps < max_steps
                ):
                    self._step(None)
                    steps += 1
                if self.stats.victims_reclaimed == before:
                    break
                reclaimed += 1
                if not self.needs_reclaim():
                    break
        finally:
            if started is not None:
                stalled = self.clock.now - started
                self.stats.stall.record(stalled)
                if self.pacer.stall_slo_ns is not None:
                    # Emergency stalls are exactly the signal the AIMD
                    # controller must clamp on; feed its window too.
                    self.pacer.stall.record(stalled)
        return reclaimed

    def drain_to_target(self) -> int:
        """Synchronous whole-victim reclaim until free units reach the
        pacer's target watermark (the FTL's low→high drain)."""
        reclaimed = 0
        while not self.pacer.reached_target(self.source.free_units()):
            before = self.stats.victims_reclaimed
            self._step(None)
            while self._victim is not None:
                self._step(None)
            if self.stats.victims_reclaimed == before:
                break
            reclaimed += 1
        return reclaimed

    def _step(self, budget: Optional[int]) -> int:
        if self._victim is None:
            self._victim = self.pick_victim()
            if self._victim is None:
                return 0
            self._pending = list(self.source.pending_units(self._victim))
            self.stats.triggers += 1
        victim = self._victim
        source = self.source
        stats = self.stats
        tracer = self.tracer
        processed = 0
        # The step's spans are opened by hand, and only on an enabled
        # tracer: the untraced step enters no context manager at all.
        spans = (
            (
                tracer.span("reclaim." + source.name, "migrate", zone=victim),
                source.step_span(tracer, victim),
            )
            if tracer.enabled
            else ()
        )
        for span in spans:
            span.__enter__()
        try:
            # ``_pending`` is re-read each turn: a unit's migration may
            # abandon the victim (its zone died), which replaces it.
            while self._pending and (budget is None or processed < budget):
                unit = self._pending.pop()
                outcome = source.migrate_unit(victim, unit)
                if outcome is UnitOutcome.SKIPPED:
                    continue
                if outcome is UnitOutcome.RETRY:
                    # Nothing was mutated: put the unit back and give
                    # up this step; the next check resumes here.
                    self._pending.append(unit)
                    stats.retries += 1
                    source.flush_step()
                    return processed
                if outcome is UnitOutcome.MIGRATED:
                    stats.units_migrated += 1
                    stats.copied_bytes += source.unit_bytes
                else:
                    stats.units_dropped += 1
                    if source.hints is not None:
                        stats.hint_dropped_units += 1
                        # One span per hint drop so the sweep can
                        # reconcile hint_dropped_units against the
                        # trace stream per layer.
                        with tracer.span(
                            "reclaim." + source.name, "drop", zone=victim
                        ):
                            pass
                processed += 1
            source.flush_step()
        except BaseException:
            # A raised step (a power cut) may leave popped units valid:
            # they stay pending, so the victim is not released under them.
            if self._victim == victim:
                self._pending = list(source.pending_units(victim))
            raise
        finally:
            for span in reversed(spans):
                span.__exit__(None, None, None)
        if not self._pending:
            finished = self._victim
            self._victim = None
            if tracer.enabled:
                with tracer.span("reclaim." + source.name, "reset", zone=finished):
                    source.release_victim(finished)
            else:
                source.release_victim(finished)
            stats.victims_reclaimed += 1
        return processed
