"""Middle-layer garbage collection (the paper's §3.3 "Garbage Collection").

A background thread is simulated by invoking :meth:`ZoneGarbageCollector.
maybe_collect` after foreground writes: it checks "the empty zone number
and valid data size of the finished zones", and when empty zones fall
below ``min_empty_zones`` it selects a victim (preferring zones whose
valid fraction is below ``victim_valid_threshold``), migrates the valid
regions to the GC stream zone, and resets the victim.

The selection/pacing/accounting loop itself lives in
:mod:`repro.reclaim`; this module supplies the zone-shaped
:class:`~repro.reclaim.ReclaimSource` and keeps the public
``ZoneGarbageCollector`` surface the layer and tests already use.

The ``migration_hint`` hook is the co-design lever from §3.4: given a
region id it may return False to *drop* the region instead of migrating
it ("not all the valid regions are needed to be migrated"), trading a
little hit ratio for less GC work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import TranslationFullError
from repro.reclaim import (
    AdaptivePacingConfig,
    GcHints,
    PacerConfig,
    ReclaimEngine,
    ReclaimPacer,
    ReclaimSource,
    UnitOutcome,
    VictimView,
    ensure_at_least,
    ensure_between,
    ensure_choice,
    ensure_fraction,
    make_victim_policy,
)
from repro.reclaim.policy import POLICY_NAMES
from repro.sim.io import NULL_TRACER, IoTracer
from repro.ztl.allocator import ZoneBook, ZoneRecord

# Returns True to migrate the region, False to drop it.
MigrationHint = Callable[[int], bool]
# Called with (region_id,) when GC drops a region so the owner can purge it.
DropCallback = Callable[[int], None]


@dataclass(frozen=True)
class GcConfig:
    """Thresholds from the paper, all configurable (§3.3).

    Below ``min_empty_zones`` empty zones, GC collects zones whose valid
    fraction is under ``victim_valid_threshold``.  If no zone qualifies,
    collection is *deferred* — rewrites keep concentrating dead regions
    into old zones, so waiting is what keeps WA low — unless the pool is
    critically low (``emergency_empty_zones``), where the least-valid
    zone is taken regardless to guarantee forward progress.

    ``policy`` picks the victim scorer from
    :data:`repro.reclaim.POLICY_NAMES`; greedy (fewest valid regions) is
    the paper's behavior and the default.
    """

    min_empty_zones: int = 2
    victim_valid_threshold: float = 0.20
    max_zones_per_run: int = 1
    emergency_empty_zones: int = 1
    # At or below this many empty zones GC steps run unbounded and the
    # pacer reports the "urgent" pressure level (-1 = disabled, the
    # historical behavior); see repro.reclaim.PacerConfig.urgent.
    urgent_empty_zones: int = -1
    # Regions migrated per background check: keeps each GC burst short so
    # foreground reads never queue behind a whole zone's migration.
    pace_regions: int = 8
    policy: str = "greedy"
    # Optional copy-bandwidth cap in bytes refilled per background check
    # (0 = unlimited); see repro.reclaim.PacerConfig.copy_tokens_per_step.
    copy_tokens_per_step: int = 0
    # Optional AIMD controller on pace/copy-tokens (None = static pacing);
    # see repro.reclaim.AdaptivePacingConfig.
    adaptive: Optional["AdaptivePacingConfig"] = None
    # Lifecycle integration: take zero-valid zones before the policy
    # order (see repro.reclaim.ReclaimEngine).  Off by default — the
    # golden rows lock the policy-ordered behavior.
    dead_first: bool = False

    def __post_init__(self) -> None:
        ensure_at_least("min_empty_zones", self.min_empty_zones, 1)
        ensure_fraction("victim_valid_threshold", self.victim_valid_threshold)
        ensure_at_least("max_zones_per_run", self.max_zones_per_run, 1)
        ensure_between(
            "emergency_empty_zones", self.emergency_empty_zones, 0, self.min_empty_zones
        )
        ensure_at_least("urgent_empty_zones", self.urgent_empty_zones, -1)
        ensure_at_least("pace_regions", self.pace_regions, 1)
        ensure_choice("policy", self.policy, POLICY_NAMES)
        ensure_at_least("copy_tokens_per_step", self.copy_tokens_per_step, 0)

    def pacer_config(self) -> PacerConfig:
        return PacerConfig(
            background=self.min_empty_zones,
            target=self.min_empty_zones,
            urgent=self.urgent_empty_zones,
            emergency=self.emergency_empty_zones,
            victim_valid_threshold=self.victim_valid_threshold,
            pace_units=self.pace_regions,
            copy_tokens_per_step=self.copy_tokens_per_step,
            adaptive=self.adaptive,
        )


class _ZoneReclaimSource(ReclaimSource):
    """Zone-shaped adapter the shared engine drives."""

    name = "ztl"

    def __init__(self, owner: "ZoneGarbageCollector", unit_bytes: int) -> None:
        self.owner = owner
        self.unit_bytes = unit_bytes
        # Batched-migration staging for the current step (cleared before
        # the migrate_many call so a raise loses them, as it always did).
        self._survivors: List[int] = []

    @property
    def book(self) -> ZoneBook:
        return self.owner._book

    def free_units(self) -> int:
        return self.book.empty_count

    def candidate_views(self) -> List[VictimView]:
        book = self.book
        records = book.records
        tick, slots = book.tick, book.slots_per_zone
        views = []
        for zone in book.finished_zones:
            record = records[zone]
            valid = record.bitmap.valid_count
            views.append(
                VictimView(zone, valid, valid / slots, tick - record.mtime, record.group)
            )
        return views

    def least_valid_fraction(self) -> float:
        book = self.book
        records = book.records
        least = slots = book.slots_per_zone
        for zone in book.finished_zones:
            valid = records[zone].bitmap.valid_count
            if valid < least:
                least = valid
        return least / slots

    def pending_units(self, victim_id: int) -> List[int]:
        return list(self.book.record(victim_id).bitmap.valid_slots())

    def migrate_unit(self, victim_id: int, slot: int) -> UnitOutcome:
        owner = self.owner
        record = self.book.record(victim_id)
        if not record.bitmap.is_set(slot):
            return UnitOutcome.SKIPPED  # invalidated since the victim was chosen
        region_id = owner._region_at(victim_id, slot)
        if region_id is None:
            record.bitmap.clear(slot)
            return UnitOutcome.SKIPPED
        keep = True
        if self.hints is not None:
            keep = self.hints.migration_worth(region_id)
        if keep:
            if owner._migrate_many is not None:
                # Batched path: the layer allocates targets itself so
                # it can submit the copy loop as one pipelined batch, and
                # clears the bit as the survivor moves — one that cannot
                # (the GC stream ran out of zones) stays valid here.
                self._survivors.append(region_id)
                return UnitOutcome.MIGRATED
            target = self.book.allocate_gc_slot()
            owner._migrate(region_id, target)
            record.bitmap.clear(slot)
            return UnitOutcome.MIGRATED
        owner._drop(region_id)
        record.bitmap.clear(slot)
        return UnitOutcome.DROPPED

    def flush_step(self) -> None:
        if not self._survivors:
            return
        survivors = self._survivors
        self._survivors = []
        assert self.owner._migrate_many is not None
        self.owner._migrate_many(survivors)

    def release_victim(self, victim_id: int) -> None:
        self.owner._reset(victim_id)
        self.book.mark_empty(victim_id)


class ZoneGarbageCollector:
    """Selects victims and migrates valid regions; owns no I/O itself.

    The actual data movement is delegated to the layer through the
    ``migrate`` and ``reset`` callables so this class stays a pure
    policy + orchestration object (easy to unit test).  Selection,
    pacing, and counters are provided by a shared
    :class:`~repro.reclaim.ReclaimEngine`.
    """

    def __init__(
        self,
        book: ZoneBook,
        config: GcConfig,
        migrate: Callable[[int, ZoneRecord], None],
        reset: Callable[[int], None],
        migration_hint: Optional[MigrationHint] = None,
        on_drop: Optional[DropCallback] = None,
        migrate_many: Optional[Callable[[List[int]], None]] = None,
        tracer: IoTracer = NULL_TRACER,
        clock=None,
        unit_bytes: int = 0,
    ) -> None:
        self._book = book
        self.config = config
        self._migrate = migrate
        self._migrate_many = migrate_many
        self._reset = reset
        self._source = _ZoneReclaimSource(self, unit_bytes)
        self._migration_hint: Optional[MigrationHint] = None
        self._on_drop: Optional[DropCallback] = None
        self.migration_hint = migration_hint
        self.on_drop = on_drop
        self.engine = ReclaimEngine(
            self._source,
            make_victim_policy(config.policy),
            ReclaimPacer(config.pacer_config()),
            tracer=tracer,
            clock=clock,
            dead_first=config.dead_first,
        )

    # --- §3.4 hints (legacy attribute surface, GcHints-backed) ----------------------
    #
    # Builders and tests assign ``gc.migration_hint`` / ``gc.on_drop``
    # directly; the setters keep the source's first-class
    # :class:`~repro.reclaim.GcHints` in sync so drop accounting is
    # uniform across every layer on the shared engine.

    @property
    def migration_hint(self) -> Optional[MigrationHint]:
        return self._migration_hint

    @migration_hint.setter
    def migration_hint(self, hint: Optional[MigrationHint]) -> None:
        self._migration_hint = hint
        self._sync_hints()

    @property
    def on_drop(self) -> Optional[DropCallback]:
        return self._on_drop

    @on_drop.setter
    def on_drop(self, callback: Optional[DropCallback]) -> None:
        self._on_drop = callback
        self._sync_hints()

    def _sync_hints(self) -> None:
        if self._migration_hint is None:
            self._source.hints = None
            return
        on_drop = self._on_drop if self._on_drop is not None else lambda region: None
        self._source.hints = GcHints(self._migration_hint, on_drop)

    # --- counters (legacy names, engine-backed) -------------------------------------

    @property
    def zones_collected(self) -> int:
        return self.engine.stats.victims_reclaimed

    @property
    def regions_migrated(self) -> int:
        return self.engine.stats.units_migrated

    @property
    def regions_dropped(self) -> int:
        return self.engine.stats.units_dropped

    # The layer pokes these directly when zones die or state is restored.

    @property
    def _victim(self) -> Optional[int]:
        return self.engine.victim

    @_victim.setter
    def _victim(self, value: Optional[int]) -> None:
        if value is None:
            self.engine.abandon_victim()
        else:
            self.engine._victim = value

    @property
    def _pending(self) -> List[int]:
        return self.engine._pending

    @_pending.setter
    def _pending(self, value: List[int]) -> None:
        self.engine._pending = list(value)

    # --- policy -------------------------------------------------------------------

    def needs_collection(self) -> bool:
        return self.engine.needs_reclaim()

    def pick_victim(self) -> Optional[int]:
        """Finished zone the policy scores cheapest, if worth taking.

        Only zones below the valid-data threshold qualify during normal
        background GC; when the empty pool is at the emergency level the
        best-scoring zone is returned regardless so the device can
        always make forward progress.
        """
        return self.engine.pick_victim()

    # --- execution ------------------------------------------------------------------

    def maybe_collect(self) -> int:
        """Paced background check; returns regions processed this step.

        The collector keeps one victim "in progress" across calls and
        migrates at most ``pace_regions`` regions per call, so no single
        foreground operation queues behind a whole zone's migration.
        """
        return self.engine.background_step()

    def collect(self, max_zones: int = 1) -> int:
        """Emergency foreground collection: finish whole victims now."""
        return self.engine.collect(max_victims=max_zones)

    # Wired by the layer: region lookup by location and drop handling.
    _region_lookup: Optional[Callable[[int, int], Optional[int]]] = None
    _drop_handler: Optional[Callable[[int], None]] = None

    def bind_lookup(
        self,
        region_lookup: Callable[[int, int], Optional[int]],
        drop_handler: Callable[[int], None],
    ) -> None:
        """Late-bind the layer's mapping accessors (avoids a ctor cycle)."""
        self._region_lookup = region_lookup
        self._drop_handler = drop_handler

    def _region_at(self, zone_index: int, slot: int) -> Optional[int]:
        if self._region_lookup is None:
            raise TranslationFullError("GC not bound to a translation layer")
        return self._region_lookup(zone_index, slot)

    def _drop(self, region_id: int) -> None:
        if self._drop_handler is not None:
            self._drop_handler(region_id)
        if self.on_drop is not None:
            self.on_drop(region_id)
