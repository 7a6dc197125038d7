"""Middle-layer garbage collection (the paper's §3.3 "Garbage Collection").

A background thread is simulated by a paced
:meth:`~repro.reclaim.ReclaimEngine.background_step` after each
foreground write: it checks "the empty zone number and valid data size
of the finished zones", and when empty zones fall below
``min_empty_zones`` it selects a victim (preferring zones whose valid
fraction is below ``victim_valid_threshold``), migrates the valid
regions to the GC stream zone, and resets the victim.

The selection/pacing/accounting loop is the shared
:class:`~repro.reclaim.ReclaimEngine` the layer owns as
``layer.reclaim``; this module supplies its zone-shaped
:class:`~repro.reclaim.ReclaimSource` and the thresholds.

The source's :class:`~repro.reclaim.GcHints` are the co-design lever
from §3.4: given a region id, ``migration_worth`` may return False to
*drop* the region instead of migrating it ("not all the valid regions
are needed to be migrated"), trading a little hit ratio for less GC
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.errors import TranslationFullError
from repro.reclaim import (
    PacerConfig,
    ReclaimSource,
    UnitOutcome,
    VictimView,
    ensure_at_least,
    ensure_between,
    ensure_choice,
    ensure_fraction,
    view_of,
)
from repro.reclaim.policy import POLICY_NAMES

if TYPE_CHECKING:
    from repro.ztl.layer import RegionTranslationLayer


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
    emergency_empty_zones: int = 1
    # At or below this many empty zones GC steps run unbounded and the
    # pacer reports the "urgent" pressure level (-1 = disabled, the
    # historical behavior); see repro.reclaim.PacerConfig.urgent.
    urgent_empty_zones: int = -1
    # Regions migrated per background check: keeps each GC burst short so
    # foreground reads never queue behind a whole zone's migration.
    pace_regions: int = 8
    policy: str = "greedy"
    # Lifecycle integration: take zero-valid zones before the policy
    # order (see repro.reclaim.ReclaimEngine).  Off by default — the
    # golden rows lock the policy-ordered behavior.
    dead_first: bool = False

    def __post_init__(self) -> None:
        ensure_at_least("min_empty_zones", self.min_empty_zones, 1)
        ensure_fraction("victim_valid_threshold", self.victim_valid_threshold)
        ensure_between(
            "emergency_empty_zones", self.emergency_empty_zones, 0, self.min_empty_zones
        )
        ensure_at_least("urgent_empty_zones", self.urgent_empty_zones, -1)
        ensure_at_least("pace_regions", self.pace_regions, 1)
        ensure_choice("policy", self.policy, POLICY_NAMES)

    def pacer_config(self) -> PacerConfig:
        return PacerConfig(
            background=self.min_empty_zones,
            target=self.min_empty_zones,
            urgent=self.urgent_empty_zones,
            emergency=self.emergency_empty_zones,
            victim_valid_threshold=self.victim_valid_threshold,
            pace_units=self.pace_regions,
        )


class _ZoneReclaimSource(ReclaimSource):
    """Zone-shaped adapter the shared engine drives: victims are finished
    zones of the layer's :class:`~repro.ztl.allocator.ZoneBook`, units
    are their valid slots.  Survivors of one step are staged and moved
    as one batch by the layer (:meth:`flush_step`)."""

    name = "ztl"

    def __init__(self, layer: "RegionTranslationLayer") -> None:
        self.layer = layer
        self.unit_bytes = layer.region_size
        # Batched-migration staging for the current step (cleared before
        # the batch call; after a raise the engine re-reads the victim).
        self._survivors: List[int] = []

    def free_units(self) -> int:
        # ZoneBook.empty_count, read directly: asked after every write.
        return len(self.layer.book._empty)

    def candidate_views(self) -> List[VictimView]:
        book = self.layer.book
        records = book.records
        tick, slots = book.tick, book.slots_per_zone
        views = []
        for zone in book._finished:
            record = records[zone]
            valid = record.valid_count
            views.append(
                view_of((zone, valid, valid / slots, tick - record.mtime, record.group))
            )
        return views

    def least_valid_fraction(self) -> float:
        book = self.layer.book
        records = book.records
        least = slots = book.slots_per_zone
        for zone in book._finished:
            valid = records[zone].valid_count
            if valid < least:
                least = valid
        return least / slots

    def pending_units(self, victim_id: int) -> List[int]:
        owners = self.layer.book.records[victim_id].owners
        return [slot for slot, region_id in enumerate(owners) if region_id is not None]

    def migrate_unit(self, victim_id: int, slot: int) -> UnitOutcome:
        layer = self.layer
        region_id = layer.book.records[victim_id].owners[slot]
        if region_id is None:
            return UnitOutcome.SKIPPED  # invalidated since the victim was chosen
        hints = self.hints
        if hints is not None and not hints.migration_worth(region_id):
            layer._drop_region(region_id)
            return UnitOutcome.DROPPED
        # The layer allocates targets itself so it can submit the copy
        # loop as one pipelined batch, and frees the slot as the survivor
        # moves — one that cannot (the GC stream ran out of zones) is
        # dropped by flush_step.
        self._survivors.append(region_id)
        return UnitOutcome.MIGRATED

    def flush_step(self) -> None:
        if not self._survivors:
            return
        survivors = self._survivors
        self._survivors = []
        layer = self.layer
        try:
            layer._migrate_regions(survivors)
        except TranslationFullError:
            # The GC stream ran out of zones: a survivor with nowhere to
            # land is dropped rather than stall GC, so the victim is
            # reset holding nothing live.
            victim = layer.reclaim.victim
            for region_id in survivors:
                location = layer.map.get(region_id)
                if location is not None and location.zone_index == victim:
                    layer._drop_region(region_id)

    def release_victim(self, victim_id: int) -> None:
        self.layer._reset_zone(victim_id)
        self.layer.book.mark_empty(victim_id)
