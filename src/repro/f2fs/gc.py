"""Section cleaning (filesystem-level garbage collection).

F2FS cleans at section granularity: pick a victim section, migrate its
valid blocks to the cold-data log, then the whole section — and on ZNS
the zone underneath it — can be reset.  The victim policy is one of
:data:`repro.reclaim.POLICY_NAMES`, the vocabulary every layer shares:
``cost_benefit`` (F2FS's background cleaning, the default: weighs free
space gained against section age and avoids repeatedly scrubbing hot
sections), ``greedy`` (fewest valid blocks, F2FS's foreground cleaning)
and the ablation policies.

The selection/pacing loop is the shared
:class:`~repro.reclaim.ReclaimEngine` the filesystem owns as
``fs.reclaim``; this module provides its section-shaped
:class:`~repro.reclaim.ReclaimSource` and the thresholds.

Cleaning is *paced*: at most ``pace_blocks`` are migrated per foreground
trigger, so the stall any single operation observes stays small.  This
pacing is the mechanism behind the paper's observation that File-Cache
has the lowest P99 latency (Figure 5d, "F2FS is optimized for tail
latency").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import PowerCutError, RetryableError
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
from repro.sim.io import IoTracer

if TYPE_CHECKING:
    from repro.f2fs.fs import F2fs


@dataclass(frozen=True)
class CleanerConfig:
    """Cleaning thresholds.

    Cleaning starts when free sections fall below ``low_watermark`` and
    keeps a victim "in progress" until it is fully migrated; at most
    ``pace_blocks`` blocks move per trigger.  ``policy`` picks the victim
    scorer from :data:`repro.reclaim.POLICY_NAMES`.
    """

    low_watermark: int = 3
    pace_blocks: int = 16
    policy: str = "cost_benefit"
    # Defer victims holding more than this fraction of valid blocks
    # (1.0 = accept anything, the historical behavior).  Below
    # ``emergency_sections`` free sections the engine cleans the
    # least-valid candidate regardless, so deferral cannot wedge the
    # log heads against ``NoSpaceError``.
    victim_valid_threshold: float = 1.0
    emergency_sections: int = 0
    # At or below this many free sections cleaning runs unbounded and the
    # pacer reports "urgent" (-1 = disabled, the historical behavior).
    urgent_sections: int = -1

    def __post_init__(self) -> None:
        ensure_at_least("low_watermark", self.low_watermark, 1)
        ensure_at_least("pace_blocks", self.pace_blocks, 1)
        ensure_choice("policy", self.policy, POLICY_NAMES)
        ensure_fraction("victim_valid_threshold", self.victim_valid_threshold)
        ensure_between(
            "emergency_sections", self.emergency_sections, 0, self.low_watermark
        )
        ensure_at_least("urgent_sections", self.urgent_sections, -1)

    def pacer_config(self) -> PacerConfig:
        return PacerConfig(
            background=self.low_watermark,
            target=self.low_watermark,
            urgent=self.urgent_sections,
            emergency=self.emergency_sections,
            victim_valid_threshold=self.victim_valid_threshold,
            pace_units=self.pace_blocks,
        )


class _SectionReclaimSource(ReclaimSource):
    """Section-shaped adapter over the filesystem's SIT and log manager:
    victims are sealed sections, units their valid blocks.

    ``region_of_block`` is the §3.4 hint geometry a
    :class:`~repro.cache.backends.FileRegionStore` binds with the hints:
    the cache region a main-area block backs, or None for node blocks,
    other files and tail slack (those always migrate).
    """

    name = "f2fs"

    def __init__(self, fs: "F2fs") -> None:
        self.fs = fs
        self.unit_bytes = fs.layout.block_size
        self.region_of_block: Optional[Callable[[int], Optional[int]]] = None

    def free_units(self) -> int:
        # LogManager.free_section_count, read directly: asked after every write.
        return len(self.fs.logs._free)

    def candidate_views(self) -> List[VictimView]:
        fs = self.fs
        sit, logs = fs.sit, fs.logs
        mtime, tick = fs._section_mtime, fs._write_tick
        # Open (owned by a log head), free and retired sections are no
        # victims; the SIT entries are read directly, one per section.
        skip = set(logs.open_sections())
        skip.update(logs._free)
        skip.update(logs._retired)
        entries, per_section = sit.sections, sit.blocks_per_section
        views = []
        for section in range(fs.layout.num_sections):
            if section in skip:
                continue
            valid = entries[section].valid_count
            views.append(
                view_of((section, valid, valid / per_section, tick - mtime[section], 0))
            )
        return views

    def pending_units(self, section: int) -> List[int]:
        return list(self.fs.sit.valid_blocks(section))

    def migrate_unit(self, section: int, block_addr: int) -> UnitOutcome:
        fs = self.fs
        if not fs.sit.is_valid(block_addr):
            return UnitOutcome.SKIPPED  # invalidated since the list was built
        hints = self.hints
        if hints is not None:
            region_id = self.region_of_block(block_addr)
            if region_id is not None and not hints.migration_worth(region_id):
                # §3.4 drop path: the cache condemned the region this
                # block backs, so unmap it instead of copying it to the
                # cold log.  No device I/O happens — just SIT/NAT
                # bookkeeping.
                fs._drop_block(block_addr)
                hints.on_drop(region_id)
                return UnitOutcome.DROPPED
        try:
            fs._migrate_block(block_addr)
        except PowerCutError:
            raise
        except RetryableError:
            # Transient device error: the block stays valid, nothing was
            # mutated — the engine re-queues it and ends the step.
            return UnitOutcome.RETRY
        return UnitOutcome.MIGRATED

    def release_victim(self, section: int) -> None:
        fs = self.fs
        fs.sit.require_empty(section)
        fs._reset_section_zone(section)
        fs.logs.release_section(section)

    def step_span(self, tracer: IoTracer, section: int):
        # Preserve the historical "f2fs.gc" span each cleaning step emits
        # (nested inside the engine's uniform reclaim.f2fs span).
        return tracer.span("f2fs.gc", "clean", zone=section)
