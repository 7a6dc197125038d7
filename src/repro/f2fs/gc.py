"""Section cleaning (filesystem-level garbage collection).

F2FS cleans at section granularity: pick a victim section, migrate its
valid blocks to the cold-data log, then the whole section — and on ZNS
the zone underneath it — can be reset.  The victim policies mirror
F2FS's:

* ``GREEDY`` — fewest valid blocks (foreground cleaning).
* ``COST_BENEFIT`` — weighs free space gained against section age
  (background cleaning; avoids repeatedly scrubbing hot sections).
* ``AGE_THRESHOLD`` / ``RANDOM`` — ablation policies from
  :mod:`repro.reclaim` (greedy gated on age; a seeded random baseline).

The selection/pacing loop is the shared
:class:`~repro.reclaim.ReclaimEngine`; this module provides the
section-shaped :class:`~repro.reclaim.ReclaimSource` and keeps the
public ``Cleaner`` surface the filesystem already wires.

Cleaning is *paced*: at most ``pace_blocks`` are migrated per foreground
trigger, so the stall any single operation observes stays small.  This
pacing is the mechanism behind the paper's observation that File-Cache
has the lowest P99 latency (Figure 5d, "F2FS is optimized for tail
latency").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import PowerCutError, RetryableError
from repro.f2fs.layout import F2fsLayout
from repro.f2fs.segment import LogManager
from repro.f2fs.sit import SegmentInfoTable
from repro.reclaim import (
    AdaptivePacingConfig,
    PacerConfig,
    ReclaimEngine,
    ReclaimPacer,
    ReclaimSource,
    UnitOutcome,
    VictimView,
    ensure_at_least,
    make_victim_policy,
)
from repro.sim.io import IoTracer


class VictimPolicy(enum.Enum):
    GREEDY = "greedy"
    COST_BENEFIT = "cost_benefit"
    AGE_THRESHOLD = "age_threshold"
    RANDOM = "random"


@dataclass(frozen=True)
class CleanerConfig:
    """Cleaning thresholds.

    Cleaning starts when free sections fall below ``low_watermark`` and
    keeps a victim "in progress" until it is fully migrated; at most
    ``pace_blocks`` blocks move per trigger.
    """

    low_watermark: int = 3
    pace_blocks: int = 16
    policy: VictimPolicy = VictimPolicy.COST_BENEFIT
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
    # Optional AIMD controller on pace_blocks (None = static pacing);
    # see repro.reclaim.AdaptivePacingConfig.
    adaptive: Optional["AdaptivePacingConfig"] = None

    def __post_init__(self) -> None:
        ensure_at_least("low_watermark", self.low_watermark, 1)
        ensure_at_least("pace_blocks", self.pace_blocks, 1)
        ensure_at_least("emergency_sections", self.emergency_sections, 0)
        ensure_at_least("urgent_sections", self.urgent_sections, -1)

    def pacer_config(self) -> PacerConfig:
        return PacerConfig(
            background=self.low_watermark,
            target=self.low_watermark,
            urgent=self.urgent_sections,
            emergency=self.emergency_sections,
            victim_valid_threshold=self.victim_valid_threshold,
            pace_units=self.pace_blocks,
            adaptive=self.adaptive,
        )


class _SectionReclaimSource(ReclaimSource):
    """Section-shaped adapter over the SIT + log manager."""

    name = "f2fs"

    def __init__(self, owner: "Cleaner") -> None:
        self.owner = owner
        self.unit_bytes = owner.layout.block_size

    def free_units(self) -> int:
        return self.owner.logs.free_section_count

    def candidate_views(self) -> List[VictimView]:
        owner = self.owner
        sit = owner.sit
        open_sections = set(owner.logs.open_sections())
        views = []
        for section in range(owner.layout.num_sections):
            if (
                section in open_sections
                or owner.logs.is_free(section)
                or owner.logs.is_retired(section)
            ):
                continue
            views.append(
                VictimView(
                    victim_id=section,
                    valid_count=sit.valid_count(section),
                    valid_fraction=sit.valid_fraction(section),
                    age=owner._tick - owner._mtime[section],
                )
            )
        return views

    def pending_units(self, section: int) -> List[int]:
        return list(self.owner.sit.valid_blocks(section))

    def migrate_unit(self, section: int, block_addr: int) -> UnitOutcome:
        owner = self.owner
        if not owner.sit.is_valid(block_addr):
            return UnitOutcome.SKIPPED  # invalidated since the list was built
        hints = self.hints
        if hints is not None and owner._region_of_block is not None:
            region_id = owner._region_of_block(block_addr)
            if region_id is not None and not hints.migration_worth(region_id):
                # §3.4 drop path: the cache condemned the region this
                # block backs, so unmap it instead of copying it to the
                # cold log.  No device I/O happens — just SIT/NAT
                # bookkeeping the filesystem wires via ``bind_hints``.
                owner._drop_block(block_addr)
                hints.on_drop(region_id)
                return UnitOutcome.DROPPED
        try:
            owner._migrate_block(block_addr)
        except PowerCutError:
            raise
        except RetryableError:
            # Transient device error: the block stays valid, nothing was
            # mutated — the engine re-queues it and ends the step.
            return UnitOutcome.RETRY
        return UnitOutcome.MIGRATED

    def release_victim(self, section: int) -> None:
        owner = self.owner
        owner.sit.wipe_section(section)
        owner._release_section(section)
        owner.logs.release_section(section)

    def step_span(self, tracer: IoTracer, section: int):
        # Preserve the historical "f2fs.gc" span each cleaning step emits
        # (nested inside the engine's uniform reclaim.f2fs span).
        return tracer.span("f2fs.gc", "clean", zone=section)


class Cleaner:
    """Incremental section cleaner.

    Data movement is delegated to ``migrate_block(block_addr)`` and
    section disposal to ``release_section(section)`` so the cleaner stays
    a policy object (the filesystem wires the callbacks).
    """

    def __init__(
        self,
        layout: F2fsLayout,
        sit: SegmentInfoTable,
        logs: LogManager,
        config: CleanerConfig,
        migrate_block: Callable[[int], None],
        release_section: Callable[[int], None],
    ) -> None:
        self.layout = layout
        self.sit = sit
        self.logs = logs
        self.config = config
        self._migrate_block = migrate_block
        self._release_section = release_section
        # §3.4 hint wiring (bind_hints): block → cache region ownership
        # and the no-copy drop callback.  None = hints disabled.
        self._region_of_block: Optional[Callable[[int], Optional[int]]] = None
        self._drop_block: Optional[Callable[[int], None]] = None
        # Age proxy: bump per section every time it is opened by a log head.
        self._mtime = [0] * layout.num_sections
        self._tick = 0
        self.engine = ReclaimEngine(
            _SectionReclaimSource(self),
            make_victim_policy(config.policy.value),
            ReclaimPacer(config.pacer_config()),
        )

    # --- counters / wiring (legacy names, engine-backed) ----------------------------

    @property
    def sections_cleaned(self) -> int:
        return self.engine.stats.victims_reclaimed

    @property
    def blocks_migrated(self) -> int:
        return self.engine.stats.units_migrated

    @property
    def io_retries(self) -> int:
        return self.engine.stats.retries

    @property
    def tracer(self) -> IoTracer:
        """The data device's tracer; each cleaning step appears as an
        "f2fs.gc" span (inside the uniform reclaim.f2fs span)."""
        return self.engine.tracer

    @tracer.setter
    def tracer(self, tracer: IoTracer) -> None:
        self.engine.tracer = tracer

    def bind_clock(self, clock) -> None:
        """Attach the simulation clock for foreground-stall accounting."""
        self.engine.clock = clock

    def bind_hints(
        self,
        hints,
        region_of_block: Callable[[int], Optional[int]],
        drop_block: Callable[[int], None],
    ) -> None:
        """Wire the cache's §3.4 :class:`~repro.reclaim.GcHints`.

        ``region_of_block(block_addr)`` maps a main-area block to the
        cache region it backs (None for node blocks, other files, or
        out-of-range offsets — those always migrate).  ``drop_block``
        unmaps one condemned block without copying it.
        """
        self.engine.source.hints = hints
        self._region_of_block = region_of_block
        self._drop_block = drop_block

    # --- hooks from the filesystem ----------------------------------------------------

    def note_section_written(self, section: int, blocks: int = 1) -> None:
        """Track write recency for the cost-benefit policy: one tick per
        block written, the section stamped with the last."""
        self._tick += blocks
        self._mtime[section] = self._tick

    def needs_cleaning(self) -> bool:
        return self.engine.needs_reclaim()

    # --- cleaning --------------------------------------------------------------------

    def background_step(self) -> int:
        """Paced cleaning; returns blocks migrated this step."""
        return self.engine.background_step()

    def clean_one_section(self) -> bool:
        """Foreground (emergency) cleaning: finish an entire victim now.

        Returns True if a section was fully reclaimed.  Bounded: a
        persistently faulting device must not livelock the foreground
        path (each retry-triggered early return costs one step).
        """
        return (
            self.engine.collect(
                max_victims=1, max_steps=self.layout.blocks_per_section + 8
            )
            > 0
        )

    def _pick_victim(self) -> Optional[int]:
        return self.engine.pick_victim()
