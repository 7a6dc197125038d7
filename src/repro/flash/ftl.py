"""Page-mapped Flash Translation Layer with pluggable garbage collection.

This is the invisible machinery the paper blames for the block SSD's
write amplification and tail latency: the host sees a flat LBA space, the
FTL logs every page write into the current active block, and when the
free-block pool runs low it must *move valid pages* out of a victim block
before erasing it.  Those moves are the device-level WA; the erase+move
work stalls subsequent host commands, which is the device-GC tail latency
the paper measures in Figure 5(d).

Victim selection and the drain loop come from :mod:`repro.reclaim`
(greedy by default, matching real FTL firmware); this module supplies
the block-shaped :class:`~repro.reclaim.ReclaimSource`.

The FTL is deliberately independent of timing: it reports *what work
happened* (pages programmed, pages moved, blocks erased) and
:class:`~repro.flash.BlockSsd` converts that into simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import ConfigError, DeviceFullError
from repro.flash.nand import NandGeometry
from repro.reclaim import (
    PacerConfig,
    ReclaimEngine,
    ReclaimPacer,
    ReclaimSource,
    UnitOutcome,
    VictimView,
    ensure_at_least,
    ensure_choice,
    make_victim_policy,
    view_of,
)
from repro.reclaim.policy import POLICY_NAMES


@dataclass(frozen=True)
class FtlConfig:
    """FTL tuning knobs.

    ``op_ratio`` is the fraction of raw media reserved as over-
    provisioning (invisible to the host).  ``gc_low_watermark`` /
    ``gc_high_watermark`` bound the free-block pool: GC starts when free
    blocks drop below the low mark and runs until the high mark is
    restored.  ``gc_policy`` picks the victim scorer from
    :data:`repro.reclaim.POLICY_NAMES` (greedy is what FTL firmware
    ships, and the default).
    """

    op_ratio: float = 0.20
    gc_low_watermark: int = 4
    gc_high_watermark: int = 8
    gc_policy: str = "greedy"
    # At or below this many free blocks the pacer reports the "urgent"
    # pressure level (-1 = disabled).  The FTL drains synchronously
    # either way; this watermark exists for the GC-aware routing signal.
    gc_urgent_watermark: int = -1

    def __post_init__(self) -> None:
        if not 0.0 <= self.op_ratio < 1.0:
            raise ConfigError(f"op_ratio must be in [0, 1), got {self.op_ratio}")
        ensure_at_least("gc_low_watermark", self.gc_low_watermark, 1)
        ensure_at_least(
            "gc_high_watermark", self.gc_high_watermark, self.gc_low_watermark
        )
        ensure_choice("gc_policy", self.gc_policy, POLICY_NAMES)
        ensure_at_least("gc_urgent_watermark", self.gc_urgent_watermark, -1)

    def pacer_config(self) -> PacerConfig:
        return PacerConfig(
            background=self.gc_low_watermark,
            target=self.gc_high_watermark,
            urgent=self.gc_urgent_watermark,
        )


@dataclass
class FtlWriteReport:
    """Work performed by the FTL to satisfy one host write."""

    host_pages: int = 0
    moved_pages: int = 0
    erased_blocks: int = 0
    gc_runs: int = 0

    @property
    def media_pages(self) -> int:
        """Total pages physically programmed (host + GC relocation)."""
        return self.host_pages + self.moved_pages


@dataclass
class _BlockInfo:
    """Per-erase-block bookkeeping."""

    index: int
    # lpns[i] is the logical page stored in physical page i, or None if
    # that slot is free/invalid.
    lpns: List[Optional[int]] = field(default_factory=list)
    valid_count: int = 0
    next_page: int = 0
    # FTL tick of the block's most recent program; age = tick - mtime
    # feeds the cost-benefit victim policy.
    mtime: int = 0


class _FtlReclaimSource(ReclaimSource):
    """Erase-block adapter the shared engine drives.

    A victim's units are its *valid* pages (invalid ones are never
    listed).  ``migrate_unit`` stages a survivor and ``flush_step``
    moves the staged pages as one run through
    :meth:`PageMappedFtl._program` — the placement a page-at-a-time move
    makes, one block-sized piece at a time.

    ``region_pages`` / ``num_regions`` are the §3.4 hint geometry a
    :class:`~repro.cache.backends.BlockRegionStore` binds with the
    hints: the cache's region grid over the logical pages (region ``i``
    at page ``i * region_pages``), so GC can map a victim page back to
    the region it backs and discard-ahead condemned regions wholesale.
    """

    name = "ftl"

    def __init__(self, ftl: "PageMappedFtl") -> None:
        self.ftl = ftl
        self.unit_bytes = ftl.geometry.page_size
        self.region_pages = 0
        self.num_regions = 0
        # Survivors staged in this step, in relocation order.
        self._moving: List[int] = []

    def free_units(self) -> int:
        return len(self.ftl._free)

    def candidate_views(self) -> List[VictimView]:
        ftl = self.ftl
        pages = ftl.geometry.pages_per_block
        tick, active = ftl._tick, ftl._gc_active
        return [
            view_of(
                (
                    block.index,
                    block.valid_count,
                    block.valid_count / pages,
                    tick - block.mtime,
                    0,
                )
            )
            for block in ftl._blocks
            if block.next_page >= pages and block.index not in active
        ]

    def pending_units(self, block_index: int) -> List[int]:
        # The engine pops from the end; descending, so pages relocate in
        # ascending physical order, exactly like the historical loop.
        lpns = self.ftl._blocks[block_index].lpns
        return [
            page for page in range(len(lpns) - 1, -1, -1) if lpns[page] is not None
        ]

    def migrate_unit(self, block_index: int, page_idx: int) -> UnitOutcome:
        ftl = self.ftl
        lpn = ftl._blocks[block_index].lpns[page_idx]
        if lpn is None:
            return UnitOutcome.SKIPPED  # a discard-ahead dropped it
        hints = self.hints
        if hints is not None:
            region_id = lpn // self.region_pages
            if region_id < self.num_regions and not hints.migration_worth(
                region_id
            ):
                # §3.4 discard-ahead: the cache condemned this page's
                # region, so TRIM the whole region's logical range
                # instead of relocating it page by page.  The region's
                # other pages in this (or any) victim become SKIPPED
                # once their mappings clear — no media programs happen.
                # Survivors staged before this page move first, as they
                # would have one page at a time.
                self.flush_step()
                start = region_id * self.region_pages
                ftl.discard_pages(range(start, start + self.region_pages))
                hints.on_drop(region_id)
                return UnitOutcome.DROPPED
        self._moving.append(lpn)
        return UnitOutcome.MIGRATED

    def flush_step(self) -> None:
        if self._moving:
            lpns = self._moving
            self._moving = []
            self.ftl._relocate(lpns)

    def release_victim(self, block_index: int) -> None:
        ftl = self.ftl
        block = ftl._blocks[block_index]
        block.next_page = 0
        block.valid_count = 0
        block.lpns = [None] * ftl.geometry.pages_per_block
        ftl._free.append(block.index)
        ftl.total_erased_blocks += 1
        if ftl._gc_report is not None:
            ftl._gc_report.erased_blocks += 1


class PageMappedFtl:
    """Page-granularity log-structured FTL over the shared reclaim engine."""

    def __init__(self, geometry: NandGeometry, config: FtlConfig) -> None:
        self.geometry = geometry
        self.config = config
        usable_pages = int(geometry.total_pages * (1.0 - config.op_ratio))
        # Keep at least gc_high_watermark + 1 blocks' worth of slack so the
        # device can always make forward progress.
        min_spare_pages = (config.gc_high_watermark + 1) * geometry.pages_per_block
        self.logical_pages = max(
            geometry.pages_per_block, min(usable_pages, geometry.total_pages - min_spare_pages)
        )
        # logical page -> (block index, page index)
        self._l2p: Dict[int, tuple] = {}
        self._blocks = [_BlockInfo(i, [None] * geometry.pages_per_block) for i in range(geometry.num_blocks)]
        self._free: List[int] = list(range(geometry.num_blocks))
        self._active: _BlockInfo = self._blocks[self._free.pop()]
        self._gc_active: Set[int] = {self._active.index}
        self._tick = 0
        self.total_host_pages = 0
        self.total_moved_pages = 0
        self.total_erased_blocks = 0
        # Report for the host write whose GC drain is in progress, if any.
        self._gc_report: Optional[FtlWriteReport] = None
        self.reclaim = ReclaimEngine(
            _FtlReclaimSource(self),
            make_victim_policy(config.gc_policy),
            ReclaimPacer(config.pacer_config()),
        )

    @property
    def logical_capacity_bytes(self) -> int:
        """Host-visible capacity in bytes."""
        return self.logical_pages * self.geometry.page_size

    @property
    def free_block_count(self) -> int:
        return len(self._free)

    @property
    def write_amplification(self) -> float:
        if self.total_host_pages == 0:
            return 1.0
        return (self.total_host_pages + self.total_moved_pages) / self.total_host_pages

    def physical_of(self, lpn: int) -> Optional[tuple]:
        """Current physical (block, page) of a logical page, if mapped."""
        return self._l2p.get(lpn)

    def write_pages(self, lpns: Sequence[int]) -> FtlWriteReport:
        """Log-write the given logical pages; runs GC if the pool is low.

        Returns the :class:`FtlWriteReport` describing all media work,
        including relocation performed by any GC this write triggered.
        The whole run is validated before the first page is programmed,
        so a refused write leaves the FTL exactly as it found it.
        """
        report = FtlWriteReport()
        if not lpns:
            return report
        if min(lpns) < 0 or max(lpns) >= self.logical_pages:
            bad = next(lpn for lpn in lpns if not 0 <= lpn < self.logical_pages)
            raise DeviceFullError(
                f"lpn {bad} outside logical space of {self.logical_pages} pages"
            )
        # The GC trigger reads only the free-block count, which moves
        # when a block is opened or a drain erases one: asking before the
        # first page, after a poll that drained and after every page that
        # opened a block is asking before every page.  Between two such
        # points the pages go down as one run.
        pages_per_block = self.geometry.pages_per_block
        should_trigger = self.reclaim.pacer.should_trigger
        done, total = 0, len(lpns)
        poll = True
        while done < total:
            drained = poll and should_trigger(len(self._free)) and self._drain(report)
            space = pages_per_block - self._active.next_page
            poll = drained or space <= 0  # a full active block: this page opens one
            count = 1 if poll else min(space, total - done)
            self._program(lpns[done : done + count])
            done += count
        report.host_pages = total
        self.total_host_pages += total
        return report

    def discard_pages(self, lpns: Sequence[int]) -> None:
        """TRIM: drop mappings so GC does not relocate dead data."""
        l2p, blocks = self._l2p, self._blocks
        for lpn in lpns:
            loc = l2p.pop(lpn, None)
            if loc is not None:
                block = blocks[loc[0]]
                if block.lpns[loc[1]] == lpn:
                    block.lpns[loc[1]] = None
                    block.valid_count -= 1

    # --- internals -----------------------------------------------------------

    def _program(self, lpns: Sequence[int]) -> None:
        """Move a run of logical pages to the active block's write point
        — the one page placement, under host writes and GC moves alike:
        a block is opened first if the active one is full (the run must
        then fit: the caller sends one page), each page's previous
        physical slot goes invalid and the next free slot takes it.
        """
        block = self._active
        if block.next_page >= self.geometry.pages_per_block:
            block = self._open_new_active()
        l2p, blocks = self._l2p, self._blocks
        slots, index, page_idx = block.lpns, block.index, block.next_page
        for lpn in lpns:
            loc = l2p.get(lpn)
            if loc is not None:
                old = blocks[loc[0]]
                if old.lpns[loc[1]] == lpn:
                    old.lpns[loc[1]] = None
                    old.valid_count -= 1
            slots[page_idx] = lpn
            l2p[lpn] = (index, page_idx)
            page_idx += 1
        block.valid_count += len(lpns)
        block.next_page = page_idx
        self._tick += len(lpns)
        block.mtime = self._tick

    def _relocate(self, lpns: Sequence[int]) -> None:
        """GC moves: program a victim's survivors (in order) at the write
        point, one piece per block they fill — what moving them one page
        at a time does — and count them as moved pages."""
        pages_per_block = self.geometry.pages_per_block
        report = self._gc_report
        done, total = 0, len(lpns)
        while done < total:
            space = pages_per_block - self._active.next_page
            count = min(space if space > 0 else pages_per_block, total - done)
            self._program(lpns[done : done + count])
            done += count
            self.total_moved_pages += count
            if report is not None:
                report.moved_pages += count

    def _open_new_active(self) -> _BlockInfo:
        if not self._free:
            raise DeviceFullError("FTL has no free blocks and GC could not help")
        self._gc_active.discard(self._active.index)
        self._active = self._blocks[self._free.pop()]
        self._gc_active.add(self._active.index)
        return self._active

    def _drain(self, report: FtlWriteReport) -> bool:
        """The trigger fired: drain to the target watermark; True (the
        pool moved, so the trigger must be asked again)."""
        report.gc_runs += 1
        self._gc_report = report
        try:
            self.reclaim.drain_to_target()
        finally:
            self._gc_report = None
        return True
