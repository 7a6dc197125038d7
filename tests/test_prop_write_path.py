"""Differential properties for the run-granular write path.

The flush path works a run at a time — one slice store per run into a
section's block owners (its validity bitmap: a block is valid when it
has an owner), one NAT update and one SIT call per run of a
``pwrite``, one page placement per run of an FTL write with the GC
trigger asked only where its answer can change.  Each of those replaced
a per-unit loop; the loops are kept *here*, as the reference, and
hypothesis drives both through the same random sequences:

* the SIT's ``mark_valid_run`` / ``mark_invalid_run`` against a loop of
  single-block owner updates (overlapping, already-valid, section-edge
  and out-of-range runs);
* two ``F2fs`` instances, one remapping per block as it used to, through
  random ``pwrite`` / overwrite / ``delete`` sequences small enough to
  clean — same SIT, NAT, node map, cleaner recency, stats and clock;
* two FTLs small enough to GC, one polling the trigger before every page
  and placing pages one at a time, its GC walking every page of a victim
  and moving survivors one by one — same victims, mapping, block tables,
  trigger points (``gc_runs``) and GC work (moved pages, erased blocks);
* and, on the engine, the ownership rule of the one-map-per-region
  design: after any get/set/delete/TTL sequence a region's key map is
  exactly the index entries that point into it, ``live_bytes`` their sum.
"""

from __future__ import annotations

import functools
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache import CacheConfig, HybridCache
from repro.cache.backends import BlockRegionStore
from repro.errors import DeviceFullError, NoSpaceError
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig, SegmentInfoTable, fsck
from repro.f2fs.segment import LogStream
from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    FtlConfig,
    NandGeometry,
    NullBlkDevice,
    ZnsConfig,
    ZnsSsd,
)
from repro.flash.ftl import FtlWriteReport, PageMappedFtl, _FtlReclaimSource
from repro.reclaim import GcHints, UnitOutcome
from repro.sim import SimClock
from repro.units import KIB, MIB

PAGE = 4 * KIB
SLOW_OK = [HealthCheck.too_slow]


# --- SIT: one slice store per run vs a loop of single-block updates -------------


@settings(max_examples=60, deadline=None)
@given(
    num_slots=st.integers(1, 70),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(-3, 75), st.integers(-1, 75)),
        max_size=30,
    ),
)
def test_bitmap_runs_equal_loops_of_single_slots(num_slots, ops):
    """A section's validity bitmap is its set of owned blocks: a run
    store equals a loop of single-block stores into a plain list, and a
    run outside the section raises ``IndexError`` and changes nothing.
    Runs are addressed by their first block, so an empty run starting
    past the section's last block is outside it too."""
    sit = SegmentInfoTable(1, num_slots)
    entry = sit.sections[0]
    owners = [None] * num_slots
    for step, (setting, start, count) in enumerate(ops):
        if start < 0 or count < 0 or start >= num_slots or start + count > num_slots:
            with pytest.raises(IndexError):
                if setting:
                    sit.mark_valid_run(start, count, step, 0)
                else:
                    sit.mark_invalid_run(start, count)
        else:
            for slot in range(start, start + count):
                owners[slot] = (step, slot - start) if setting else None
            if setting:
                sit.mark_valid_run(start, count, step, 0)
            else:
                sit.mark_invalid_run(start, count)
        valid = num_slots - owners.count(None)
        assert entry.owners == owners
        assert entry.valid_count == sit.total_valid_blocks == valid
        assert sit.valid_blocks(0) == [i for i, o in enumerate(owners) if o is not None]


# --- F2fs: the run-at-a-time remap vs the per-block loop -------------------------


def _make_fs() -> F2fs:
    """16 sections of 32 blocks, 12 usable — twice what the two files
    can hold live, so the cleaner always finds room (tighter, and the
    known small-filesystem wedge of ROADMAP item 1 cuts a run short);
    a few hundred blocks of writes roll every log head and start it."""
    clock = SimClock()
    geometry = NandGeometry(page_size=PAGE, pages_per_block=8, num_blocks=64)
    zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=4 * geometry.block_size))
    meta = NullBlkDevice(clock, capacity_bytes=4 * MIB)
    fs = F2fs(
        clock, zns, meta,
        F2fsConfig(
            provision_ratio=0.25, checkpoint_interval_blocks=1 << 30, blocks_per_node=24
        ),
        CleanerConfig(low_watermark=3, pace_blocks=8),
    )
    fs.mkfs()
    return fs


def _reference_write_blocks(fs: F2fs, addresses, data) -> None:
    """``F2fs._write_blocks`` as it coalesced runs before ``_section_runs``."""
    block_size = fs.layout.block_size
    items = []
    i = 0
    while i < len(addresses):
        j = i
        while (
            j + 1 < len(addresses)
            and addresses[j + 1] == addresses[j] + 1
            and fs.layout.block_offset_in_section(addresses[j + 1]) != 0
        ):
            j += 1
        payload = data[i * block_size : (j + 1) * block_size]
        items.append((fs.layout.device_offset(addresses[i]), payload))
        fs.stats.data_write_bytes += len(payload)
        i = j + 1
    fs.data_device.write_many(items)


def _reference_pwrite(fs: F2fs, file_id: int, offset: int, data: bytes) -> int:
    """``F2fs.pwrite`` with the per-block remap loop it used to run."""
    block_size = fs.layout.block_size
    data = memoryview(data)
    num_blocks = len(data) // block_size
    first_block = offset // block_size
    new_blocks = sum(
        1
        for i in range(num_blocks)
        if fs.nat.get_block(file_id, first_block + i) is None
    )
    if fs.live_bytes + new_blocks * block_size > fs.usable_bytes:
        raise NoSpaceError("reference: no space")
    start_ns = fs._clock.now
    with fs.tracer.span("f2fs", "pwrite", offset=offset, length=len(data)):
        fs._clock.advance(fs.config.cpu_ns_per_block * num_blocks)
        addresses = fs._allocate_with_cleaning(LogStream.HOT_DATA, num_blocks)
        _reference_write_blocks(fs, addresses, data)
        for i, block_addr in enumerate(addresses):
            file_block = first_block + i
            old = fs.nat.set_block(file_id, file_block, block_addr)
            if old is not None:
                fs.sit.mark_invalid(old)
            fs.sit.mark_valid(block_addr, (file_id, file_block))
            fs._note_section_written(fs.layout.section_of_block(block_addr))
        fs.nat.update_size(file_id, offset + len(data))
        touched_groups = {
            (first_block + i) // fs.config.blocks_per_node for i in range(num_blocks)
        }
        for group in touched_groups:
            fs._write_node_block(file_id, group)
        fs.stats.host_write_bytes += len(data)
        fs._note_meta_updates(num_blocks)
        fs._blocks_since_checkpoint += num_blocks
        fs.reclaim.background_step()
    return fs._clock.now - start_ns


def _reference_fs() -> F2fs:
    """An ``F2fs`` whose SIT marks one block at a time, one owner store
    per block (``delete`` and the cleaner go through these too), and
    whose ``pwrite`` remaps block by block."""
    fs = _make_fs()
    sit = fs.sit

    def mark_valid(block_addr, owner):
        section, slot = divmod(block_addr, sit.blocks_per_section)
        entry = sit.sections[section]
        if entry.owners[slot] is None:
            entry.valid_count += 1
            sit.total_valid_blocks += 1
        entry.owners[slot] = owner

    def mark_invalid(block_addr):
        section, slot = divmod(block_addr, sit.blocks_per_section)
        entry = sit.sections[section]
        if entry.owners[slot] is not None:
            entry.owners[slot] = None
            entry.valid_count -= 1
            sit.total_valid_blocks -= 1

    sit.mark_valid, sit.mark_invalid = mark_valid, mark_invalid
    fs.pwrite = functools.partial(_reference_pwrite, fs)
    return fs


def _fs_state(fs: F2fs):
    return (
        fs.sit.to_state(),
        [(entry.owners, entry.valid_count) for entry in fs.sit.sections],
        fs.sit.total_valid_blocks,
        fs.nat.to_state(),
        dict(fs._node_addr),
        list(fs._section_mtime),
        fs._write_tick,
        fs.logs.to_state(),
        fs.stats,
        fs._clock.now,
    )


def _drive_both_filesystems(ops) -> F2fs:
    """Apply ``ops`` — ``(name, block, extent, tag)`` writes and
    ``(name,)`` deletes — to both filesystems, comparing after each."""
    runs, blocks = _make_fs(), _reference_fs()
    for op in ops:
        outcomes = []
        for fs in (runs, blocks):
            name = op[0]
            try:
                if len(op) == 1:
                    if fs.exists(name):
                        fs.delete(name)
                else:
                    _, block, extent, tag = op
                    handle = fs.open(name) if fs.exists(name) else fs.create(name)
                    handle.pwrite(block * PAGE, bytes([tag]) * (extent * PAGE))
                outcomes.append(None)
            except NoSpaceError:
                outcomes.append(NoSpaceError)
        assert outcomes[0] is outcomes[1]
        assert _fs_state(runs) == _fs_state(blocks)
    for fs in (runs, blocks):
        report = fsck(fs)
        assert report.clean, report.errors[:3]
    for name in ("a", "b"):
        if runs.exists(name):
            size = runs.nat.size_of(runs.nat.lookup_file(name))
            assert runs.open(name).pread(0, size) == blocks.open(name).pread(0, size)
    return runs


def _random_fs_ops(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [
        (rng.choice("ab"),)
        if rng.random() < 0.04
        else (rng.choice("ab"), rng.randrange(50), rng.randrange(1, 41), rng.randrange(256))
        for _ in range(count)
    ]


@settings(max_examples=12, deadline=None, suppress_health_check=SLOW_OK)
@given(
    seed=st.integers(0, 1 << 16),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["a", "b"]), st.integers(0, 50), st.integers(1, 40),
                st.integers(0, 255),
            ),
            st.tuples(st.sampled_from(["a", "b"])),
        ),
        max_size=60,
    ),
)
def test_f2fs_run_remap_equals_per_block_remap(seed, ops):
    """A seeded prefix ages the filesystem into cleaning; the drawn
    operations then land on fragmented maps and rolling log heads."""
    _drive_both_filesystems(_random_fs_ops(seed, 40) + ops)


def test_f2fs_run_remap_equals_per_block_remap_under_cleaning():
    fs = _drive_both_filesystems(_random_fs_ops(24, 250))
    stats = fs.reclaim.stats
    assert stats.victims_reclaimed > 20 and stats.units_migrated > 100


# --- FTL: one poll per trigger point vs one per page -----------------------------


class _PerPageSource(_FtlReclaimSource):
    """GC as it was: every page of the victim is a unit (invalid ones
    SKIPPED), and each survivor is moved the moment it is met."""

    def pending_units(self, block_index: int):
        return list(range(self.ftl.geometry.pages_per_block - 1, -1, -1))

    def migrate_unit(self, block_index: int, page_idx: int) -> UnitOutcome:
        ftl = self.ftl
        block = ftl._blocks[block_index]
        lpn = block.lpns[page_idx]
        if lpn is None:
            return UnitOutcome.SKIPPED
        hints = self.hints
        if hints is not None:
            region_id = lpn // self.region_pages
            if region_id < self.num_regions and not hints.migration_worth(region_id):
                start = region_id * self.region_pages
                ftl.discard_pages(range(start, start + self.region_pages))
                hints.on_drop(region_id)
                return UnitOutcome.DROPPED
        block.lpns[page_idx] = None
        block.valid_count -= 1
        ftl._program_one(lpn)
        ftl.total_moved_pages += 1
        if ftl._gc_report is not None:
            ftl._gc_report.moved_pages += 1
        return UnitOutcome.MIGRATED


class _PerPageFtl(PageMappedFtl):
    """The FTL's write path as it was: the GC trigger polled before every
    page, ``_invalidate`` and a one-page ``_program`` per page, GC moving
    pages through that same one-page ``_program``."""

    def __init__(self, geometry, config) -> None:
        super().__init__(geometry, config)
        self.reclaim.source = _PerPageSource(self)

    def write_pages(self, lpns):
        report = FtlWriteReport()
        for lpn in lpns:
            if not 0 <= lpn < self.logical_pages:
                raise DeviceFullError(f"lpn {lpn} outside logical space")
            if self.reclaim.needs_reclaim():
                report.gc_runs += 1
                self._gc_report = report
                try:
                    self.reclaim.drain_to_target()
                finally:
                    self._gc_report = None
            self._invalidate(lpn)
            self._program_one(lpn)
            report.host_pages += 1
        self.total_host_pages += report.host_pages
        return report

    def discard_pages(self, lpns):
        for lpn in lpns:
            self._invalidate(lpn)
            self._l2p.pop(lpn, None)

    def _invalidate(self, lpn):
        loc = self._l2p.get(lpn)
        if loc is None:
            return
        block = self._blocks[loc[0]]
        if block.lpns[loc[1]] == lpn:
            block.lpns[loc[1]] = None
            block.valid_count -= 1

    def _program_one(self, lpn):
        if self._active.next_page >= self.geometry.pages_per_block:
            self._open_new_active()
        block = self._active
        page_idx = block.next_page
        block.lpns[page_idx] = lpn
        block.valid_count += 1
        block.next_page += 1
        self._tick += 1
        block.mtime = self._tick
        self._l2p[lpn] = (block.index, page_idx)


def _ftl_state(ftl: PageMappedFtl):
    return (
        dict(ftl._l2p),
        [(list(b.lpns), b.valid_count, b.next_page, b.mtime) for b in ftl._blocks],
        list(ftl._free),
        ftl._active.index,
        sorted(ftl._gc_active),
        ftl._tick,
        ftl.total_host_pages,
        ftl.total_moved_pages,
        ftl.total_erased_blocks,
        ftl.reclaim.stats.triggers,
        ftl.reclaim.stats.victims_reclaimed,
        ftl.reclaim.stats.units_migrated,
        ftl.reclaim.stats.copied_bytes,
    )


def _log_victims(ftl: PageMappedFtl) -> list:
    """The blocks ``ftl``'s GC erases, in order, from now on."""
    victims = []
    source = ftl.reclaim.source
    release = source.release_victim

    def logged(block_index):
        victims.append(block_index)
        release(block_index)

    source.release_victim = logged
    return victims


def _bind_hints(ftl: PageMappedFtl) -> list:
    """§3.4 hints over 2-page regions: about one ask in three condemns
    its region (discarded ahead instead of moved); returns the drops, in
    order.  The answer depends on how many asks came before, so a region
    can be worth moving for one page of a victim and condemned at the
    next — the order of moves and discards then shows in the mapping."""
    drops = []
    asks = itertools.count()
    source = ftl.reclaim.source
    source.region_pages, source.num_regions = 2, 18
    source.hints = GcHints(
        lambda region_id: (next(asks) + region_id) % 3 != 0, drops.append
    )
    return drops


def _drive_both_ftls(policy: str, ops, hinted: bool = False) -> PageMappedFtl:
    """Apply ``ops`` — ``(discard?, lpns)`` — to both FTLs, comparing
    state, the victims erased (and, ``hinted``, the regions dropped)
    and the trigger count after each."""
    geometry = NandGeometry(page_size=PAGE, pages_per_block=4, num_blocks=16)
    config = FtlConfig(0.25, 2, 4, gc_policy=policy)
    runs, pages = PageMappedFtl(geometry, config), _PerPageFtl(geometry, config)
    assert runs.logical_pages >= 40
    victims = (_log_victims(runs), _log_victims(pages))
    drops = (_bind_hints(runs), _bind_hints(pages)) if hinted else ([], [])
    gc_runs = [0, 0]
    for discard, lpns in ops:
        for side, ftl in enumerate((runs, pages)):
            if discard:
                ftl.discard_pages(lpns)
            else:
                report = ftl.write_pages(lpns)
                assert report.host_pages == len(lpns)
                gc_runs[side] += report.gc_runs
        assert _ftl_state(runs) == _ftl_state(pages)
        assert victims[0] == victims[1]
        assert drops[0] == drops[1]
        assert gc_runs[0] == gc_runs[1]
    return runs


def _random_ftl_ops(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [
        (rng.random() < 0.1, [rng.randrange(40) for _ in range(rng.randrange(1, 15))])
        for _ in range(count)
    ]


@settings(max_examples=25, deadline=None, suppress_health_check=SLOW_OK)
@given(
    policy=st.sampled_from(["greedy", "cost_benefit"]),
    seed=st.integers(0, 1 << 16),
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.lists(st.integers(0, 39), min_size=1, max_size=14),
        ),
        max_size=60,
    ),
)
def test_ftl_run_writes_equal_per_page_writes(policy, seed, ops):
    """A seeded prefix fills the device to its GC watermark; the drawn
    runs (duplicates within a run included) then trigger drains."""
    _drive_both_ftls(policy, _random_ftl_ops(seed, 12) + ops)


@pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
def test_ftl_run_writes_equal_per_page_writes_under_gc(policy):
    ftl = _drive_both_ftls(policy, _random_ftl_ops(24, 400))
    assert ftl.total_erased_blocks > 100 and ftl.total_moved_pages > 100


@pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
def test_run_gc_equals_per_page_gc_with_discard_ahead_hints(policy):
    """Survivors staged before a condemned page move before its region
    is discarded, exactly where the per-page loop moved them."""
    ftl = _drive_both_ftls(policy, _random_ftl_ops(31, 400), hinted=True)
    stats = ftl.reclaim.stats
    assert stats.hint_dropped_units > 20 and ftl.total_moved_pages > 100


# --- engine: one key map per region, owned by whoever holds the region -----------

REGION = 16 * KIB


def _make_cache() -> tuple:
    clock = SimClock()
    geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=128)
    device = BlockSsd(clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)))
    store = BlockRegionStore(device, REGION, 5)
    config = CacheConfig(region_size=REGION, num_regions=5, ram_bytes=2 * KIB)
    return HybridCache(clock, store, config), clock


def _assert_key_maps_are_the_index(cache: HybridCache) -> None:
    by_region: dict = {}
    for key, location in cache.index.items():
        by_region.setdefault(location.region_id, {})[key] = location.length
    open_id = cache._buffer.region_id
    assert cache._open_entries == by_region.pop(open_id, {})
    sealed = cache.regions._sealed
    assert set(by_region) <= set(sealed)
    for region_id, meta in sealed.items():
        assert meta.keys == by_region.get(region_id, {})
        assert meta.live_bytes == sum(meta.keys.values())
    ledger = cache.regions.ledger
    assert ledger.total_dead_bytes >= cache.regions.sealed_dead_bytes()


def _drive_cache(ops) -> HybridCache:
    cache, clock = _make_cache()
    for kind, key_index, size in ops:
        key = b"key-%03d" % key_index
        if kind == "set":
            cache.set(key, bytes([key_index]) * size)
        elif kind == "ttl":
            cache.set(key, bytes([key_index]) * size, ttl_seconds=size / 1e6)
        elif kind == "get":
            value = cache.get(key)
            assert value is None or value[:1] == bytes([key_index])
        elif kind == "delete":
            cache.delete(key)
        else:
            clock.advance(size * 1000)
        _assert_key_maps_are_the_index(cache)
    cache.flush()
    _assert_key_maps_are_the_index(cache)
    return cache


_CACHE_OPS = ["set", "set", "set", "ttl", "get", "delete", "tick"]


def _random_cache_ops(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [
        (rng.choice(_CACHE_OPS), rng.randrange(31), rng.randrange(100, 4001))
        for _ in range(count)
    ]


@settings(max_examples=20, deadline=None, suppress_health_check=SLOW_OK)
@given(
    seed=st.integers(0, 1 << 16),
    ops=st.lists(
        st.tuples(
            st.sampled_from(_CACHE_OPS), st.integers(0, 30), st.integers(100, 4000)
        ),
        max_size=100,
    ),
)
def test_region_key_maps_equal_the_index(seed, ops):
    """A seeded prefix fills the five regions; the drawn operations then
    overwrite across sealed regions and evict."""
    _drive_cache(_random_cache_ops(seed, 80) + ops)


def test_region_key_maps_equal_the_index_under_eviction():
    cache = _drive_cache(_random_cache_ops(24, 800))
    ledger = cache.regions.ledger
    assert cache.regions.regions_evicted > 20
    assert all(ledger.dead_items[why] for why in ("expired", "deleted", "overwritten"))
