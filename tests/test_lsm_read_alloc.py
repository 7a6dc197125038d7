"""Structural guard for the LSM point-read path.

``Db.get`` answers from the block bytes through a pinned entry index: it
decodes a data block once per block per table (``SSTable.index_block``,
the first time a lookup lands there) and never per get, constructs no
``DataBlock``, rebuilds no level's fence list, hashes a key only to
build its read plan (never on a get that has one), and enters at most
``MAX_FRAMES_PER_DRAM_HIT`` Python frames when the block is in the DRAM
block cache.  None of that changes a simulated number, so no golden
notices a regression; ``tracemalloc``, ``sys.setprofile`` and a few
counters do, on any machine.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from repro.flash import HddConfig, HddDevice
from repro.lsm import DataBlock, Db, DbConfig, SSTable
from repro.lsm import bloom as bloom_module
from repro.lsm.compaction import CompactionConfig
from repro.sim import SimClock
from repro.units import KIB, MIB
from tests.helpers import python_calls

NUM_KEYS = 6000
# Frames per planned get served from one block in the DRAM block cache:
# Db.get, Memtable.get, Db._search_tables, BlockCache.get (5 before read
# plans, 15.7 before the pinned entry index).
MAX_FRAMES_PER_DRAM_HIT = 4


def _key(i: int) -> bytes:
    return b"user%012d" % i


def _value(i: int) -> bytes:
    return b"val%09d" % i * 5


@pytest.fixture(scope="module")
def db() -> Db:
    """A three-level tree (L0, L1 and L2 all populated) whose hot blocks
    fit the DRAM block cache."""
    clock = SimClock()
    config = DbConfig(
        memtable_bytes=32 * KIB,
        block_cache_bytes=1 * MIB,
        wal_bytes=256 * KIB,
        compaction=CompactionConfig(
            l0_trigger=3, l1_target_bytes=128 * KIB, max_table_bytes=64 * KIB
        ),
    )
    db = Db(clock, HddDevice(clock, HddConfig(capacity_bytes=64 * MIB)), config)
    for i in range(NUM_KEYS):
        db.put(_key(i * 7919 % NUM_KEYS), _value(i * 7919 % NUM_KEYS))
    db.flush_memtable()
    for i in range(0, 200, 3):  # rewritten keys: the last flush stays in L0
        db.put(_key(i), _value(i))
    db.flush_memtable()
    assert sum(1 for level in db.version.levels if level) >= 3, db.level_stats()
    return db


@pytest.fixture
def index_builds(monkeypatch):
    """(table id, block) of every entry index built while the test runs;
    building one a table already holds fails on the spot."""
    builds = []
    real = SSTable.index_block

    def counted(table, block, blob):
        assert table.entry_indexes[block] is None, (
            f"table {table.table_id} block {block} indexed twice"
        )
        builds.append((table.table_id, block))
        return real(table, block, blob)

    monkeypatch.setattr(SSTable, "index_block", counted)
    return builds


def test_cached_gets_hold_no_block_sized_transient(db, monkeypatch, index_builds):
    """Decodes once per block per table, never per get; after warm-up a
    cached get holds no block-sized transient."""
    block_size = db.config.compaction.block_size
    keys = [_key(i * 13 % 200) for i in range(1000)]  # 200 keys: ~20 hot blocks
    for key in keys:
        db.get(key)  # warm the DRAM block cache and the entry indexes
    assert len(index_builds) == len(set(index_builds))
    warm_builds = len(index_builds)

    decodes, digests = [], []
    real_init, real_blake2b = DataBlock.__init__, hashlib.blake2b
    monkeypatch.setattr(
        DataBlock, "__init__",
        lambda self, blob: (decodes.append(1), real_init(self, blob))[1],
    )
    monkeypatch.setattr(
        bloom_module.hashlib, "blake2b",
        lambda *a, **kw: (digests.append(1), real_blake2b(*a, **kw))[1],
    )
    fences = [id(level) for level in db.version.fences]
    dram = db.block_cache.dram_lookups
    hits_before, lookups_before = dram.hits, dram.total

    worst = 0
    tracemalloc.start()
    try:
        for i, key in enumerate(keys):
            digests.clear()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            value = db.get(key)
            after, peak = tracemalloc.get_traced_memory()
            # Transient = above both ends; the returned value is not one.
            worst = max(worst, peak - max(before, after))
            assert value == _value(i * 13 % 200)
            assert not digests, f"{len(digests)} blake2b digests for a planned get"
    finally:
        tracemalloc.stop()

    assert dram.total > lookups_before and (
        dram.total - lookups_before == dram.hits - hits_before
    ), "the measured gets were meant to hit the DRAM block cache"
    assert worst < block_size // 4, (
        f"a cached get transiently held {worst}B (a data block is {block_size}B) "
        "— something decodes or copies the block again"
    )
    assert len(index_builds) == warm_builds, "a warm get rebuilt an entry index"
    assert not decodes, "Db.get constructed a DataBlock"
    assert fences == [id(level) for level in db.version.fences], (
        "a level's fence list was rebuilt by a lookup"
    )


def test_frames_per_get_that_hits_the_dram_block_cache(db):
    keys = [_key(i * 17 % 200) for i in range(400)]
    for key in keys:
        db.get(key)  # blocks in DRAM, entry indexes built
    dram = db.block_cache.dram_lookups
    hits_before, lookups_before = dram.hits, dram.total

    def get_all():
        for key in keys:
            db.get(key)

    frames = python_calls(get_all)
    lookups = dram.total - lookups_before
    assert lookups == dram.hits - hits_before >= len(keys)
    # A bloom false positive sends a get to a second block first: one
    # more BlockCache.get frame for each such fetch, not a frame per get.
    per_get = (len(frames) - (lookups - len(keys))) / len(keys)
    assert per_get <= MAX_FRAMES_PER_DRAM_HIT, sorted(set(frames))
