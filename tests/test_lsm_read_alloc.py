"""Structural guard for the LSM point-read path.

``Db.get`` answers from the serialized block: it must not decode the
block (a full decode holds about twice the block size in key and value
slices), must not construct a ``DataBlock``, must not rebuild a level's
fence list, and must hash the key at most once however many tables it
probes.  None of that changes a simulated number, so no golden notices a
regression; ``tracemalloc`` and two counters do, on any machine.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from repro.flash import HddConfig, HddDevice
from repro.lsm import DataBlock, Db, DbConfig
from repro.lsm import bloom as bloom_module
from repro.lsm.compaction import CompactionConfig
from repro.sim import SimClock
from repro.units import KIB, MIB

NUM_KEYS = 6000


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


def test_cached_gets_hold_no_block_sized_transient(db, monkeypatch):
    block_size = db.config.compaction.block_size
    keys = [_key(i * 13 % 200) for i in range(1000)]  # 200 keys: ~20 hot blocks
    for key in keys:
        db.get(key)  # warm the DRAM block cache

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
    fences = [id(level) for level in db.version._fences]
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
            assert len(digests) <= 1, f"{len(digests)} blake2b digests for one get"
    finally:
        tracemalloc.stop()

    assert dram.total > lookups_before and (
        dram.total - lookups_before == dram.hits - hits_before
    ), "the measured gets were meant to hit the DRAM block cache"
    assert worst < block_size // 4, (
        f"a cached get transiently held {worst}B (a data block is {block_size}B) "
        "— something decodes or copies the block again"
    )
    assert not decodes, "Db.get constructed a DataBlock"
    assert fences == [id(level) for level in db.version._fences], (
        "a level's fence list was rebuilt by a lookup"
    )
