"""Structural guard for the cost of the LSM write path — the write-side
twin of ``test_lsm_read_alloc.py``.

``Db.put`` appends one WAL record and stores one memtable entry; every
``memtable_bytes`` it flushes the memtable into an L0 table, and a flush
may trigger a compaction that decodes its input tables and frames the
merged run into new ones.  The per-entry work of a table build — framing
(``DataBlockBuilder.add_run``), block decoding (``index_entries``) and
the bloom filter (``BloomFilter.for_keys``) — runs in one loop or one
array kernel each, so a flush or a merge of N entries enters O(blocks)
Python frames, not O(N).  None of that changes a simulated number, so no
golden notices a regression; ``sys.setprofile`` does, on any machine.
That the bytes stay the same is pinned by ``test_prop_lsm_codec.py``.
"""

from __future__ import annotations

from repro.flash import HddConfig, HddDevice
from repro.lsm import Db, DbConfig
from repro.lsm.compaction import CompactionConfig
from repro.sim import SimClock
from repro.units import MIB
from tests.helpers import python_calls

N = 5_000
# Frames per Db.put or Db.delete that neither fills a WAL block nor
# flushes: the call itself, WriteAheadLog.append and Memtable.put (the
# commit before: 7, through _check_open, SimClock.advance, _wal_append
# and the Memtable.is_full property).
MAX_FRAMES_PER_PUT = 3


def _db(l0_trigger: int = 4) -> Db:
    clock = SimClock()
    config = DbConfig(
        memtable_bytes=1 * MIB, compaction=CompactionConfig(l0_trigger=l0_trigger)
    )
    return Db(clock, HddDevice(clock, HddConfig(capacity_bytes=64 * MIB)), config)


def _put_all(db: Db, keys) -> None:
    for i in keys:
        db.put(b"user%012d" % (i * 7919 % N), b"val%09d" % i)


def test_memtable_flush_makes_calls_per_block_not_per_entry():
    """An L0 flush of N entries (the commit before: 25,295 calls)."""
    db = _db()
    _put_all(db, range(N))
    assert len(db.memtable) == N and db.stats.memtable_flushes == 0
    calls = python_calls(db.flush_memtable)
    assert db.stats.memtable_flushes == 1 and db.compactor.compactions_run == 0
    assert len(calls) < N / 8, sorted(set(calls))


def test_compaction_makes_calls_per_block_not_per_entry():
    """The flush of a second L0 table that merges both into L1: the
    inputs decode and the merged run frames in per-block calls.  Reading
    a block through the HDD model alone enters about 15 frames, so the
    bound is looser than a flush's (the commit before: 43,663)."""
    db = _db(l0_trigger=2)
    _put_all(db, range(0, N, 2))
    db.flush_memtable()
    _put_all(db, range(1, N, 2))
    calls = python_calls(db.flush_memtable)
    assert db.compactor.compactions_run == 1
    assert sum(t.num_entries for t in db.version.levels[1]) == N
    assert len(calls) < N / 4, sorted(set(calls))


def test_frames_per_put_that_neither_fills_a_wal_block_nor_flushes():
    db = _db()
    db.put(b"warm", b"up")  # not the first call of anything
    for op in (lambda: db.put(b"key", b"value"), lambda: db.delete(b"key")):
        blocks_before = db.wal.bytes_flushed
        frames = python_calls(op)
        assert db.wal.bytes_flushed == blocks_before
        assert db.stats.memtable_flushes == 0
        assert len(frames) <= MAX_FRAMES_PER_PUT, frames
