"""Crash-recovery and scan tests for the LSM store."""

import bisect
import random

import pytest

from repro.errors import LsmError
from repro.flash import HddConfig, HddDevice, NullBlkDevice
from repro.lsm import Db, DbConfig, Manifest, SSTable, merge_sources, scan_range
from repro.lsm.compaction import TOMBSTONE, CompactionConfig
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.table_space import TableSpace
from repro.sim import SimClock
from repro.units import KIB, MIB


def make_db(device=None, clock=None):
    clock = clock or SimClock()
    device = device or HddDevice(clock, HddConfig(capacity_bytes=64 * MIB))
    config = DbConfig(
        memtable_bytes=32 * KIB,
        block_cache_bytes=16 * KIB,
        wal_bytes=256 * KIB,
        compaction=CompactionConfig(
            l0_trigger=3, l1_target_bytes=256 * KIB, max_table_bytes=64 * KIB
        ),
    )
    return Db(clock, device, config), device, clock, config


def key(i: int) -> bytes:
    return f"user{i:08d}".encode()


class TestSSTablePersistence:
    def test_open_from_footer(self):
        clock = SimClock()
        space = TableSpace(NullBlkDevice(clock, capacity_bytes=4 * MIB))
        builder = SSTableBuilder(7, space)
        for i in range(200):
            builder.add(key(i), f"value{i}".encode())
        table = builder.finish()
        reopened = SSTable.open(space, table.extent_offset, table.extent_size)
        assert reopened.table_id == 7
        assert reopened.smallest == key(0)
        assert reopened.largest == key(199)
        assert reopened.num_entries == 200
        block = bisect.bisect_right(reopened.index_keys, key(123)) - 1
        handle = reopened.index_handles[block]
        from repro.lsm.block import DataBlock

        assert DataBlock(reopened.read_block(space.device, handle)).get(key(123)) == b"value123"
        assert reopened.entry_indexes == [None] * len(reopened.index_handles)
        # A handle is compared by identity: the same bytes reopened are
        # another handle, and it keeps no device or space of its own.
        assert reopened != table and reopened == reopened
        assert not hasattr(reopened, "space")

    def test_open_garbage_rejected(self):
        clock = SimClock()
        device = NullBlkDevice(clock, capacity_bytes=1 * MIB)
        space = TableSpace(device)
        offset = space.allocate(64 * KIB)
        with pytest.raises(LsmError):
            SSTable.open(space, offset, 64 * KIB)


class TestManifest:
    def test_store_load_roundtrip(self):
        clock = SimClock()
        device = NullBlkDevice(clock, capacity_bytes=1 * MIB)
        manifest = Manifest(device, offset=0, size=64 * KIB)
        levels = [[(1, 4096, 8192)], [], [(2, 16384, 8192), (3, 32768, 8192)]]
        manifest.store(levels, next_table_id=9, wal_epoch=4)
        state = manifest.load()
        assert state["levels"] == levels
        assert state["next_table_id"] == 9
        assert state["wal_epoch"] == 4

    def test_load_empty_returns_none(self):
        clock = SimClock()
        device = NullBlkDevice(clock, capacity_bytes=1 * MIB)
        manifest = Manifest(device, offset=0, size=64 * KIB)
        assert manifest.load() is None


class TestCrashRecovery:
    def test_recover_flushed_and_unflushed_data(self):
        db, device, clock, config = make_db()
        expected = {}
        for i in range(2000):  # enough to flush + compact several times
            db.put(key(i), f"value{i}".encode())
            expected[i] = f"value{i}".encode()
        # Some unflushed tail in the memtable + WAL:
        for i in range(2000, 2050):
            db.put(key(i), f"tail{i}".encode())
            expected[i] = f"tail{i}".encode()
        assert len(db.memtable) > 0  # the tail is volatile
        db.sync_wal()  # fsync: the tail becomes durable
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        for i in range(0, 2050, 13):
            assert recovered.get(key(i)) == expected[i], i
        assert recovered.get(key(2049)) == expected[2049]

    def test_recover_deletes(self):
        db, device, clock, config = make_db()
        for i in range(500):
            db.put(key(i), b"v")
        db.delete(key(100))
        db.sync_wal()
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        assert recovered.get(key(100)) is None
        assert recovered.get(key(101)) == b"v"

    def test_recover_empty_wal(self):
        db, device, clock, config = make_db()
        for i in range(200):
            db.put(key(i), b"v")
        db.flush_memtable()  # WAL now empty
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        assert recovered.get(key(5)) == b"v"

    @pytest.mark.parametrize("flushed_before", [False, True])
    def test_synced_write_after_a_reopen_that_replayed_nothing_survives(
        self, flushed_before
    ):
        """Regression: a reopen with nothing to replay started a new WAL
        epoch without writing it to the manifest, so the next recovery
        replayed the old epoch and lost every record synced after the
        first reopen — with or without a table on the device."""
        db, device, clock, config = make_db()
        if flushed_before:
            db.put(key(0), b"flushed")
            db.flush_memtable()
        db.simulate_crash()
        db = Db.reopen(clock, device, config)
        db.put(key(1), b"synced")
        db.sync_wal()
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        assert recovered.get(key(1)) == b"synced"
        assert recovered.get(key(0)) == (b"flushed" if flushed_before else None)

    def test_reopen_fresh_device_is_empty(self):
        """Crash before the first flush: only the WAL exists (or nothing)."""
        clock = SimClock()
        device = HddDevice(clock, HddConfig(capacity_bytes=16 * MIB))
        recovered = Db.reopen(clock, device)
        assert recovered.get(key(1)) is None
        recovered.put(key(1), b"v")
        assert recovered.get(key(1)) == b"v"

    def test_recovered_db_keeps_working(self):
        db, device, clock, config = make_db()
        for i in range(300):
            db.put(key(i), b"old")
        db.sync_wal()
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        for i in range(300, 600):
            recovered.put(key(i), b"new")
        assert recovered.get(key(0)) == b"old"
        assert recovered.get(key(599)) == b"new"

    @pytest.mark.parametrize("pad", range(1, 9))
    def test_synced_record_after_short_sync_padding_survives(self, pad):
        """A sync that pads the WAL block tail with fewer bytes than a
        record's length field must not hide the records synced after it."""
        db, device, clock, config = make_db()
        # WAL record: [len u32][kind u8][key_len u16][key][value]
        payload = device.block_size - 4  # minus the block's epoch header
        filler = payload - pad - (4 + 1 + 2 + len(b"k0"))
        db.put(b"k0", b"x" * filler)
        db.sync_wal()
        db.put(b"k1", b"after the pad")
        db.sync_wal()
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        assert recovered.get(b"k0") == b"x" * filler
        assert recovered.get(b"k1") == b"after the pad"

    def test_crash_loses_nothing_durable(self):
        """Property-style: random ops with WAL syncs at random points,
        crash, recover.  Small device blocks make every sync padding
        length, short ones included, likely."""
        rng = random.Random(41)
        clock = SimClock()
        db, device, clock, config = make_db(
            HddDevice(clock, HddConfig(capacity_bytes=64 * MIB, block_size=512)),
            clock,
        )
        model = {}
        for step in range(1500):
            i = rng.randrange(400)
            if rng.random() < 0.8:
                value = f"v{step}".encode() * rng.randrange(1, 20)
                db.put(key(i), value)
                model[i] = value
            else:
                db.delete(key(i))
                model.pop(i, None)
            if rng.random() < 0.3:
                db.sync_wal()
        db.sync_wal()
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        for i in range(400):
            assert recovered.get(key(i)) == model.get(i), i


class TestScan:
    def test_merge_precedence(self):
        newer = iter([(b"a", b"\x01new"), (b"c", b"\x01c")])
        older = iter([(b"a", b"\x01old"), (b"b", b"\x01b")])
        merged = dict(merge_sources([newer, older]))
        assert merged[b"a"] == b"\x01new"
        assert set(merged) == {b"a", b"b", b"c"}

    def test_scan_range_suppresses_tombstones(self):
        source = iter([(b"a", b"\x01A"), (b"b", TOMBSTONE), (b"c", b"\x01C")])
        out = list(scan_range([source]))
        assert out == [(b"a", b"A"), (b"c", b"C")]

    def test_db_scan_ordered_and_complete(self):
        db, *_ = make_db()
        inserted = {}
        rng = random.Random(3)
        for _ in range(800):
            i = rng.randrange(1000)
            db.put(key(i), f"val{i}".encode())
            inserted[key(i)] = f"val{i}".encode()
        items = list(db.items())
        assert [k for k, _ in items] == sorted(inserted)
        assert dict(items) == inserted

    def test_db_scan_range_bounds(self):
        db, *_ = make_db()
        for i in range(100):
            db.put(key(i), b"v")
        db.flush_memtable()
        out = [k for k, _ in db.scan(start=key(10), end=key(20))]
        assert out == [key(i) for i in range(10, 20)]

    def test_unsynced_tail_may_be_lost(self):
        """Without sync_wal, buffered records vanish on crash — the
        authentic no-fsync contract."""
        db, device, clock, config = make_db()
        for i in range(100):
            db.put(key(i), b"v")
        db.sync_wal()
        db.put(key(999999), b"unsynced")
        db.simulate_crash()
        recovered = Db.reopen(clock, device, config)
        assert recovered.get(key(0)) == b"v"
        assert recovered.get(key(999999)) is None

    def test_scan_sees_deletes(self):
        db, *_ = make_db()
        for i in range(50):
            db.put(key(i), b"v")
        db.flush_memtable()
        db.delete(key(25))
        keys = [k for k, _ in db.items()]
        assert key(25) not in keys
        assert len(keys) == 49
