"""Unit tests for LSM building blocks: bloom, blocks, extents, memtable,
WAL, version manifest."""

import bisect

import pytest

from repro.errors import LsmError, NoSpaceError
from repro.flash import NullBlkDevice
from repro.lsm import (
    BlockHandle,
    BloomFilter,
    DataBlock,
    DataBlockBuilder,
    Memtable,
    TableSpace,
    Version,
    WriteAheadLog,
)
from repro.sim import SimClock
from repro.units import MIB


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = [f"key{i}".encode() for i in range(500)]
        bloom = BloomFilter.for_keys(keys)
        assert all(bloom.may_contain(k) for k in keys)

    def test_low_false_positive_rate(self):
        keys = [f"key{i}".encode() for i in range(2000)]
        bloom = BloomFilter.for_keys(keys, bits_per_key=10)
        probes = [f"other{i}".encode() for i in range(2000)]
        fp = sum(bloom.may_contain(p) for p in probes)
        assert fp / len(probes) < 0.03

    def test_serialization_roundtrip(self):
        keys = [f"key{i}".encode() for i in range(100)]
        bloom = BloomFilter.for_keys(keys)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert all(restored.may_contain(k) for k in keys)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(4, 1)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)


class TestDataBlock:
    def test_build_and_lookup(self):
        builder = DataBlockBuilder(4096)
        for i in range(20):
            builder.add(f"key{i:04d}".encode(), f"value{i}".encode())
        block = DataBlock(builder.finish())
        assert len(block) == 20
        assert block.get(b"key0007") == b"value7"
        assert block.get(b"key9999") is None

    def test_keys_must_ascend(self):
        builder = DataBlockBuilder(4096)
        builder.add(b"b", b"1")
        with pytest.raises(ValueError):
            builder.add(b"a", b"2")
        with pytest.raises(ValueError):
            builder.add(b"b", b"3")

    def test_overflow_detection(self):
        builder = DataBlockBuilder(64)
        builder.add(b"a", b"x" * 20)  # 27 B framed
        builder.add(b"b", b"y" * 10)  # 44 B: fits
        assert builder.blocks == [] and builder.num_entries == 2
        builder.add(b"c", b"z" * 40)  # 91 B would overflow: seal first
        assert DataBlock(builder.blocks[0]).entries() == [
            (b"a", b"x" * 20), (b"b", b"y" * 10),
        ]
        assert builder.first_keys == [b"a", b"c"] and builder.num_entries == 1

    def test_run_stops_at_its_budget_and_leaves_the_rest_unread(self):
        # Compaction cuts its merged run into tables this way: the entry
        # that brings the key + value bytes to the budget is the last.
        entries = iter([(b"a", b"12"), (b"b", b"34"), (b"c", b"5")])
        builder = DataBlockBuilder(64)
        builder.add_run(entries, budget=6)
        assert builder.keys == [b"a", b"b"]
        assert next(entries) == (b"c", b"5")
        builder.add_run([(b"d", b"x" * 39), (b"e", b"y" * 40)])
        # "d" fills the block to exactly 64 B; "e" would overflow it.
        assert builder.first_keys == [b"a", b"e"]
        assert len(builder.blocks) == 1 and builder.num_entries == 1

    def test_decode_zero_padded(self):
        builder = DataBlockBuilder(4096)
        builder.add(b"k", b"v")
        blob = builder.finish() + b"\x00" * 128
        block = DataBlock(blob)
        assert len(block) == 1
        assert block.get(b"k") == b"v"

    def test_padding_sentinel_entry_rejected(self):
        # An empty key with an empty value encodes to six zero bytes — what
        # every decoder reads as "padding starts here" — so accepting it
        # silently dropped it and every entry after it in the block.
        builder = DataBlockBuilder(4096)
        with pytest.raises(LsmError):
            builder.add(b"", b"")
        builder.add(b"", b"v")  # either side alone is distinguishable
        builder.add(b"a", b"")
        builder.add(b"b", b"1")
        assert DataBlock(builder.finish()).entries() == [
            (b"", b"v"), (b"a", b""), (b"b", b"1"),
        ]

    def test_oversized_key_is_a_typed_error(self):
        builder = DataBlockBuilder(4096)
        with pytest.raises(LsmError, match="65535"):
            builder.add(b"k" * 65_536, b"v")
        assert builder.num_entries == 0 and builder.finish() == b""
        builder.add(b"k" * 65_535, b"v")  # the limit itself fits

    def test_handle_roundtrip(self):
        handle = BlockHandle(8192, 4000)
        assert BlockHandle.from_bytes(handle.to_bytes()) == handle


class TestTableSpace:
    def make(self, capacity=1 * MIB) -> TableSpace:
        return TableSpace(NullBlkDevice(SimClock(), capacity_bytes=capacity))

    def test_allocate_and_release(self):
        space = self.make()
        offset = space.allocate(10_000)
        assert offset == 0
        assert space.allocated_extents == 1
        space.release(offset)
        assert space.free_bytes == 1 * MIB

    def test_alignment(self):
        space = self.make()
        offset = space.allocate(100)
        second = space.allocate(100)
        assert second % 4096 == 0
        assert second > offset

    def test_exhaustion(self):
        space = self.make(capacity=64 * 1024)
        space.allocate(60 * 1024)
        with pytest.raises(NoSpaceError):
            space.allocate(8 * 1024)

    def test_coalescing(self):
        space = self.make(capacity=64 * 1024)
        a = space.allocate(16 * 1024)
        b = space.allocate(16 * 1024)
        c = space.allocate(16 * 1024)
        space.release(a)
        space.release(c)
        space.release(b)  # middle release must merge all three
        assert space.allocate(48 * 1024) is not None

    def test_double_release_rejected(self):
        space = self.make()
        offset = space.allocate(4096)
        space.release(offset)
        with pytest.raises(KeyError):
            space.release(offset)


class TestMemtable:
    def test_put_get(self):
        table = Memtable(4096)
        table.put(b"k", b"v")
        assert table.get(b"k") == b"v"

    def test_overwrite_updates_size(self):
        table = Memtable(4096)
        table.put(b"k", b"v" * 100)
        table.put(b"k", b"v")
        assert table.size_bytes == 1 + 1

    def test_full_detection(self):
        table = Memtable(1024)
        assert not table.put(b"j", b"v" * 100)
        assert table.put(b"k", b"v" * 1100)  # put says when it filled

    def test_sorted_entries(self):
        table = Memtable(4096)
        for key in (b"c", b"a", b"b"):
            table.put(key, key)
        assert [k for k, _ in table.sorted_entries()] == [b"a", b"b", b"c"]

    def test_clear(self):
        table = Memtable(4096)
        table.put(b"k", b"v")
        table.clear()
        assert len(table) == 0
        assert table.size_bytes == 0


class TestWal:
    def make(self):
        device = NullBlkDevice(SimClock(), capacity_bytes=1 * MIB)
        return WriteAheadLog(device, offset=0, size=64 * 1024), device

    def test_append_batches_into_blocks(self):
        wal, device = self.make()
        before = device.stats.host_write_bytes
        wal.append(b"x" * 100)
        assert device.stats.host_write_bytes == before  # still buffered
        for _ in range(50):
            wal.append(b"x" * 100)
        assert device.stats.host_write_bytes > before

    def test_sync_flushes_tail(self):
        wal, device = self.make()
        wal.append(b"x" * 10)
        wal.sync()
        assert device.stats.host_write_bytes >= device.block_size

    def test_full_extent_raises(self):
        from repro.lsm.wal import WalFullError

        wal, device = self.make()
        with pytest.raises(WalFullError):
            for _ in range(2000):
                wal.append(b"y" * 100)

    def test_reset_allows_reuse(self):
        from repro.lsm.wal import WalFullError

        wal, device = self.make()
        try:
            for _ in range(2000):
                wal.append(b"y" * 100)
        except WalFullError:
            pass
        wal.reset()
        wal.append(b"z" * 100)  # must not raise

    def test_replay_roundtrip(self):
        wal, device = self.make()
        records = [f"record-{i}".encode() for i in range(40)]
        for record in records:
            wal.append(record)
        wal.sync()
        assert list(wal.replay(wal.epoch)) == records

    def test_replay_skips_sync_padding(self):
        wal, device = self.make()
        wal.append(b"first")
        wal.sync()  # pads this block
        wal.append(b"second")
        wal.sync()
        assert list(wal.replay(wal.epoch)) == [b"first", b"second"]

    @pytest.mark.parametrize("pad", [1, 2, 3, 4])
    def test_short_sync_padding_costs_one_zero_block_only_if_appended_to(
        self, pad
    ):
        wal, device = self.make()
        first = b"f" * (wal.payload_per_block - pad - 4)
        wal.append(first)
        wal.sync()
        wal.append(b"second")
        wal.sync()
        assert list(wal.replay(wal.epoch)) == [first, b"second"]
        # The zero block sits between the two synced blocks.
        assert wal.bytes_flushed == (3 if pad < 4 else 2) * device.block_size

        wal.reset()  # a flush: sync then reset never writes the zero block
        wal.append(first)
        wal.sync()
        wal.reset()
        wal.append(b"next epoch")
        wal.sync()
        assert list(wal.replay(wal.epoch)) == [b"next epoch"]
        assert wal.bytes_flushed == (5 if pad < 4 else 4) * device.block_size

    def test_replay_ignores_stale_epochs(self):
        wal, device = self.make()
        wal.append(b"old-record")
        wal.sync()
        wal.reset()
        wal.append(b"new-record")
        wal.sync()
        assert list(wal.replay(wal.epoch)) == [b"new-record"]

    def test_replay_of_empty_epoch(self):
        wal, device = self.make()
        wal.reset()
        assert list(wal.replay(wal.epoch)) == []

    def test_invalid_size(self):
        device = NullBlkDevice(SimClock(), capacity_bytes=1 * MIB)
        with pytest.raises(ValueError):
            WriteAheadLog(device, 0, 1000)


class TestVersion:
    def make_table(self, table_id, smallest, largest, space):
        from repro.lsm.sstable import SSTableBuilder

        builder = SSTableBuilder(table_id, space)
        builder.add(smallest, b"v")
        if largest != smallest:
            builder.add(largest, b"v")
        return builder.finish()

    def test_l0_newest_first(self):
        space = TableSpace(NullBlkDevice(SimClock(), capacity_bytes=1 * MIB))
        version = Version()
        t1 = self.make_table(1, b"a", b"z", space)
        t2 = self.make_table(2, b"a", b"z", space)
        version.add_l0(t1)
        version.add_l0(t2)
        assert [t.table_id for t in version.levels[0]] == [2, 1]
        assert version.fences[0] == []  # L0 overlaps: scanned, not fenced

    def test_leveled_binary_search(self):
        space = TableSpace(NullBlkDevice(SimClock(), capacity_bytes=1 * MIB))
        version = Version()
        ta = self.make_table(1, b"a", b"f", space)
        tb = self.make_table(2, b"g", b"p", space)
        version.install_level(1, [tb, ta])  # order normalized internally
        assert version.levels[1] == [ta, tb]
        assert version.fences[1] == [b"a", b"g"]
        # The bisect Db.get runs over the fence picks the one table.
        assert bisect.bisect_right(version.fences[1], b"h") == 2
        assert bisect.bisect_right(version.fences[1], b"0") == 0
        version.remove(1, ta)
        assert version.fences[1] == [b"g"]

    def test_overlap_rejected(self):
        space = TableSpace(NullBlkDevice(SimClock(), capacity_bytes=1 * MIB))
        version = Version()
        ta = self.make_table(1, b"a", b"m", space)
        tb = self.make_table(2, b"h", b"z", space)
        with pytest.raises(ValueError):
            version.install_level(1, [ta, tb])

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            Version(num_levels=1)
