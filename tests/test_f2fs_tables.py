"""Unit tests for the SIT and NAT tables."""

import pytest

from repro.errors import FileExistsInFsError, FileNotFoundInFsError, SectionInUseError
from repro.f2fs import NodeAddressTable, SegmentInfoTable


class TestSegmentInfoTable:
    def make(self) -> SegmentInfoTable:
        return SegmentInfoTable(num_sections=4, blocks_per_section=8)

    def test_mark_valid_tracks_owner(self):
        sit = self.make()
        sit.mark_valid(10, (1, 5))
        assert sit.is_valid(10)
        assert sit.owner_of(10) == (1, 5)
        assert sit.total_valid_blocks == 1

    def test_mark_invalid(self):
        sit = self.make()
        sit.mark_valid(10, (1, 5))
        sit.mark_invalid(10)
        assert not sit.is_valid(10)
        assert sit.owner_of(10) is None
        assert sit.total_valid_blocks == 0

    def test_double_mark_valid_updates_owner(self):
        sit = self.make()
        sit.mark_valid(10, (1, 5))
        sit.mark_valid(10, (2, 6))
        assert sit.total_valid_blocks == 1
        assert sit.owner_of(10) == (2, 6)

    def test_section_counters(self):
        sit = self.make()
        sit.mark_valid(8, (1, 0))   # section 1, offset 0
        sit.mark_valid(9, (1, 1))
        assert sit.valid_count(1) == 2
        assert sit.valid_fraction(1) == pytest.approx(0.25)
        assert list(sit.valid_blocks(1)) == [8, 9]

    def test_require_empty(self):
        sit = self.make()
        sit.mark_valid(8, (1, 0))
        sit.mark_valid(9, (1, 1))
        with pytest.raises(SectionInUseError, match="section 1 still owns 2"):
            sit.require_empty(1)
        sit.mark_invalid_run(8, 2)
        owners = sit.sections[1].owners
        sit.require_empty(1)
        sit.require_empty(0)  # never written
        assert sit.sections[1].owners is owners  # checked, not re-allocated
        assert sit.valid_count(1) == 0
        assert sit.owner_of(8) is None
        assert sit.total_valid_blocks == 0

    def test_out_of_range_block(self):
        sit = self.make()
        with pytest.raises(IndexError):
            sit.mark_valid(4 * 8, (1, 0))

    def test_state_roundtrip(self):
        sit = self.make()
        sit.mark_valid(3, (7, 2))
        sit.mark_valid(20, (8, 0))
        restored = SegmentInfoTable.from_state(sit.to_state(), 4, 8)
        assert restored.is_valid(3)
        assert restored.owner_of(20) == (8, 0)
        assert restored.total_valid_blocks == 2

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            SegmentInfoTable(0, 8)


class TestNodeAddressTable:
    def test_create_and_lookup(self):
        nat = NodeAddressTable()
        file_id = nat.create_file("a")
        assert nat.lookup_file("a") == file_id
        assert nat.has_file("a")

    def test_duplicate_create_rejected(self):
        nat = NodeAddressTable()
        nat.create_file("a")
        with pytest.raises(FileExistsInFsError):
            nat.create_file("a")

    def test_missing_lookup_raises(self):
        with pytest.raises(FileNotFoundInFsError):
            NodeAddressTable().lookup_file("ghost")

    def test_block_mapping(self):
        nat = NodeAddressTable()
        fid = nat.create_file("a")
        assert nat.get_block(fid, 0) is None
        assert nat.set_block(fid, 0, 42) is None
        assert nat.get_block(fid, 0) == 42
        assert nat.set_block(fid, 0, 43) == 42  # returns stale address

    def test_size_high_water_mark(self):
        nat = NodeAddressTable()
        fid = nat.create_file("a")
        nat.update_size(fid, 100)
        nat.update_size(fid, 50)
        assert nat.size_of(fid) == 100

    def test_remove_returns_block_map(self):
        nat = NodeAddressTable()
        fid = nat.create_file("a")
        nat.set_block(fid, 0, 42)
        block_map = nat.remove_file("a")
        assert block_map == {0: 42}
        assert not nat.has_file("a")

    def test_state_roundtrip(self):
        nat = NodeAddressTable()
        fid = nat.create_file("a")
        nat.set_block(fid, 3, 99)
        nat.update_size(fid, 4096)
        restored = NodeAddressTable.from_state(nat.to_state())
        assert restored.lookup_file("a") == fid
        assert restored.get_block(fid, 3) == 99
        assert restored.size_of(fid) == 4096
        # ids keep advancing after restore
        assert restored.create_file("b") == fid + 1
