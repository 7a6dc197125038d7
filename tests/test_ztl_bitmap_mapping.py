"""Unit tests for the middle layer's bitmap and region map."""

import pytest

from repro.errors import RegionNotMappedError
from repro.ztl import RegionLocation, RegionMap, SlotBitmap


class TestSlotBitmap:
    def test_starts_clear(self):
        bitmap = SlotBitmap(8)
        assert bitmap.valid_count == 0
        assert bitmap.valid_fraction == 0.0
        assert not bitmap.is_set(0)

    def test_set_and_clear(self):
        bitmap = SlotBitmap(8)
        bitmap.set(3)
        assert bitmap.is_set(3)
        assert bitmap.valid_count == 1
        bitmap.clear(3)
        assert not bitmap.is_set(3)
        assert bitmap.valid_count == 0

    def test_idempotent_set(self):
        bitmap = SlotBitmap(8)
        bitmap.set(1)
        bitmap.set(1)
        assert bitmap.valid_count == 1

    def test_idempotent_clear(self):
        bitmap = SlotBitmap(8)
        bitmap.clear(1)
        assert bitmap.valid_count == 0

    def test_valid_slots_iteration(self):
        bitmap = SlotBitmap(16)
        for slot in (0, 5, 15):
            bitmap.set(slot)
        assert list(bitmap.valid_slots()) == [0, 5, 15]

    def test_clear_all(self):
        bitmap = SlotBitmap(8)
        for slot in range(8):
            bitmap.set(slot)
        bitmap.clear_all()
        assert bitmap.valid_count == 0
        assert list(bitmap.valid_slots()) == []

    def test_valid_fraction(self):
        bitmap = SlotBitmap(4)
        bitmap.set(0)
        assert bitmap.valid_fraction == pytest.approx(0.25)

    def test_bounds_checked(self):
        bitmap = SlotBitmap(4)
        with pytest.raises(IndexError):
            bitmap.set(4)
        with pytest.raises(IndexError):
            bitmap.is_set(-1)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            SlotBitmap(0)


class TestRegionMap:
    def test_bind_and_lookup(self):
        rmap = RegionMap()
        loc = RegionLocation(2, 3)
        rmap.bind(7, loc)
        assert rmap.lookup(7) == loc
        assert rmap.region_at(loc) == 7
        assert 7 in rmap
        assert len(rmap) == 1

    def test_lookup_missing_raises(self):
        with pytest.raises(RegionNotMappedError):
            RegionMap().lookup(1)

    def test_get_missing_returns_none(self):
        assert RegionMap().get(1) is None

    def test_rebind_region_moves(self):
        rmap = RegionMap()
        rmap.bind(7, RegionLocation(0, 0))
        rmap.bind(7, RegionLocation(1, 1))
        assert rmap.lookup(7) == RegionLocation(1, 1)
        assert rmap.region_at(RegionLocation(0, 0)) is None
        assert len(rmap) == 1

    def test_rebind_location_evicts_old_region(self):
        rmap = RegionMap()
        loc = RegionLocation(0, 0)
        rmap.bind(7, loc)
        rmap.bind(8, loc)
        assert rmap.get(7) is None
        assert rmap.region_at(loc) == 8

    def test_unbind(self):
        rmap = RegionMap()
        loc = RegionLocation(0, 0)
        rmap.bind(7, loc)
        assert rmap.unbind(7) == loc
        assert rmap.unbind(7) is None
        assert len(rmap) == 0
