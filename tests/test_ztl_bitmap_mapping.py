"""Unit tests for the middle layer's region map and per-zone valid slots.

The paper's middle layer (§3.3) keeps a map from region id to in-zone
address and a per-zone bitmap of valid slots.  Here the map is
``layer.map`` (a dict of ``RegionLocation``) and the bitmap is the
zone's set of owned slots: ``ZoneRecord.owners`` holds each slot's
region id, or ``None`` when the slot is free, with a running
``valid_count``.  A slot is valid exactly when it has an owner, so the
map and the owners are one fact stored as two inverse indexes.

``TestSlotBitmap`` reads the owners as the paper's bitmap (and the
F2FS SIT's per-section owners, the same representation, for the run
bounds); ``TestRegionMap`` checks the map through writes, rewrites,
invalidation and GC.
"""

import pytest

from repro.errors import RegionNotMappedError
from repro.f2fs import SegmentInfoTable
from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
from repro.sim import SimClock
from repro.units import KIB
from repro.ztl import (
    GcConfig,
    RegionLocation,
    RegionTranslationLayer,
    ZoneBook,
    ZoneUse,
    ZtlConfig,
)
from tests.books import assert_ztl_books_agree

REGION = 16 * KIB
SLOTS = 4  # per zone


def make_layer() -> RegionTranslationLayer:
    """Eight zones of four slots, one host-open zone, GC taking victims
    up to half valid."""
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=4, num_blocks=32)
    zns = ZnsSsd(
        SimClock(), ZnsConfig(geometry=geometry, zone_size=SLOTS * geometry.block_size)
    )
    return RegionTranslationLayer(
        zns,
        ZtlConfig(
            region_size=REGION,
            host_open_zones=1,
            gc=GcConfig(min_empty_zones=1, victim_valid_threshold=0.5),
        ),
    )


def data(tag: int) -> bytes:
    return bytes([tag % 256]) * REGION


def owned(layer):
    """Every owned slot as ``(zone, slot, region)``, ascending."""
    return [
        (record.zone_index, slot, region_id)
        for record in layer.book.records
        for slot, region_id in enumerate(record.owners)
        if region_id is not None
    ]


class TestSlotBitmap:
    def test_starts_clear(self):
        layer = make_layer()
        for record in layer.book.records:
            assert record.owners == [None] * SLOTS
            assert record.valid_count == 0
        assert owned(layer) == []

    def test_set_and_clear(self):
        layer = make_layer()
        layer.write_region(3, data(3))
        zone, slot = layer.map[3]
        record = layer.book.records[zone]
        assert record.owners[slot] == 3 and record.valid_count == 1
        layer.invalidate_region(3)
        assert record.owners[slot] is None and record.valid_count == 0

    def test_idempotent_set(self):
        """A rewrite owns one slot, not two: the old copy's slot is
        freed as the new one is taken."""
        layer = make_layer()
        layer.write_region(3, data(3))
        layer.write_region(3, data(4))
        assert owned(layer) == [(*layer.map[3], 3)]
        assert sum(record.valid_count for record in layer.book.records) == 1

    def test_idempotent_clear(self):
        layer = make_layer()
        layer.write_region(3, data(3))
        assert layer.invalidate_region(3)
        assert not layer.invalidate_region(3)
        assert owned(layer) == []
        assert all(record.valid_count == 0 for record in layer.book.records)

    def test_valid_slots_iteration(self):
        """GC lists a victim's valid slots in ascending order."""
        layer = make_layer()
        for region_id in range(SLOTS):
            layer.write_region(region_id, data(region_id))
        zone = layer.map[0].zone_index
        layer.invalidate_region(1)
        layer.invalidate_region(2)
        assert layer.reclaim.source.pending_units(zone) == [0, 3]

    def test_clear_all(self):
        """A collected victim comes back empty and owns no slot; its
        survivors own slots in the GC zone."""
        layer = make_layer()
        for region_id in range(SLOTS + 1):
            layer.write_region(region_id, data(region_id))
        victim = layer.map[0].zone_index
        layer.invalidate_region(0)
        layer.invalidate_region(1)
        assert layer.reclaim.collect() == 1
        record = layer.book.records[victim]
        assert record.use is ZoneUse.EMPTY
        assert record.owners == [None] * SLOTS and record.valid_count == 0
        gc_zone = layer.map[2].zone_index
        assert gc_zone != victim and layer.map[3].zone_index == gc_zone
        assert_ztl_books_agree(layer)
        for region_id in (2, 3, 4):
            assert layer.read_region(region_id).data == data(region_id)

    def test_valid_fraction(self):
        layer = make_layer()
        for region_id in range(SLOTS + 1):
            layer.write_region(region_id, data(region_id))
        layer.invalidate_region(0)
        views = layer.reclaim.source.candidate_views()
        assert [(view.valid_count, view.valid_fraction) for view in views] == [
            (SLOTS - 1, (SLOTS - 1) / SLOTS)
        ]

    def test_bounds_checked(self):
        """A SIT run that leaves its section raises and changes nothing."""
        sit = SegmentInfoTable(num_sections=2, blocks_per_section=8)
        sit.mark_valid_run(4, 2, 1, 0)
        before = [list(entry.owners) for entry in sit.sections]
        with pytest.raises(IndexError):
            sit.mark_valid_run(6, 4, 1, 2)  # crosses into section 1
        with pytest.raises(IndexError):
            sit.mark_invalid_run(16, 1)  # past the main area
        assert [entry.owners for entry in sit.sections] == before
        assert sit.total_valid_blocks == sit.valid_count(0) == 2

    def test_zero_slots_rejected(self):
        layer = make_layer()
        zones = layer.device.report_zones()
        with pytest.raises(ValueError):
            ZoneBook(zones, 2 * layer.zone_size, 1)  # no slot fits a zone


class TestRegionMap:
    def test_bind_and_lookup(self):
        layer = make_layer()
        layer.write_region(7, data(7))
        location = layer.map[7]
        assert isinstance(location, RegionLocation)
        assert layer.book.records[location.zone_index].owners[location.slot] == 7
        assert 7 in layer.map and len(layer.map) == 1

    def test_lookup_missing_raises(self):
        with pytest.raises(RegionNotMappedError):
            make_layer().read_region(1)

    def test_get_missing_returns_none(self):
        layer = make_layer()
        assert layer.map.get(1) is None
        assert not layer.has_region(1)

    def test_rebind_region_moves(self):
        layer = make_layer()
        layer.write_region(7, data(1))
        old = layer.map[7]
        layer.write_region(7, data(2))
        assert layer.map[7] != old
        assert layer.book.records[old.zone_index].owners[old.slot] is None
        assert len(layer.map) == 1
        assert layer.read_region(7).data == data(2)

    def test_rebind_location_evicts_old_region(self):
        """Once GC resets a zone, a slot that held one region is owned
        by the next region written there; the old one maps elsewhere."""
        layer = make_layer()
        for region_id in range(SLOTS + 1):
            layer.write_region(region_id, data(region_id))
        old = layer.map[2]
        victim = old.zone_index
        layer.invalidate_region(0)
        layer.invalidate_region(1)
        assert layer.reclaim.collect() == 1
        for rewrite in range(1000):  # rewrites leave garbage to collect
            if layer.book.records[victim].owners[old.slot] is not None:
                break
            region_id = 100 + rewrite % 3
            layer.write_region(region_id, data(region_id))
        new_owner = layer.book.records[victim].owners[old.slot]
        assert new_owner is not None and new_owner != 2
        assert layer.map[new_owner] == old
        assert layer.map[2] != old
        assert_ztl_books_agree(layer)

    def test_unbind(self):
        layer = make_layer()
        layer.write_region(7, data(7))
        assert layer.invalidate_region(7)
        assert not layer.invalidate_region(7)
        assert len(layer.map) == 0
