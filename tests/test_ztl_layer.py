"""Integration-level tests for the region translation layer on a ZNS SSD."""

import random

import pytest

from repro.errors import (
    OutOfRangeError,
    PowerCutError,
    RegionNotMappedError,
    TranslationFullError,
)
from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
from repro.sim import FaultInjector, SimClock
from repro.units import KIB
from repro.ztl import GcConfig, RegionTranslationLayer, ZtlConfig
from repro.ztl.allocator import ZoneBook, ZoneUse
from tests.books import assert_ztl_books_agree
from tests.helpers import REGION, make_layer, payload


class TestZtlBasics:
    def test_write_read_roundtrip(self):
        layer = make_layer()
        layer.write_region(1, payload(1))
        assert layer.read_region(1).data == payload(1)

    def test_partial_read_with_offset(self):
        layer = make_layer()
        layer.write_region(1, payload(1))
        result = layer.read_region(1, offset=4096, length=4096)
        assert result.data == payload(1)[4096:8192]

    def test_read_unmapped_raises(self):
        layer = make_layer()
        with pytest.raises(RegionNotMappedError):
            layer.read_region(99)

    def test_read_beyond_region_rejected(self):
        layer = make_layer()
        layer.write_region(1, payload(1))
        with pytest.raises(OutOfRangeError):
            layer.read_region(1, offset=REGION - 4096, length=8192)

    def test_wrong_size_write_rejected(self):
        layer = make_layer()
        with pytest.raises(ValueError):
            layer.write_region(1, b"small")

    def test_rewrite_replaces_data(self):
        layer = make_layer()
        layer.write_region(1, payload(1))
        layer.write_region(1, payload(2))
        assert layer.read_region(1).data == payload(2)
        assert layer.live_regions == 1

    def test_invalidate(self):
        layer = make_layer()
        layer.write_region(1, payload(1))
        assert layer.invalidate_region(1)
        assert not layer.has_region(1)
        assert not layer.invalidate_region(1)

    def test_region_size_must_divide_zone(self):
        with pytest.raises(ValueError):
            make_layer(region_size=48 * KIB)  # zone is 256 KiB

    def test_fills_multiple_zones_round_robin(self):
        layer = make_layer()
        for region_id in range(8):
            layer.write_region(region_id, payload(region_id))
        zones_used = {layer.map[r].zone_index for r in range(8)}
        assert len(zones_used) >= 2  # concurrent open zones


class TestZtlGc:
    def churn(self, layer, live=180, steps=1500, seed=3):
        rng = random.Random(seed)
        for region_id in range(live):
            layer.write_region(region_id, payload(region_id))
        for _ in range(steps):
            region_id = rng.randrange(live)
            layer.write_region(region_id, payload(region_id))
        return live

    def test_gc_reclaims_zones(self):
        layer = make_layer()
        self.churn(layer)
        assert layer.reclaim.stats.victims_reclaimed > 0
        assert layer.book.empty_count >= 1

    def test_data_survives_gc(self):
        layer = make_layer()
        live = self.churn(layer)
        for region_id in range(live):
            assert layer.read_region(region_id).data == payload(region_id)

    def test_device_wa_stays_one(self):
        layer = make_layer()
        self.churn(layer)
        assert layer.device.stats.write_amplification == 1.0

    def test_app_waf_above_one_under_churn(self):
        layer = make_layer()
        self.churn(layer)
        assert layer.stats.app_write_amplification > 1.0

    def test_lower_utilization_lower_waf(self):
        """More OP (fewer live regions) → less migration → lower app WAF."""
        low = make_layer()
        self.churn(low, live=120)
        high = make_layer()
        self.churn(high, live=200)
        assert (
            low.stats.app_write_amplification < high.stats.app_write_amplification
        )

    def test_migration_hint_drops_regions(self):
        dropped = []
        layer = make_layer(hint=lambda region_id: False, on_drop=dropped.append)
        self.churn(layer, live=200, steps=800)
        assert layer.reclaim.stats.units_dropped > 0
        assert layer.reclaim.stats.units_migrated == 0
        assert dropped
        assert layer.stats.app_write_amplification == pytest.approx(1.0)

    def test_dropped_regions_unmapped(self):
        layer = make_layer(hint=lambda region_id: False)
        live = self.churn(layer, live=200, steps=800)
        # Some regions were dropped by GC: they must be unmapped, not stale.
        assert layer.live_regions < live
        for region_id in range(live):
            if layer.has_region(region_id):
                assert layer.read_region(region_id).data == payload(region_id)

    def test_full_layer_raises_when_gc_cannot_help(self):
        layer = make_layer(min_empty=1)
        with pytest.raises(TranslationFullError):
            # All regions unique and live: GC has nothing to reclaim.
            for region_id in range(layer.total_slots + 8):
                layer.write_region(region_id, payload(region_id))

    def test_gc_batch_is_atomic_when_the_gc_stream_runs_out_of_zones(self):
        """A survivor is rebound only with a slot in hand, and the ones
        already rebound land before the error propagates."""
        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=24)
        zns = ZnsSsd(
            SimClock(), ZnsConfig(geometry=geometry, zone_size=4 * geometry.block_size)
        )
        layer = RegionTranslationLayer(
            zns,
            ZtlConfig(
                region_size=REGION, host_open_zones=1, gc=GcConfig(min_empty_zones=1)
            ),
        )
        for region_id in range(8):  # zone 0 holds regions 0-3, zone 1 holds 4-7
            layer.write_region(region_id, payload(region_id))
        layer._migrate_regions([0, 1, 2])
        layer.book._empty.clear()
        stats = zns.stats
        before = (stats.host_read_bytes, stats.host_write_bytes)
        with pytest.raises(TranslationFullError):
            layer._migrate_regions([3, 4])  # one slot left on the GC stream
        # Region 3 took that slot and its bytes are there; region 4 never
        # moved, and nothing was read or written for it.
        assert (stats.host_read_bytes, stats.host_write_bytes) == (
            before[0] + REGION,
            before[1] + REGION,
        )
        assert layer.stats.migrated_region_writes == 4
        gc_zone = layer.map[3].zone_index
        assert layer.map[4] == (1, 0)
        assert layer.book.record(1).owners[0] == 4
        assert_ztl_books_agree(layer)
        assert layer.book.record(gc_zone).valid_count == 4
        for region_id in range(8):
            assert layer.read_region(region_id).data == payload(region_id)

    def test_power_cut_mid_batch_keeps_the_victim(self):
        """Power fails during a victim's copy batch: its survivors stay
        mapped at the victim, so the victim is not reset under them when
        GC resumes on restored power — it is collected again."""
        clock = SimClock()
        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=24)
        faults = FaultInjector(seed=1)
        zns = ZnsSsd(
            clock,
            ZnsConfig(geometry=geometry, zone_size=4 * geometry.block_size),
            faults=faults,
        )
        layer = RegionTranslationLayer(
            zns,
            ZtlConfig(
                region_size=REGION,
                host_open_zones=1,
                gc=GcConfig(min_empty_zones=1, victim_valid_threshold=0.5),
            ),
        )
        for region_id in range(5):  # zone 0 holds regions 0-3
            layer.write_region(region_id, payload(region_id))
        layer.invalidate_region(0)
        layer.invalidate_region(1)
        faults.power_cut_at_ns = clock.now
        with pytest.raises(PowerCutError):
            layer.reclaim.collect()
        assert layer.reclaim.victim == 0
        assert [layer.map[r].zone_index for r in (2, 3)] == [0, 0]
        faults.restore_power()
        assert layer.reclaim.collect() == 1
        assert layer.book.record(0).use is ZoneUse.EMPTY
        mapped = sum(record.valid_count for record in layer.book.records)
        assert mapped == len(layer.map) == 3
        for region_id in (2, 3, 4):
            assert layer.read_region(region_id).data == payload(region_id)


def make_book(num_zones, slots_per_zone, host_open_target, **kwargs):
    """A book over the zones of a real device, ``slots_per_zone``
    REGION-sized slots per zone; returns ``(device, book)``."""
    geometry = NandGeometry(
        page_size=4 * KIB, pages_per_block=16, num_blocks=num_zones * slots_per_zone
    )
    zns = ZnsSsd(
        SimClock(),
        ZnsConfig(geometry=geometry, zone_size=slots_per_zone * geometry.block_size),
    )
    return zns, ZoneBook(zns.report_zones(), REGION, host_open_target, **kwargs)


def write_slot(zns, book, record):
    """Write one region at the zone's write pointer, as the layer does."""
    zone = record.zone
    slot = (zone.write_pointer - zone.start) // REGION
    zns.write(zone.write_pointer, payload(slot))
    book.note_slot_written(record, slot)


class TestZoneBook:
    def test_roles_progress(self):
        zns, book = make_book(4, 2, 1)
        record = book.allocate_host_slot()
        assert record.use == ZoneUse.HOST_OPEN
        assert record.zone is zns.zones[record.zone_index]
        write_slot(zns, book, record)
        write_slot(zns, book, record)
        assert record.use == ZoneUse.FINISHED
        assert record.zone_index in book.finished_zones

    def test_mark_empty_returns_to_pool(self):
        zns, book = make_book(4, 2, 1)
        record = book.allocate_host_slot()
        write_slot(zns, book, record)
        write_slot(zns, book, record)
        before = book.empty_count
        zns.reset_zone(record.zone_index)
        book.mark_empty(record.zone_index)
        assert book.empty_count == before + 1
        assert record.use == ZoneUse.EMPTY
        assert record.valid_count == 0

    def test_gc_stream_is_separate(self):
        _, book = make_book(4, 2, 1)
        host = book.allocate_host_slot()
        gc = book.allocate_gc_slot()
        assert host.zone_index != gc.zone_index
        assert gc.use == ZoneUse.GC_OPEN

    def test_exhaustion_raises(self):
        zns, book = make_book(2, 1, 2, reserved_for_gc=0)
        for _ in range(2):
            write_slot(zns, book, book.allocate_host_slot())
        with pytest.raises(TranslationFullError):
            book.allocate_host_slot()

    def test_gc_reserve_withheld_from_host(self):
        zns, book = make_book(2, 1, 2, reserved_for_gc=1)
        write_slot(zns, book, book.allocate_host_slot())
        # The last empty zone is reserved for the GC stream.
        with pytest.raises(TranslationFullError):
            book.allocate_host_slot()
        assert book.allocate_gc_slot() is not None

    def test_validation(self):
        zns, _ = make_book(4, 1, 1)
        zones = zns.report_zones()
        with pytest.raises(ValueError):
            ZoneBook(zones[:1], REGION, 1)
        with pytest.raises(ValueError):
            ZoneBook(zones, 2 * REGION, 1)  # no slot fits a zone
        with pytest.raises(ValueError):
            ZoneBook(zones, REGION, 0)
