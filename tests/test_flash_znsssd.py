"""Unit tests for the ZNS SSD simulator."""

import pytest

from repro.errors import (
    AlignmentError,
    OutOfRangeError,
    WritePointerError,
    ZoneDeadError,
    ZoneResourceError,
    ZoneStateError,
)
from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
from repro.flash.zone import ZoneCostConfig, ZoneState
from repro.sim import PoolConfig, SimClock, TraceRecord
from tests.conftest import make_payload

PAGE = 4096


class TestZnsGeometry:
    def test_zone_layout(self, zns_ssd):
        assert zns_ssd.num_zones == 16
        assert zns_ssd.zone_size == 256 * 1024
        assert zns_ssd.capacity_bytes == zns_ssd.num_zones * zns_ssd.zone_size

    def test_no_overprovisioning(self, zns_ssd):
        """ZNS exports the full media — the paper's capacity advantage."""
        assert zns_ssd.capacity_bytes == zns_ssd.config.geometry.total_bytes

    def test_zone_size_must_align_to_blocks(self, clock, small_geometry):
        with pytest.raises(ValueError):
            ZnsSsd(clock, ZnsConfig(geometry=small_geometry, zone_size=PAGE * 3))

    def test_zone_of(self, zns_ssd):
        assert zns_ssd.zone_of(0).index == 0
        assert zns_ssd.zone_of(zns_ssd.zone_size).index == 1
        with pytest.raises(OutOfRangeError):
            zns_ssd.zone_of(zns_ssd.capacity_bytes)


class TestZnsWrites:
    def test_sequential_write_and_read(self, zns_ssd):
        payload = make_payload(2 * PAGE, 3)
        zns_ssd.write(0, payload)
        assert zns_ssd.read(0, 2 * PAGE).data == payload

    def test_write_off_pointer_rejected(self, zns_ssd):
        with pytest.raises(WritePointerError):
            zns_ssd.write(PAGE, make_payload(PAGE, 1))

    def test_write_crossing_zone_rejected(self, zns_ssd):
        zone = zns_ssd.zones[0]
        fill = make_payload(zone.size - PAGE, 1)
        zns_ssd.write(0, fill)
        with pytest.raises(ZoneStateError):
            zns_ssd.write(zone.write_pointer, make_payload(2 * PAGE, 2))

    def test_unaligned_rejected(self, zns_ssd):
        with pytest.raises(AlignmentError):
            zns_ssd.write(0, b"tiny")

    def test_append_returns_offset(self, zns_ssd):
        first = zns_ssd.append(2, make_payload(PAGE, 1))
        second = zns_ssd.append(2, make_payload(PAGE, 2))
        assert first.offset == 2 * zns_ssd.zone_size
        assert second.offset == first.offset + PAGE

    def test_fill_zone_makes_it_full(self, zns_ssd):
        zns_ssd.write(0, make_payload(zns_ssd.zone_size, 5))
        assert zns_ssd.zones[0].state == ZoneState.FULL

    def test_write_to_full_zone_rejected(self, zns_ssd):
        zns_ssd.write(0, make_payload(zns_ssd.zone_size, 5))
        with pytest.raises(ZoneStateError):
            zns_ssd.append(0, make_payload(PAGE, 1))

    def test_zero_wa_always(self, zns_ssd):
        """No device GC -> media writes == host writes, WA == 1."""
        for zone_idx in range(4):
            zns_ssd.write(
                zone_idx * zns_ssd.zone_size, make_payload(zns_ssd.zone_size, zone_idx)
            )
            zns_ssd.reset_zone(zone_idx)
        assert zns_ssd.stats.write_amplification == 1.0


class TestZnsZoneManagement:
    def test_reset_discards_data(self, zns_ssd):
        zns_ssd.write(0, make_payload(PAGE, 9))
        zns_ssd.reset_zone(0)
        assert zns_ssd.zones[0].state == ZoneState.EMPTY
        assert zns_ssd.read(0, PAGE).data == b"\x00" * PAGE

    def test_reset_counts_erases_only_when_dirty(self, zns_ssd):
        zns_ssd.reset_zone(3)
        assert zns_ssd.stats.erase_count == 0
        zns_ssd.write(0, make_payload(PAGE, 1))
        zns_ssd.reset_zone(0)
        assert zns_ssd.stats.erase_count > 0

    def test_finish_zone(self, zns_ssd):
        zns_ssd.write(0, make_payload(PAGE, 1))
        zns_ssd.finish_zone(0)
        assert zns_ssd.zones[0].state == ZoneState.FULL

    def test_max_open_zones_enforced(self, zns_ssd):
        limit = zns_ssd.config.max_open_zones
        for zone_idx in range(limit):
            zns_ssd.write(zone_idx * zns_ssd.zone_size, make_payload(PAGE, 1))
        with pytest.raises(ZoneResourceError):
            zns_ssd.write(limit * zns_ssd.zone_size, make_payload(PAGE, 1))

    def test_close_frees_open_slot(self, zns_ssd):
        limit = zns_ssd.config.max_open_zones
        for zone_idx in range(limit):
            zns_ssd.write(zone_idx * zns_ssd.zone_size, make_payload(PAGE, 1))
        zns_ssd.close_zone(0)
        # One open slot free now, but the closed zone still holds an active slot.
        zns_ssd.write(limit * zns_ssd.zone_size, make_payload(PAGE, 1))
        assert zns_ssd.open_zone_count == limit

    def test_max_active_zones_enforced(self, zns_ssd):
        max_active = zns_ssd.config.max_active_zones
        for zone_idx in range(zns_ssd.config.max_open_zones):
            zns_ssd.write(zone_idx * zns_ssd.zone_size, make_payload(PAGE, 1))
        for zone_idx in range(max_active - zns_ssd.config.max_open_zones):
            zns_ssd.close_zone(zone_idx)
            zns_ssd.write(
                (zns_ssd.config.max_open_zones + zone_idx) * zns_ssd.zone_size,
                make_payload(PAGE, 1),
            )
        # All active slots used (open + closed); a fresh zone must be refused.
        zns_ssd.close_zone(zns_ssd.config.max_open_zones - 1)
        with pytest.raises(ZoneResourceError):
            zns_ssd.write(
                (max_active + 1) * zns_ssd.zone_size, make_payload(PAGE, 1)
            )

    def test_finish_releases_open_slot(self, zns_ssd):
        limit = zns_ssd.config.max_open_zones
        for zone_idx in range(limit):
            zns_ssd.write(zone_idx * zns_ssd.zone_size, make_payload(PAGE, 1))
        zns_ssd.finish_zone(0)
        zns_ssd.write(limit * zns_ssd.zone_size, make_payload(PAGE, 1))

    def test_explicit_open_counts_against_limit(self, zns_ssd):
        limit = zns_ssd.config.max_open_zones
        for zone_idx in range(limit):
            zns_ssd.open_zone(zone_idx)
        with pytest.raises(ZoneResourceError):
            zns_ssd.open_zone(limit)

    def test_report_zones(self, zns_ssd):
        report = zns_ssd.report_zones()
        assert len(report) == zns_ssd.num_zones
        assert all(z.state == ZoneState.EMPTY for z in report)

    def test_bad_zone_index(self, zns_ssd):
        with pytest.raises(OutOfRangeError):
            zns_ssd.reset_zone(zns_ssd.num_zones)


class TestZnsTiming:
    def test_io_advances_clock(self, clock, zns_ssd):
        before = clock.now
        result = zns_ssd.write(0, make_payload(PAGE, 1))
        assert clock.now == before + result.latency_ns

    def test_reset_returns_fast_but_erase_queues_later_io(self, zns_ssd):
        """The reset command is cheap; the media erase runs in the
        background, so the *next* I/O queues behind it."""
        clean_reset = zns_ssd.reset_zone(1).latency_ns
        zns_ssd.write(0, make_payload(PAGE, 1))
        baseline_read = zns_ssd.read(0, PAGE).latency_ns
        dirty_reset = zns_ssd.reset_zone(0).latency_ns
        assert dirty_reset == clean_reset  # command itself is constant-time
        delayed_read = zns_ssd.read(zns_ssd.zone_size, PAGE).latency_ns
        assert delayed_read > baseline_read  # queued behind the erase


class TestZnsReadableZones:
    def test_read_over_an_offline_middle_zone_fails(self, zns_ssd):
        """Every zone an extent touches is checked, not just its ends."""
        size = zns_ssd.zone_size
        for zone_idx in range(3):
            zns_ssd.write(zone_idx * size, make_payload(size, zone_idx + 1))
        zns_ssd.zones[1].die(ZoneState.OFFLINE)
        with pytest.raises(ZoneDeadError) as direct:
            zns_ssd.read(size, PAGE)
        served = zns_ssd.pipeline.pool.requests_served
        with pytest.raises(ZoneDeadError) as spanning:
            zns_ssd.read(0, 3 * size)
        assert spanning.value.zone_index == direct.value.zone_index == 1
        with pytest.raises(ZoneDeadError):
            zns_ssd.read_many([(2 * size, PAGE), (0, 3 * size)])
        with pytest.raises(ZoneDeadError):
            zns_ssd.copy_many([(2 * size, 4 * size), (0, 5 * size)], 3 * size)
        assert zns_ssd.pipeline.pool.requests_served == served  # nothing charged
        # READ_ONLY zones still serve reads.
        zns_ssd.zones[2].die(ZoneState.READ_ONLY)
        assert zns_ssd.read(2 * size, PAGE).data == make_payload(PAGE, 3)


REGION = 8 * PAGE


def _copy_twin(max_open: int = 4, costs: ZoneCostConfig = ZoneCostConfig()) -> ZnsSsd:
    """Zone 0 full, zone 1 holding three regions, both tracers capturing."""
    geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=32)
    device = ZnsSsd(
        SimClock(),
        ZnsConfig(
            geometry=geometry,
            zone_size=4 * geometry.block_size,
            max_open_zones=max_open,
            max_active_zones=max_open + 2,
            zone_costs=costs,
        ),
        io=PoolConfig(channels=2, queue_depth=2),
    )
    device.tracer.enable()
    for slot in range(device.zone_size // REGION):
        device.write(slot * REGION, make_payload(REGION, slot + 1))
    for slot in range(3):
        device.write(device.zone_size + slot * REGION, make_payload(REGION, 100 + slot))
    return device


def _via_caller(device: ZnsSsd, pairs, length) -> None:
    """What GC did before ``copy_many``: the survivors come up as bytes."""
    reads = device.read_many([(src, length) for src, _ in pairs], background=True)
    device.write_many(
        [(dst, read.data) for (_, dst), read in zip(pairs, reads)], background=True
    )


def _state(device: ZnsSsd) -> dict:
    stats = device.stats
    return {
        "media": device.media.load(0, device.capacity_bytes),
        "allocated": device.media.allocated_bytes,
        "zones": [(z.state, z.write_pointer) for z in device.zones],
        "stats": stats.snapshot(),
        "latencies": (stats.read_latency._samples, stats.write_latency._samples),
        "zone_mgmt": device.zone_mgmt,
        "open_touch": (device._open_touch, device._touch_tick),
        "pool": device.pipeline.snapshot(),
        "slots": device.pipeline.pool._slots,
        "clock": device._clock.now,
        "records": [
            tuple(getattr(record, name) for name in TraceRecord.__slots__)
            for record in device.tracer.records
        ],
    }


class TestZnsCopyMany:
    """``copy_many`` against twins driven by ``read_many`` + ``write_many``."""

    @pytest.mark.parametrize(
        "costs", [ZoneCostConfig(), ZoneCostConfig.measured()], ids=["free", "measured"]
    )
    def test_same_commands_same_order_same_everything(self, costs):
        moved, reference = _copy_twin(costs=costs), _copy_twin(costs=costs)
        size = moved.zone_size
        pairs = [
            (1 * REGION, 2 * size),
            (3 * REGION, 2 * size + REGION),
            (size + REGION, 3 * size),
            (5 * REGION, 2 * size + 2 * REGION),
        ]
        with moved.tracer.span("ztl.gc", "migrate"):
            assert moved.copy_many(pairs, REGION) is None
        with reference.tracer.span("ztl.gc", "migrate"):
            _via_caller(reference, pairs, REGION)
        assert _state(moved) == _state(reference)
        reads, writes = [
            [r.offset for r in moved.tracer.records if r.background and r.op == op]
            for op in ("read", "write")
        ]
        assert reads == [src for src, _ in pairs]
        assert writes == [dst for _, dst in pairs]
        assert moved.read(2 * size + REGION, REGION).data == make_payload(REGION, 4)

    @pytest.mark.parametrize(
        "case, error",
        [
            ("offline_source", ZoneDeadError),
            ("full_target", ZoneStateError),
            ("dead_target", ZoneDeadError),
            ("misaligned_length", AlignmentError),
            ("misaligned_target", AlignmentError),
            ("open_budget", ZoneResourceError),
        ],
    )
    def test_same_typed_error_from_the_same_state(self, case, error):
        twins = _copy_twin(max_open=2), _copy_twin(max_open=2)
        size = twins[0].zone_size
        # The first pair is good, so a later one fails mid-batch.
        pairs, length = [(0, 2 * size), (REGION, 2 * size + REGION)], REGION
        for device in twins:
            if case == "offline_source":
                device.zones[0].die(ZoneState.OFFLINE)
            elif case == "dead_target":
                device.zones[2].die(ZoneState.READ_ONLY)
            elif case == "open_budget":
                device.write(4 * size, make_payload(PAGE, 9))  # second open zone
        if case == "full_target":
            pairs[1] = (REGION, 0)
        elif case == "misaligned_length":
            length = REGION + 1
        elif case == "misaligned_target":
            pairs[1] = (REGION, 2 * size + REGION + 1)
        raised = []
        for device, drive in zip(twins, (ZnsSsd.copy_many, _via_caller)):
            with pytest.raises(error) as caught:
                drive(device, pairs, length)
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]
        assert _state(twins[0]) == _state(twins[1])
