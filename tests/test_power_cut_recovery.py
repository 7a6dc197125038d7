"""Cut anywhere, recover, keep serving.

A power cut can land inside a device write (``ZnsSsd._maybe_tear``
persists a prefix of it) or between commands (the next command is
refused at ``IoPipeline.inject`` before any byte lands).  Either way,
after ``restore_power()`` and ``HybridCache.crash_recover`` every
scheme must take writes again: the ZTL and F2FS place their next write
at the zone's write pointer, which is the only write cursor there is.

The property runs all five schemes; the unit tests below it pin the
smallest cases that used to wedge — a ZTL zone whose write pointer a
torn region write or a torn GC copy left inside a slot, and an F2FS log
head that had handed out blocks for a write the cut refused — and the
F2FS byte count of a batch the cut tore.
"""

import random

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.cache.engine import HybridCache
from repro.errors import PowerCutError
from repro.f2fs import F2fs, F2fsConfig, fsck
from repro.flash import NandGeometry, NullBlkDevice, ZnsConfig, ZnsSsd
from repro.flash.zone import ZoneState
from repro.sim import FaultInjector, SimClock
from repro.units import KIB, MIB
from repro.ztl import ZoneUse
from tests.books import assert_ztl_books_agree
from tests.helpers import REGION, make_layer, payload

SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16, ram_bytes=0
)
MEDIA_ZONES = 8
FILE_MEDIA_ZONES = 12
CACHE_REGIONS = 6
ZONE_CACHE_ZONES = 3
SETS_AFTER = 1500


def _stack(scheme, faults):
    zone = SCALE.zone_size
    if scheme == "Zone-Cache":
        return build_scheme(
            scheme, SimClock(), SCALE, MEDIA_ZONES * zone, ZONE_CACHE_ZONES * zone,
            faults=faults,
        )
    return build_scheme(
        scheme, SimClock(), SCALE, MEDIA_ZONES * zone,
        CACHE_REGIONS * SCALE.region_size,
        file_media_bytes=FILE_MEDIA_ZONES * zone, faults=faults,
    )


def _value(rng, tag):
    return tag + bytes(rng.randrange(200, 2000))


class TestCutAnywhereKeepsServing:
    @settings(
        max_examples=5,
        deadline=None,
        derandomize=True,
        phases=(Phase.explicit, Phase.generate),
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cut=st.integers(3_000_000, 40_000_000))
    # A cut inside a write on every scheme but Zone-Cache, and one
    # refused at the gate: on the ZTL schemes, and on File- and
    # Block-Cache.
    @example(cut=3_000_000)
    @example(cut=7_938_268)
    @example(cut=4_234_567)
    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    def test_recovered_cache_takes_writes_and_reads_acknowledged_values(
        self, scheme, cut
    ):
        faults = FaultInjector(seed=3, power_cut_at_ns=cut)
        stack = _stack(scheme, faults)
        cache = stack.cache
        rng = random.Random(1)
        acked = {}
        interrupted = None
        for step in range(20_000):
            key = b"k%d" % rng.randrange(300)
            value = _value(rng, b"%d:" % step)
            try:
                cache.set(key, value)
            except PowerCutError:
                interrupted = (key, value)
                break
            acked[key] = value
        assert faults.stats.power_cuts == 1 and interrupted is not None
        faults.restore_power()
        cache = HybridCache.crash_recover(
            stack.clock, cache.store, cache.config, cache.seal_journal,
            admission=cache.admission,
        )

        def assert_reads():
            for key in acked.keys() | {interrupted[0]}:
                got = cache.get(key)
                allowed = [None, acked.get(key)]
                if interrupted is not None and key == interrupted[0]:
                    allowed.append(interrupted[1])
                assert got in allowed, key

        assert_reads()
        for step in range(SETS_AFTER):
            key = b"k%d" % rng.randrange(300)
            value = _value(rng, b"after %d:" % step)
            assert cache.set(key, value)
            acked[key] = value
            if key == interrupted[0]:
                interrupted = (key, None)  # superseded: only the newest reads
        assert_reads()
        layer, fs = stack.substrate.get("layer"), stack.substrate.get("fs")
        if layer is not None:
            assert_ztl_books_agree(layer)
        if fs is not None:
            report = fsck(fs)
            assert report.clean, report.errors
            device = stack.substrate["device"]
            assert fs.stats.data_write_bytes == device.stats.host_write_bytes


class TestZtlTornSlot:
    def test_torn_region_write_ends_its_zone(self):
        """Regions 0 and 1 land; the cut falls halfway through region
        2's write, which lands a half-region prefix on zone 0.  After
        power is back, the layer finishes zone 0 (the torn slot and its
        tail stay clear) and writes go on in the other zones."""
        faults = FaultInjector(seed=1)
        layer = make_layer(faults=faults)
        device, clock = layer.device, layer.device.pipeline.clock
        layer.write_region(0, payload(0))
        layer.write_region(1, payload(1))
        zone0 = device.zones[layer.map[0].zone_index]
        faults.power_cut_at_ns = clock.now + device._write_service_ns(REGION) // 2
        with pytest.raises(PowerCutError):
            layer.write_region(2, payload(2))
        assert REGION < zone0.written_bytes < 2 * REGION
        assert not layer.has_region(2)
        faults.restore_power()
        finishes = device.zone_mgmt.finishes
        for region_id in range(2, 12):
            layer.write_region(region_id, payload(region_id))
        assert device.zone_mgmt.finishes == finishes + 1
        record = layer.book.record(zone0.index)
        assert zone0.state is ZoneState.FULL and record.use is ZoneUse.FINISHED
        assert record.owners == [0] + [None] * (layer.slots_per_zone - 1)
        assert_ztl_books_agree(layer)
        for region_id in range(12):
            assert layer.read_region(region_id).data == payload(region_id)

    def test_torn_gc_copy_ends_the_gc_zone(self):
        """The cut falls halfway through a GC batch's first copy: the GC
        stream's zone keeps a torn prefix.  When GC runs again on
        restored power it finishes that zone and moves the survivors to
        an empty one."""
        faults = FaultInjector(seed=1)
        layer = make_layer(
            num_blocks=24, min_empty=1, threshold=0.5, faults=faults, host_open=1
        )
        device, clock = layer.device, layer.device.pipeline.clock
        for region_id in range(5):  # zone 0 holds regions 0-3
            layer.write_region(region_id, payload(region_id))
        layer.invalidate_region(0)
        layer.invalidate_region(1)
        faults.power_cut_at_ns = clock.now + device._write_service_ns(REGION) // 2
        with pytest.raises(PowerCutError):
            layer.reclaim.collect()
        torn = device.zones[layer.book.gc_zone]
        assert 0 < torn.written_bytes < REGION
        faults.restore_power()
        finishes = device.zone_mgmt.finishes
        layer.reclaim.collect()
        assert device.zone_mgmt.finishes == finishes + 1
        assert torn.state is ZoneState.FULL
        assert layer.book.record(torn.index).valid_count == 0
        assert layer.map[2].zone_index not in (0, torn.index)
        assert_ztl_books_agree(layer)
        for region_id in (2, 3, 4):
            assert layer.read_region(region_id).data == payload(region_id)


BLOCK = 4 * KIB


def make_fs(faults):
    clock = SimClock()
    geometry = NandGeometry(page_size=BLOCK, pages_per_block=16, num_blocks=128)
    zns = ZnsSsd(
        clock, ZnsConfig(geometry=geometry, zone_size=8 * geometry.block_size),
        faults=faults,
    )
    meta = NullBlkDevice(clock, capacity_bytes=8 * MIB, faults=faults)
    fs = F2fs(clock, zns, meta, F2fsConfig(checkpoint_interval_blocks=10**6))
    fs.mkfs()
    return fs


def blocks(tag, count):
    return bytes([tag]) * (BLOCK * count)


class TestF2fsCut:
    def test_cut_refused_at_the_gate_leaves_no_gap(self):
        """The cut trips the data write's gate, before any byte lands:
        the blocks the hot log head handed out were never written, and
        the next write starts at the write pointer all the same."""
        faults = FaultInjector(seed=1)
        fs = make_fs(faults)
        handle = fs.create("f")
        fs.pwrite(handle.file_id, 0, blocks(1, 4))
        faults.power_cut_at_ns = fs.data_device.pipeline.clock.now
        written = fs.data_device.stats.host_write_bytes
        with pytest.raises(PowerCutError):
            fs.pwrite(handle.file_id, 4 * BLOCK, blocks(2, 4))
        assert fs.data_device.stats.host_write_bytes == written
        faults.restore_power()
        fs.pwrite(handle.file_id, 4 * BLOCK, blocks(3, 4))
        assert fs.pread(handle.file_id, 0, 8 * BLOCK) == blocks(1, 4) + blocks(3, 4)
        report = fsck(fs)
        assert report.clean, report.errors

    def test_cut_batch_counts_the_bytes_that_landed(self):
        """A pwrite spanning two sections is cut halfway through its
        second run: the first run and the second's torn prefix reached
        the media, and the filesystem's data bytes say so."""
        faults = FaultInjector(seed=1)
        fs = make_fs(faults)
        zns, clock = fs.data_device, fs.data_device.pipeline.clock
        per_section = fs.layout.blocks_per_section
        handle = fs.create("f")
        fs.pwrite(handle.file_id, 0, blocks(1, per_section - 4))
        assert fs.stats.data_write_bytes == zns.stats.host_write_bytes
        first, second = 4 * BLOCK, 8 * BLOCK
        faults.power_cut_at_ns = (
            clock.now
            + fs.config.cpu_ns_per_block * 12
            + zns._write_service_ns(first)
            + zns._write_service_ns(second) // 2
        )
        before = zns.stats.host_write_bytes
        with pytest.raises(PowerCutError):
            fs.pwrite(handle.file_id, (per_section - 4) * BLOCK, blocks(2, 12))
        assert faults.stats.torn_writes == 1
        assert first < zns.stats.host_write_bytes - before < first + second
        assert fs.stats.data_write_bytes == zns.stats.host_write_bytes
