"""Unit tests for the RegionStore backends and shared helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.cache.admission import CountMinSketch
from repro.cache.backends import (
    BlockRegionStore,
    FileRegionStore,
    WafRaw,
    ZCacheRegionStore,
    ZoneRegionStore,
    ZtlRegionStore,
)
from repro.cache.backends.base import aligned_window
from repro.cache.item import EntryCodec
from repro.errors import CacheConfigError, OutOfRangeError, RegionSizeError, ReproError
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig
from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    FtlConfig,
    NandGeometry,
    NullBlkDevice,
    ZnsConfig,
    ZnsSsd,
)
from repro.sim import SimClock
from repro.units import KIB, MIB
from repro.ztl import GcConfig, RegionTranslationLayer, ZtlConfig

PAGE = 4 * KIB
REGION = 16 * KIB


def geometry():
    return NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=256)


def payload(tag: int, size: int = REGION) -> bytes:
    return bytes([tag % 251 + 1]) * size


class TestAlignedWindow:
    def test_already_aligned(self):
        assert aligned_window(0, 4096, 4096) == (0, 4096, 0)

    def test_unaligned_offset(self):
        offset, length, skip = aligned_window(100, 50, 4096)
        assert offset == 0
        assert length == 4096
        assert skip == 100

    def test_crossing_boundary(self):
        offset, length, skip = aligned_window(4000, 200, 4096)
        assert offset == 0
        assert length == 8192
        assert skip == 4000

    @given(
        offset=st.integers(min_value=0, max_value=1 << 40),
        length=st.integers(min_value=1, max_value=1 << 24),
        alignment=st.sampled_from([512, 4096, 16384, 1 << 20]),
    )
    def test_window_properties(self, offset, length, alignment):
        aligned_offset, aligned_length, skip = aligned_window(
            offset, length, alignment
        )
        aligned_end = aligned_offset + aligned_length
        # Both edges land on alignment boundaries.
        assert aligned_offset % alignment == 0
        assert aligned_length % alignment == 0
        # The window covers the requested range...
        assert aligned_offset <= offset
        assert aligned_end >= offset + length
        # ...with minimal slack on both sides (never a full spare block).
        assert offset - aligned_offset < alignment
        assert aligned_end - (offset + length) < alignment
        # slice_start points at the requested bytes inside the window.
        assert skip == offset - aligned_offset


class TestWafRaw:
    def test_window_math(self):
        start = WafRaw(app_host=100, app_total=100, dev_host=100, dev_total=110)
        end = WafRaw(app_host=200, app_total=230, dev_host=220, dev_total=290)
        waf = start.window_to(end)
        assert waf.app == pytest.approx(1.30)
        assert waf.device == pytest.approx(1.50)
        assert waf.total == pytest.approx(1.95)

    def test_empty_window_is_one(self):
        raw = WafRaw(1, 1, 1, 1)
        waf = raw.window_to(raw)
        assert waf.app == 1.0 and waf.device == 1.0


def backend_cases():
    def block():
        clock = SimClock()
        device = BlockSsd(clock, BlockSsdConfig(geometry=geometry(), ftl=FtlConfig(0.25)))
        return BlockRegionStore(device, REGION, 16)

    def file():
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=8 * 64 * KIB))
        meta = NullBlkDevice(clock, capacity_bytes=4 * MIB)
        fs = F2fs(clock, zns, meta, F2fsConfig(checkpoint_interval_blocks=1 << 30),
                  CleanerConfig())
        fs.mkfs()
        return FileRegionStore(fs, REGION, 16)

    def zone():
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=4 * 64 * KIB))
        return ZoneRegionStore(zns, 8)

    def ztl():
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=4 * 64 * KIB))
        layer = RegionTranslationLayer(
            zns, ZtlConfig(region_size=REGION, gc=GcConfig(min_empty_zones=2))
        )
        return ZtlRegionStore(layer, 16)

    return [("block", block), ("file", file), ("zone", zone), ("ztl", ztl)]


@pytest.fixture(params=[name for name, _ in backend_cases()])
def store(request):
    for name, factory in backend_cases():
        if name == request.param:
            return factory()
    raise AssertionError


class TestRegionStoreContract:
    def region_size_of(self, store):
        return store.region_size

    def test_write_read_roundtrip(self, store):
        data = payload(3, store.region_size)
        store.write_region(0, data)
        assert store.read(0, 0, store.region_size) == data

    def test_partial_unaligned_read(self, store):
        data = payload(4, store.region_size)
        store.write_region(1, data)
        assert store.read(1, 100, 999) == data[100:1099]

    def test_rewrite_replaces(self, store):
        store.write_region(0, payload(1, store.region_size))
        store.write_region(0, payload(2, store.region_size))
        assert store.read(0, 0, 64) == payload(2, 64)

    def test_bad_region_id(self, store):
        with pytest.raises(OutOfRangeError):
            store.write_region(store.num_regions, payload(1, store.region_size))
        with pytest.raises(OutOfRangeError):
            store.read(-1, 0, 16)
        with pytest.raises(OutOfRangeError):
            store.invalidate_region(store.num_regions)

    def test_wrong_payload_size(self, store):
        with pytest.raises(ValueError):
            store.write_region(0, b"short")

    def test_waf_types(self, store):
        store.write_region(0, payload(1, store.region_size))
        waf = store.waf()
        raw = store.waf_raw()
        assert waf.app >= 1.0 and waf.device >= 1.0
        assert raw.app_total >= raw.app_host >= 0

    def test_scheme_name(self, store):
        assert store.scheme_name.endswith("-Cache")


def z_cache_store():
    zns = ZnsSsd(SimClock(), ZnsConfig(geometry=geometry(), zone_size=4 * 64 * KIB))
    layer = RegionTranslationLayer(
        zns,
        ZtlConfig(region_size=REGION, host_open_zones=1, host_groups=2,
                  gc=GcConfig(min_empty_zones=2)),
    )
    return ZCacheRegionStore(layer, 16, CountMinSketch(64, 2))


def _layer_write_amplification(stack):
    """(app, device) WAF read off each layer's own counters."""
    store = stack.cache.store
    if isinstance(store, ZtlRegionStore):  # Region-Cache and Z-Cache
        app, device = store.layer.stats.app_write_amplification, store.layer.device
    elif isinstance(store, FileRegionStore):
        app, device = store.fs.stats.write_amplification, store.fs.data_device
    else:
        app, device = 1.0, store.device
    return app, device.stats.write_amplification


@pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
def test_waf_is_each_layers_own_write_amplification(name):
    """The one ``RegionStore.waf`` (a window from zero over ``waf_raw``)
    equals, bit for bit, the ratio each layer keeps itself — before any
    write (1.0) and after churn that makes the ZTL and F2FS collect."""
    scale = SchemeScale(
        zone_size=256 * KIB, region_size=REGION, pages_per_block=16, ram_bytes=0
    )
    zones = 16 if name == "File-Cache" else 12  # F2FS needs the spare sections
    cache_bytes = None if name == "Zone-Cache" else 9 * scale.zone_size
    stack = build_scheme(name, SimClock(), scale, zones * scale.zone_size, cache_bytes)
    store = stack.cache.store
    assert (store.waf().app, store.waf().device) == _layer_write_amplification(stack)
    for i in range(5000):
        stack.cache.set(b"k%04d" % (i * 7919 % 1500), b"v" * (1000 + i % 2000))
    waf = store.waf()
    assert (waf.app, waf.device) == _layer_write_amplification(stack)
    if name in ("Region-Cache", "Z-Cache", "File-Cache"):
        assert waf.app > 1.0


@pytest.mark.parametrize(
    "factory", [*(f for _, f in backend_cases()), z_cache_store],
    ids=[*(name for name, _ in backend_cases()), "zcache"],
)
def test_bad_location_and_bad_payload_raise_typed_errors(factory):
    """A location that runs past its region is an ``OutOfRangeError`` on
    every scheme — it used to read the neighbour region's bytes on
    Block-/File-/Zone-Cache and escape as a bare ``ValueError`` from the
    translation layer — and a wrong-size payload a ``RegionSizeError``."""
    store = factory()
    size = store.region_size
    store.write_region(0, payload(1, size))
    store.write_region(1, payload(2, size))
    for offset, length in [(size - 100, 200), (size, 16), (-8, 16), (0, size + 1), (64, 0)]:
        with pytest.raises(OutOfRangeError):
            store.read(0, offset, length)
    with pytest.raises(OutOfRangeError):
        store.read(store.num_regions, 0, 16)
    assert store.read(0, size - 100, 100) == payload(1, 100)  # the tail is fine
    for bad in (b"short", bytes(size + PAGE)):
        with pytest.raises(RegionSizeError) as caught:
            store.write_region(0, bad)
        assert isinstance(caught.value, ReproError)
    assert store.read(0, 0, 64) == payload(1, 64)  # and nothing was written


def _packed_region(size: int, salt: int, tag: int):
    """A region of checksummed entries of mixed sizes, packed to the last
    byte that fits; returns the payload and the entry locations."""
    packed = bytearray()
    entries = []
    lengths = [37, 3000, 4096 - 28, 900, 5000, 1, 4100, 250]
    index = 0
    while True:
        key = b"k%d-%d" % (tag, index)
        value = bytes([(tag + index) % 251 + 1]) * lengths[index % len(lengths)]
        remaining = size - len(packed)
        if EntryCodec.entry_size(key, value, checksum=True) > remaining:
            tail = remaining - EntryCodec.entry_size(key, b"", checksum=True)
            if tail < 0:
                break
            value = value[:1] * tail  # the last entry ends on the region's last byte
        blob = EntryCodec.encode(key, value, checksum=True, salt=salt)
        entries.append((len(packed), len(blob), key, value))
        packed += blob
        index += 1
    return bytes(packed) + bytes(size - len(packed)), entries


def _old_read(store, region_id: int, offset: int, length: int) -> bytes:
    """Each backend's ``read`` body as it was before they shared one."""
    if isinstance(store, ZtlRegionStore):
        block = store.layer.device.block_size
        aligned_offset, aligned_length, skip = aligned_window(offset, length, block)
        aligned_length = min(aligned_length, store.region_size - aligned_offset)
        data = store.layer.read_region(region_id, aligned_offset, aligned_length).data
    elif isinstance(store, FileRegionStore):
        aligned_offset, aligned_length, skip = aligned_window(
            offset, length, store.fs.layout.block_size
        )
        data = store.file.pread(
            region_id * store.region_size + aligned_offset, aligned_length
        )
    else:
        aligned_offset, aligned_length, skip = aligned_window(
            offset, length, store.device.block_size
        )
        base = (
            store.device.zones[region_id].start
            if isinstance(store, ZoneRegionStore)
            else region_id * store.region_size
        )
        data = store.device.read(base + aligned_offset, aligned_length).data
    return data[skip : skip + length]


@pytest.mark.parametrize(
    "factory", [*(f for _, f in backend_cases()), z_cache_store],
    ids=[*(name for name, _ in backend_cases()), "zcache"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_read_equals_each_backends_old_formula(factory, data):
    """Same bytes, same simulated time and same device traffic as the
    four pasted bodies, for any range inside a region: block-straddling,
    block-aligned, the region's tail, and whole checksummed entries
    (which still verify against the region's salt)."""
    new, old = factory(), factory()
    size = new.region_size
    entries = {}
    for region_id in (0, 1):
        packed, entries[region_id] = _packed_region(size, salt=9 + region_id, tag=region_id)
        new.write_region(region_id, packed)
        old.write_region(region_id, packed)
    for _ in range(6):
        region_id = data.draw(st.integers(0, 1))
        if data.draw(st.booleans()):
            offset, length, key, value = data.draw(st.sampled_from(entries[region_id]))
        else:
            offset = data.draw(st.integers(0, size - 1) | st.sampled_from(
                [0, PAGE - 1, PAGE, size - PAGE, size - 1]
            ))
            length = data.draw(st.integers(1, size - offset))
            key = None
        got = new.read(region_id, offset, length)
        assert got == _old_read(old, region_id, offset, length)
        if key is not None:
            assert EntryCodec.read_entry(got, salt=9 + region_id) == (key, value, 0)
    assert _clock_of(new).now == _clock_of(old).now
    assert _device_of(new).stats.host_read_bytes == _device_of(old).stats.host_read_bytes
    assert (
        _device_of(new).pipeline.commands
        == _device_of(old).pipeline.commands
    )


def _device_of(store):
    if isinstance(store, ZtlRegionStore):
        return store.layer.device
    if isinstance(store, FileRegionStore):
        return store.fs.data_device
    return store.device


def _clock_of(store):
    return _device_of(store).pipeline.clock


class TestBackendSpecifics:
    def test_block_store_capacity_check(self):
        clock = SimClock()
        device = BlockSsd(clock, BlockSsdConfig(geometry=geometry()))
        too_many = device.capacity_bytes // REGION + 1
        with pytest.raises(ValueError):
            BlockRegionStore(device, REGION, too_many)

    def test_file_store_must_fit_fs(self):
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=8 * 64 * KIB))
        meta = NullBlkDevice(clock, capacity_bytes=4 * MIB)
        fs = F2fs(clock, zns, meta)
        fs.mkfs()
        too_many = fs.usable_bytes // REGION + 1
        with pytest.raises(ValueError):
            FileRegionStore(fs, REGION, too_many)

    def test_zone_store_region_is_zone(self):
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=4 * 64 * KIB))
        store = ZoneRegionStore(zns)
        assert store.region_size == zns.zone_size
        assert store.num_regions == zns.num_zones

    def test_zone_store_invalidate_resets(self):
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=4 * 64 * KIB))
        store = ZoneRegionStore(zns, 4)
        store.write_region(0, payload(1, store.region_size))
        store.invalidate_region(0)
        from repro.flash.zone import ZoneState

        assert zns.zones[0].state == ZoneState.EMPTY

    def test_ztl_store_requires_op(self):
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=4 * 64 * KIB))
        layer = RegionTranslationLayer(zns, ZtlConfig(region_size=REGION))
        with pytest.raises(CacheConfigError):
            ZtlRegionStore(layer, layer.total_slots)

    def test_ztl_op_ratio(self):
        clock = SimClock()
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry(), zone_size=4 * 64 * KIB))
        layer = RegionTranslationLayer(zns, ZtlConfig(region_size=REGION))
        store = ZtlRegionStore(layer, layer.total_slots // 2)
        assert store.op_ratio == pytest.approx(0.5)


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_oversize_overwrite_never_serves_the_superseded_value(scheme):
    """A value larger than the whole DRAM tier replaces a small one: the
    tier used to keep the small value and ``get`` served it — stale
    bytes from a cache whose contract is *never a wrong value*."""
    scale = SchemeScale(
        zone_size=1 * MIB, region_size=16 * KIB, pages_per_block=64, ram_bytes=1024
    )
    if scheme == "Zone-Cache":
        stack = build_scheme(scheme, SimClock(), scale, 8 * MIB)
    else:
        stack = build_scheme(
            scheme, SimClock(), scale, 8 * MIB, 4 * MIB, file_media_bytes=12 * MIB
        )
    cache = stack.cache
    small, large = b"s" * 100, b"L" * 2000
    for _ in range(2):  # Z-Cache's doorkeeper admits a key it has seen
        cache.set(b"k", small)
    assert cache.get(b"k") == small
    cache.set(b"k", large)
    assert cache.get(b"k") == large
    cache.flush()
    assert cache.get(b"k") == large
