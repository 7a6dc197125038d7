"""Integration tests for the hybrid cache engine over each backend."""

import pickle

import pytest

from repro.bench.schemes import (
    ALL_SCHEME_NAMES,
    SchemeScale,
    build_block_cache,
    build_file_cache,
    build_region_cache,
    build_scheme,
    build_zone_cache,
)
from repro.cache import AdmissionPolicy, AdmitAll, CacheConfig, HybridCache
from repro.cache.backends import BlockRegionStore
from repro.errors import (
    CacheConfigError,
    CacheError,
    CacheTypeError,
    InvalidTtlError,
    ObjectTooLargeError,
)
from repro.flash import BlockSsd, BlockSsdConfig, FtlConfig, NandGeometry
from repro.sim import SimClock
from repro.units import KIB

TEST_SCALE = SchemeScale(
    zone_size=256 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,  # 64 KiB erase blocks for the small test devices
    ram_bytes=32 * KIB,
)


def all_schemes():
    """(name, builder) for each scheme at test scale."""
    media = 16 * TEST_SCALE.zone_size  # 4 MiB
    cache = 12 * TEST_SCALE.zone_size  # 3 MiB
    return [
        ("Block-Cache", lambda: build_block_cache(SimClock(), TEST_SCALE, media, cache)),
        ("Zone-Cache", lambda: build_zone_cache(SimClock(), TEST_SCALE, media)),
        ("File-Cache", lambda: build_file_cache(SimClock(), TEST_SCALE, 2 * media, cache)),
        ("Region-Cache", lambda: build_region_cache(SimClock(), TEST_SCALE, media, cache)),
    ]


def value_for(i: int, size: int = 600) -> bytes:
    return (f"v{i:06d}".encode() * (size // 7 + 1))[:size]


@pytest.fixture(params=[name for name, _ in all_schemes()])
def stack(request):
    for name, builder in all_schemes():
        if name == request.param:
            return builder()
    raise AssertionError


class TestSetRefusesWhatIsNotBytes:
    """A key or value that is not ``bytes`` is refused with a typed error
    before the clock, stats, RAM tier or TTL ledger move.  It used to
    charge the set and count it, and then either raise a bare
    ``TypeError`` from the region buffer with the refused value left in
    the RAM tier, or accept it outright (a list value), so a later
    ``get`` served what the set had refused."""

    @pytest.fixture(params=ALL_SCHEME_NAMES)
    def cache(self, request):
        media = 16 * TEST_SCALE.zone_size
        name = request.param
        if name == "Zone-Cache":
            stack = build_scheme(name, SimClock(), TEST_SCALE, media)
        else:
            stack = build_scheme(
                name, SimClock(), TEST_SCALE, media, 12 * TEST_SCALE.zone_size,
                file_media_bytes=2 * media,
            )
        cache = stack.cache
        assert cache.set(b"kept", b"k" * 100, ttl_seconds=60)
        return cache

    @staticmethod
    def _state(cache):
        return (
            cache._clock.now, cache.stats.sets, dict(cache.ram._items),
            dict(cache.lifecycle.expiry), dict(cache.index),
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("abc", b"v" * 10),
            (b"abc", "v" * 10),
            (b"abe", [1, 2]),
            (b"abf", bytearray(b"v" * 10)),
            (memoryview(b"abg"), b"v"),
            (7, b"v"),
        ],
    )
    @pytest.mark.parametrize("ttl", [None, 30])
    def test_refused_before_anything_moves(self, cache, key, value, ttl):
        before = self._state(cache)
        with pytest.raises(CacheTypeError, match="bytes") as caught:
            cache.set(key, value, ttl_seconds=ttl)
        assert isinstance(caught.value, CacheError)
        assert isinstance(caught.value, TypeError)
        assert self._state(cache) == before
        for probe in (key, b"abc", b"abe", b"abf"):
            assert cache.get(probe) is None
        assert cache.get(b"kept") == b"k" * 100


class TestEngineBasics:
    def test_set_get_roundtrip(self, stack):
        cache = stack.cache
        assert cache.set(b"key1", b"hello")
        assert cache.get(b"key1") == b"hello"

    def test_get_missing(self, stack):
        assert stack.cache.get(b"nope") is None

    def test_overwrite(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v1")
        cache.set(b"k", b"v2")
        assert cache.get(b"k") == b"v2"

    def test_delete(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v")
        assert cache.delete(b"k")
        assert cache.get(b"k") is None
        assert not cache.delete(b"k")

    def test_read_spans_flush_boundary(self, stack):
        """Values must be readable before and after the region flush."""
        cache = stack.cache
        keys = [f"key{i}".encode() for i in range(64)]
        for i, key in enumerate(keys):
            cache.set(key, value_for(i))
        cache.flush()
        for i, key in enumerate(keys):
            assert cache.get(key) == value_for(i), key

    def test_object_too_large_rejected(self, stack):
        with pytest.raises(ObjectTooLargeError):
            stack.cache.set(b"big", b"x" * (stack.cache.config.region_size + 1))

    @pytest.mark.parametrize(
        "oversize, ttl, error",
        [
            (True, None, ObjectTooLargeError),
            (False, 0, InvalidTtlError),
            (False, -2.5, InvalidTtlError),
            (False, float("nan"), InvalidTtlError),
        ],
    )
    def test_rejected_set_charges_nothing(self, stack, oversize, ttl, error):
        """A refused set is validated before anything is touched: no
        simulated time, no ``sets`` count, no tier or TTL change."""
        cache = stack.cache
        cache.set(b"k", b"old", ttl_seconds=30.0)
        cache.set(b"other", value_for(1))

        def state():
            return pickle.dumps(
                (stack.clock.now, cache.stats, cache.ram, cache.index, cache._expiry)
            )

        before = state()
        size = cache.config.region_size + 1 if oversize else 64
        with pytest.raises(error) as raised:
            cache.set(b"k", b"x" * size, ttl_seconds=ttl)
        assert isinstance(raised.value, CacheError)
        assert state() == before
        assert cache.get(b"k") == b"old"

    def test_contains(self, stack):
        stack.cache.set(b"k", b"v")
        assert stack.cache.contains(b"k")
        assert not stack.cache.contains(b"missing")

    def test_clock_advances_on_ops(self, stack):
        before = stack.clock.now
        stack.cache.set(b"k", b"v")
        stack.cache.get(b"k")
        assert stack.clock.now > before


class TestEngineEviction:
    def fill_past_capacity(self, stack, factor=1.6, size=900):
        cache = stack.cache
        total = int(cache.config.flash_bytes * factor // size)
        for i in range(total):
            cache.set(f"fill{i:08d}".encode(), value_for(i, size))
        return total

    def test_whole_region_eviction(self, stack):
        total = self.fill_past_capacity(stack)
        cache = stack.cache
        assert cache.regions.regions_evicted > 0
        # Oldest keys are gone (FIFO regions), newest survive.
        assert cache.get(f"fill{total - 1:08d}".encode()) is not None
        cache.ram.clear()
        assert cache.get(b"fill00000000") is None

    def test_item_count_bounded_by_capacity(self, stack):
        self.fill_past_capacity(stack, factor=2.0)
        cache = stack.cache
        max_items = cache.config.flash_bytes // 900
        assert cache.item_count() <= max_items + cache.config.region_size // 900 + 1

    def test_data_integrity_under_churn(self, stack):
        """Every key the index still knows must read back correctly."""
        cache = stack.cache
        total = self.fill_past_capacity(stack, factor=1.8)
        cache.ram.clear()
        survivors = 0
        for i in range(total):
            key = f"fill{i:08d}".encode()
            value = cache.get(key)
            if value is not None:
                assert value == value_for(i, 900)
                survivors += 1
        assert survivors > 0

    def test_no_stale_reads(self, stack):
        self.fill_past_capacity(stack, factor=1.8)
        assert stack.cache.stats.stale_index_reads == 0

    def test_fill_durations_recorded(self, stack):
        self.fill_past_capacity(stack)
        assert len(stack.cache.stats.region_fill_durations_ns) > 0


class TestEngineStats:
    def test_hit_ratio_tracks(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v")
        cache.get(b"k")
        cache.get(b"absent")
        assert cache.stats.lookups.total == 2
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_reset_stats(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v")
        cache.get(b"k")
        cache.reset_stats()
        assert cache.stats.operations == 0
        # Data survives a stats reset.
        assert cache.get(b"k") == b"v"

    def test_waf_breakdown_present(self, stack):
        waf = stack.cache.waf()
        assert waf.app >= 1.0
        assert waf.device >= 1.0
        assert waf.total == pytest.approx(waf.app * waf.device)


class _RejectAll(AdmissionPolicy):
    """An admission policy that keeps every set off flash."""

    def admit(self, key: bytes, value: bytes) -> bool:
        return False


class TestEngineAdmission:
    def make_block_cache(self, admission):
        clock = SimClock()
        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=64)
        device = BlockSsd(clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)))
        store = BlockRegionStore(device, 16 * KIB, 8)
        config = CacheConfig(region_size=16 * KIB, num_regions=8, ram_bytes=8 * KIB)
        return HybridCache(clock, store, config, admission=admission)

    def test_rejected_sets_stay_in_ram_only(self):
        cache = self.make_block_cache(_RejectAll())
        assert not cache.set(b"k", b"v")
        assert cache.get(b"k") == b"v"  # served by RAM
        cache.ram.clear()
        assert cache.get(b"k") is None  # never reached flash

    def test_rejection_drops_stale_flash_copy(self):
        cache = self.make_block_cache(AdmitAll())
        cache.set(b"k", b"old")
        cache.admission = _RejectAll()
        cache.set(b"k", b"new")
        cache.ram.clear()
        # The stale flash copy must not resurface.
        assert cache.get(b"k") is None

    def test_config_backend_mismatch_rejected(self):
        clock = SimClock()
        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=64)
        device = BlockSsd(clock, BlockSsdConfig(geometry=geometry))
        store = BlockRegionStore(device, 16 * KIB, 8)
        with pytest.raises(CacheConfigError):
            HybridCache(clock, store, CacheConfig(region_size=32 * KIB, num_regions=4))
        with pytest.raises(CacheConfigError):
            HybridCache(clock, store, CacheConfig(region_size=16 * KIB, num_regions=9))


class TestZoneCacheSpecifics:
    def test_zero_wa_forever(self):
        stack = build_zone_cache(SimClock(), TEST_SCALE, 16 * TEST_SCALE.zone_size)
        cache = stack.cache
        for i in range(3 * cache.config.flash_bytes // 900):
            cache.set(f"fill{i:08d}".encode(), value_for(i, 900))
        waf = cache.waf()
        assert waf.app == 1.0
        assert waf.device == 1.0

    def test_eviction_resets_zone(self):
        stack = build_zone_cache(SimClock(), TEST_SCALE, 4 * TEST_SCALE.zone_size)
        cache = stack.cache
        store = stack.substrate["store"]
        for i in range(int(5.5 * TEST_SCALE.zone_size // 900)):
            cache.set(f"fill{i:08d}".encode(), value_for(i, 900))
        assert store.zone_resets > 0
