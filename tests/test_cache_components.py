"""Unit tests for cache building blocks: codec, index, buffers, policies,
RAM cache, admission, config."""

import pytest

from repro.bench.schemes import SchemeScale, build_scheme
from repro.cache import (
    AdmitAll,
    CacheConfig,
    CpuCosts,
    EntryCodec,
    RamCache,
    RegionMeta,
    make_eviction_policy,
)
from repro.cache.admission import TinyLfuAdmission
from repro.errors import CacheConfigError, ObjectTooLargeError
from repro.sim import SimClock
from repro.units import KIB, MIB


def _open_buffer_cache():
    """A small Region-Cache: ``set`` packs entries into its open region
    buffer (``cache._buffer``), which these tests read back."""
    scale = SchemeScale(zone_size=1 * MIB, region_size=16 * KIB, pages_per_block=64)
    return build_scheme("Region-Cache", SimClock(), scale, 8 * MIB, 4 * MIB).cache


class TestEntryCodec:
    def test_roundtrip(self):
        blob = EntryCodec.encode(b"key", b"value")
        assert EntryCodec.decode(blob) == (b"key", b"value")

    def test_entry_size(self):
        assert EntryCodec.entry_size(b"key", b"value") == 16 + 3 + 5

    def test_expiry_roundtrip(self):
        blob = EntryCodec.encode(b"k", b"v", expiry_ns=12345)
        entry = EntryCodec.decode_entry(blob)
        assert entry.expiry_ns == 12345
        assert entry.is_expired(now_ns=12345)
        assert not entry.is_expired(now_ns=12344)

    def test_no_expiry_never_expires(self):
        entry = EntryCodec.decode_entry(EntryCodec.encode(b"k", b"v"))
        assert not entry.is_expired(now_ns=2**62)

    def test_decode_with_trailing_garbage(self):
        blob = EntryCodec.encode(b"k", b"v") + b"\x00" * 32
        assert EntryCodec.decode(blob) == (b"k", b"v")

    def test_truncated_rejected(self):
        blob = EntryCodec.encode(b"key", b"value")
        with pytest.raises(ValueError):
            EntryCodec.decode(blob[:5])
        with pytest.raises(ValueError):
            EntryCodec.decode(blob[:10])

    def test_empty_value(self):
        blob = EntryCodec.encode(b"key", b"")
        assert EntryCodec.decode(blob) == (b"key", b"")

    @pytest.mark.parametrize("checksum", [False, True])
    def test_scan_keys_matches_scan_region(self, checksum):
        items = [(b"k%03d" % i, b"v" * (i * 37 % 500)) for i in range(40)]
        packed = b"".join(
            EntryCodec.encode(k, v, checksum=checksum, salt=9) for k, v in items
        )
        region = packed + b"\x00" * 300
        entries, torn = EntryCodec.scan_region(region, salt=9)
        assert not torn
        keys = [key for key, _ in items]
        assert [entry.key for _, _, entry in entries] == keys
        assert EntryCodec.scan_keys(region) == keys
        # Any buffer will do, and a truncated tail stops the walk where
        # scan_region stops it.
        view = memoryview(bytearray(region)).toreadonly()
        assert EntryCodec.scan_keys(view) == keys
        cut = len(packed) - 5
        assert EntryCodec.scan_keys(view[:cut]) == keys[:-1]
        assert all(type(key) is bytes for key in EntryCodec.scan_keys(view))


class TestRegionBuffer:
    def test_append_and_read(self):
        cache = _open_buffer_cache()
        buffer = cache._buffer
        cache.set(b"k", b"v" * 10)
        loc = cache.index[b"k"]
        assert loc.region_id == buffer.region_id
        assert loc.offset == 0 and loc.length == buffer.used
        blob = buffer.read(loc.offset, loc.length)
        assert type(blob) is bytes
        assert EntryCodec.decode(blob) == (b"k", b"v" * 10)

    def test_overflow_rejected(self):
        cache = _open_buffer_cache()
        cache.set(b"k", b"v")
        used = cache._buffer.used
        with pytest.raises(ObjectTooLargeError):
            cache.set(b"key", b"x" * cache.config.region_size)
        assert cache._buffer.used == used and cache.stats.flushes == 0

    def test_read_beyond_used_rejected(self):
        cache = _open_buffer_cache()
        cache.set(b"k", b"v")
        with pytest.raises(ValueError):
            cache._buffer.read(0, 64)

    def test_finalize_pads_to_capacity(self):
        cache = _open_buffer_cache()
        cache.set(b"k", b"v")
        payload = cache._buffer.finalize()
        assert len(payload) == cache.config.region_size
        assert payload.readonly and not any(payload[cache._buffer.used :])

    def test_meta_key_tracking(self):
        meta = RegionMeta(0)
        meta.note_inserted(b"a")
        meta.note_inserted(b"b")
        meta.note_removed(b"a")
        assert meta.valid_items == 1


class TestEvictionPolicies:
    def test_fifo_ignores_touch(self):
        policy = make_eviction_policy("fifo")
        policy.track(1)
        policy.track(2)
        policy.touch(1)
        assert policy.pick_victim() == 1

    def test_lru_promotes_on_touch(self):
        policy = make_eviction_policy("lru")
        policy.track(1)
        policy.track(2)
        policy.touch(1)
        assert policy.pick_victim() == 2

    def test_untrack(self):
        policy = make_eviction_policy("lru")
        policy.track(1)
        policy.untrack(1)
        assert policy.pick_victim() is None
        assert len(policy) == 0

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_eviction_policy("random")


class TestRamCache:
    def test_put_get(self):
        ram = RamCache(1024)
        ram.put(b"a", b"1" * 100)
        assert ram.get(b"a") == b"1" * 100

    def test_byte_budget_evicts_lru(self):
        ram = RamCache(300)
        ram.put(b"a", b"1" * 100)
        ram.put(b"b", b"2" * 100)
        ram.get(b"a")  # promote a
        ram.put(b"c", b"3" * 100)  # must evict b
        assert ram.get(b"b") is None
        assert ram.get(b"a") is not None
        assert ram.evictions == 1

    def test_oversized_item_skipped(self):
        ram = RamCache(50)
        ram.put(b"a", b"1" * 100)
        assert ram.get(b"a") is None

    def test_oversized_overwrite_drops_the_previous_value(self):
        """``put(k, small)`` then ``put(k, larger than the tier)`` used
        to return early and keep serving the small, superseded value."""
        ram = RamCache(1024)
        ram.put(b"k", b"old" * 30)
        ram.put(b"other", b"x" * 50)
        ram.put(b"k", b"new" * 700)
        assert ram.get(b"k") is None
        assert b"k" not in ram
        assert ram.used_bytes == len(b"other") + 50
        assert ram.get(b"other") == b"x" * 50 and ram.evictions == 0

    def test_replace_updates_budget(self):
        ram = RamCache(1024)
        ram.put(b"a", b"1" * 100)
        ram.put(b"a", b"2" * 10)
        assert ram.used_bytes == 1 + 10

    def test_remove(self):
        ram = RamCache(1024)
        ram.put(b"a", b"1")
        assert ram.remove(b"a")
        assert not ram.remove(b"a")
        assert ram.used_bytes == 0


class TestAdmission:
    def test_admit_all(self):
        assert AdmitAll().admit(b"k", b"v")

    def test_admit_counts_the_access_and_decides_on_the_prior_estimate(self):
        for threshold in (1, 2, 5):
            admission = TinyLfuAdmission(
                width=16, depth=3, threshold=threshold, decay_ops=10**9, seed=5
            )
            sketch = admission.sketch
            for i in range(400):  # narrow sketch: plenty of collisions
                key = b"k%02d" % (i * 7 % 23)
                expected = sketch.estimate(key)
                assert admission.admit(key, b"") == (expected + 1 >= threshold)
                assert sketch.estimate(key) == expected + 1
                for at_least in (expected, expected + 1, expected + 2):
                    assert sketch.at_least(key, at_least) == (expected + 1 >= at_least)


class TestCacheConfig:
    def test_flash_bytes(self):
        config = CacheConfig(region_size=1024, num_regions=8)
        assert config.flash_bytes == 8192

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"region_size": 0},
            {"num_regions": 1},
            {"ram_bytes": -1},
            {"eviction_policy": "mru"},
            {"reclaim_window": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(CacheConfigError):
            CacheConfig(**kwargs)

    def test_eviction_teardown_superlinear(self):
        cpu = CpuCosts(evict_index_per_item_ns=1000, evict_contention_scale_items=100)
        # 10 items: ~linear; 1000 items: heavy contention multiplier.
        small = cpu.eviction_teardown_ns(10)
        large = cpu.eviction_teardown_ns(1000)
        assert small < 10 * 1000 * 2
        assert large > 1000 * 1000 * 5

    def test_teardown_zero_items(self):
        assert CpuCosts().eviction_teardown_ns(0) == 0

    def test_negative_cost_rejected(self):
        with pytest.raises(CacheConfigError):
            CpuCosts(get_ns=-1)
