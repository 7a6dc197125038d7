"""White-box tests of HybridCache internals: open-buffer behaviour,
key-set maintenance, region metadata coherence."""


from repro.cache import CacheConfig, HybridCache
from repro.cache.backends import BlockRegionStore
from repro.flash import BlockSsd, BlockSsdConfig, FtlConfig, NandGeometry
from repro.sim import SimClock
from repro.units import KIB

REGION = 16 * KIB


def make_cache(num_regions=8, ram_kib=8, read_from_buffer=True):
    clock = SimClock()
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=128)
    device = BlockSsd(clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)))
    store = BlockRegionStore(device, REGION, num_regions)
    config = CacheConfig(
        region_size=REGION,
        num_regions=num_regions,
        ram_bytes=ram_kib * KIB,
        read_from_buffer=read_from_buffer,
    )
    return HybridCache(clock, store, config), clock, device


class TestOpenBuffer:
    def test_read_from_buffer_serves_without_device_read(self):
        cache, clock, device = make_cache()
        cache.set(b"k", b"v" * 100)
        cache.ram.clear()
        reads_before = device.stats.host_read_bytes
        assert cache.get(b"k") == b"v" * 100
        assert device.stats.host_read_bytes == reads_before  # buffer hit

    def test_read_from_buffer_disabled_goes_to_device(self):
        cache, clock, device = make_cache(read_from_buffer=False)
        cache.set(b"k", b"v" * 100)
        cache.flush()  # must be on flash to be readable at all
        cache.ram.clear()
        reads_before = device.stats.host_read_bytes
        assert cache.get(b"k") == b"v" * 100
        assert device.stats.host_read_bytes > reads_before

    def test_overwrite_in_open_buffer_reads_newest(self):
        cache, *_ = make_cache()
        cache.set(b"k", b"old" * 30)
        cache.set(b"k", b"new" * 30)
        cache.ram.clear()
        assert cache.get(b"k") == b"new" * 30

    def test_flush_empties_buffer_and_seals(self):
        cache, *_ = make_cache()
        cache.set(b"k", b"v")
        sealed_before = cache.regions.sealed_count
        cache.flush()
        assert cache.regions.sealed_count == sealed_before + 1
        assert cache._buffer.used == 0

    def test_flush_of_empty_buffer_is_noop(self):
        cache, *_ = make_cache()
        sealed_before = cache.regions.sealed_count
        cache.flush()
        assert cache.regions.sealed_count == sealed_before


class TestKeySetCoherence:
    def fill_region(self, cache, tag, count=12):
        keys = [f"{tag}-{i:04d}".encode() for i in range(count)]
        for key in keys:
            cache.set(key, b"x" * 1200)
        return keys

    def test_sealed_meta_tracks_inserted_keys(self):
        cache, *_ = make_cache()
        keys = self.fill_region(cache, "a")
        cache.flush()
        sealed = [
            cache.regions.meta(region_id)
            for region_id in range(cache.config.num_regions)
            if cache.regions.meta(region_id) is not None
        ]
        tracked = set().union(*(meta.keys for meta in sealed))
        assert set(keys) <= tracked

    def test_delete_prunes_sealed_meta(self):
        cache, *_ = make_cache()
        keys = self.fill_region(cache, "a")
        cache.flush()
        location = cache.index.get(keys[0])
        cache.delete(keys[0])
        meta = cache.regions.meta(location.region_id)
        assert keys[0] not in meta.keys

    def test_overwrite_moves_key_between_metas(self):
        cache, *_ = make_cache()
        keys = self.fill_region(cache, "a")
        cache.flush()
        old_location = cache.index.get(keys[0])
        cache.set(keys[0], b"y" * 1200)  # now in the open buffer
        meta = cache.regions.meta(old_location.region_id)
        assert keys[0] not in meta.keys
        assert keys[0] in cache._open_entries

    def test_eviction_only_drops_own_keys(self):
        """A key overwritten into a newer region must survive the old
        region's eviction."""
        cache, *_ = make_cache(num_regions=3)
        first = self.fill_region(cache, "a")
        cache.flush()
        survivor = first[0]
        cache.set(survivor, b"fresh" * 200)  # moves to the open region
        # Churn just enough that the survivor's OLD region (the first
        # sealed one) is evicted while its new home region is not.
        for tag in ("b", "c", "d"):
            self.fill_region(cache, tag)
        assert cache.regions.regions_evicted >= 1
        cache.ram.clear()
        assert cache.get(survivor) is not None

    def test_item_count_matches_index(self):
        cache, *_ = make_cache()
        self.fill_region(cache, "a", count=10)
        cache.delete(b"a-0000")
        assert cache.item_count() == len(cache.index)
        assert cache.item_count() == 9
