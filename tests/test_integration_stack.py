"""Cross-layer integration tests: each scheme's full stack under load,
with substrate-level invariants checked afterwards."""


from repro.bench.schemes import (
    SchemeScale,
    build_block_cache,
    build_file_cache,
    build_region_cache,
    build_zone_cache,
)
from repro.f2fs import fsck
from repro.sim import SimClock
from repro.units import KIB
from repro.workloads import CacheBenchConfig, CacheBenchDriver

SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
    ram_bytes=32 * KIB,
)
MEDIA = 20 * SCALE.zone_size
CACHE = 14 * SCALE.zone_size

WORKLOAD = CacheBenchConfig(
    num_ops=6000, num_keys=3000, zipf_theta=1.0, warmup_ops=3000,
    set_on_miss=True,
)


def run_mix(stack):
    driver = CacheBenchDriver(WORKLOAD)
    driver.populate(stack.cache)
    return driver.run(stack.cache)


class TestRegionCacheStack:
    def test_mix_and_invariants(self):
        stack = build_region_cache(SimClock(), SCALE, MEDIA, CACHE)
        result = run_mix(stack)
        assert result.operations > 0
        layer = stack.substrate["layer"]
        device = stack.substrate["device"]
        # ZNS device never amplifies; every media write was host-issued.
        assert device.stats.media_write_bytes == device.stats.host_write_bytes
        # The layer's mapping covers exactly the cache's live regions.
        assert layer.live_regions <= stack.cache.config.num_regions
        # Zone write pointers are always within bounds and zone states legal.
        for zone in device.zones:
            assert zone.start <= zone.write_pointer <= zone.end
        # Open-zone budget respected throughout (checked at the end here;
        # the device itself raises if it is ever exceeded mid-run).
        assert device.open_zone_count <= device.config.max_open_zones

    def test_gc_accounting_consistent(self):
        stack = build_region_cache(SimClock(), SCALE, MEDIA, CACHE)
        run_mix(stack)
        layer = stack.substrate["layer"]
        assert layer.stats.migrated_region_writes == layer.reclaim.stats.units_migrated
        assert layer.stats.gc_zone_resets == layer.reclaim.stats.victims_reclaimed


class TestZoneCacheStack:
    def test_mix_and_invariants(self):
        stack = build_zone_cache(SimClock(), SCALE, MEDIA)
        run_mix(stack)
        device = stack.substrate["device"]
        store = stack.substrate["store"]
        assert device.stats.write_amplification == 1.0
        # Every zone is either empty, full, or the one being filled.
        open_zones = [z for z in device.zones if z.is_open]
        assert len(open_zones) <= 1
        assert store.zone_resets > 0  # evictions really reset zones


class TestFileCacheStack:
    def test_mix_leaves_consistent_fs(self):
        stack = build_file_cache(SimClock(), SCALE, 2 * MEDIA, CACHE)
        run_mix(stack)
        fs = stack.substrate["fs"]
        report = fsck(fs)
        assert report.clean, report.errors[:3]
        # The cache file exists and covers the cache extent.
        assert fs.exists("cachelib.navy")

    def test_fs_remount_preserves_cache_file(self):
        from repro.f2fs import F2fs, F2fsConfig

        stack = build_file_cache(SimClock(), SCALE, 2 * MEDIA, CACHE)
        run_mix(stack)
        fs = stack.substrate["fs"]
        fs.checkpoint()
        remounted = F2fs.mount(
            SimClock(), fs.data_device, fs.meta_device,
            F2fsConfig(checkpoint_interval_blocks=1 << 30),
        )
        assert remounted.exists("cachelib.navy")
        assert fsck(remounted).clean


class TestBlockCacheStack:
    def test_mix_and_write_pattern(self):
        stack = build_block_cache(SimClock(), SCALE, MEDIA, CACHE)
        run_mix(stack)
        device = stack.substrate["device"]
        # Host writes are whole regions: write bytes divide region size.
        assert device.stats.host_write_bytes % SCALE.region_size == 0
        assert device.stats.write_amplification >= 1.0

    def test_mapping_integrity_after_mix(self):
        stack = build_block_cache(SimClock(), SCALE, MEDIA, CACHE)
        run_mix(stack)
        ftl = stack.substrate["device"].ftl
        locations = {}
        for lpn in range(ftl.logical_pages):
            loc = ftl.physical_of(lpn)
            if loc is not None:
                assert loc not in locations, "two logical pages share a slot"
                locations[loc] = lpn


class TestSchemeComparability:
    def test_all_schemes_answer_identically(self):
        """Same workload, same answers: the scheme only changes *where*
        bytes live, never correctness."""
        results = {}
        for name, builder in (
            ("region", lambda c: build_region_cache(c, SCALE, MEDIA, CACHE)),
            ("zone", lambda c: build_zone_cache(c, SCALE, MEDIA)),
            ("block", lambda c: build_block_cache(c, SCALE, MEDIA, CACHE)),
        ):
            stack = builder(SimClock())
            cache = stack.cache
            for i in range(500):
                cache.set(f"key{i:04d}".encode(), f"value{i}".encode())
            results[name] = [
                cache.get(f"key{i:04d}".encode()) for i in range(0, 500, 7)
            ]
        assert results["region"] == results["zone"] == results["block"]
