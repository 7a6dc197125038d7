"""Warm-restart tests: cache index persistence and ZTL state snapshots."""

import random

import pytest

from repro.cache import CacheConfig, HybridCache
from repro.cache.backends import BlockRegionStore, ZtlRegionStore
from repro.errors import CacheConfigError, InvalidKeyError
from repro.flash import BlockSsd, BlockSsdConfig, FtlConfig, NandGeometry, ZnsConfig, ZnsSsd
from repro.sim import SimClock
from repro.units import KIB
from repro.ztl import GcConfig, RegionTranslationLayer, ZtlConfig

REGION = 16 * KIB


def make_block_cache():
    clock = SimClock()
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=128)
    device = BlockSsd(clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)))
    store = BlockRegionStore(device, REGION, 16)
    config = CacheConfig(region_size=REGION, num_regions=16, ram_bytes=8 * KIB)
    return HybridCache(clock, store, config), clock, store, config


def make_ztl_stack():
    clock = SimClock()
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=256)
    zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=4 * geometry.block_size))
    layer = RegionTranslationLayer(
        zns, ZtlConfig(region_size=REGION, gc=GcConfig(min_empty_zones=2))
    )
    store = ZtlRegionStore(layer, 160)
    config = CacheConfig(region_size=REGION, num_regions=160, ram_bytes=8 * KIB)
    return HybridCache(clock, store, config), clock, store, config, layer


class TestCacheWarmRestart:
    def test_flash_contents_survive(self):
        cache, clock, store, config = make_block_cache()
        for i in range(60):
            cache.set(f"key{i:04d}".encode(), f"value{i}".encode() * 20)
        state = cache.shutdown()
        revived = HybridCache.warm_restart(clock, store, config, state)
        hits = 0
        for i in range(60):
            value = revived.get(f"key{i:04d}".encode())
            if value is not None:
                assert value == f"value{i}".encode() * 20
                hits += 1
        assert hits > 0  # flash-resident items are back

    def test_ram_is_cold_after_restart(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"v")
        state = cache.shutdown()
        revived = HybridCache.warm_restart(clock, store, config, state)
        assert len(revived.ram) == 0
        assert revived.get(b"k") == b"v"  # served from flash

    def test_eviction_order_preserved(self):
        cache, clock, store, config = make_block_cache()
        for i in range(200):  # forces several evictions pre-shutdown
            cache.set(f"key{i:04d}".encode(), b"x" * 1200)
        state = cache.shutdown()
        revived = HybridCache.warm_restart(clock, store, config, state)
        # Continue running: the revived cache must evict without errors
        # and keep returning correct data.
        for i in range(200, 400):
            revived.set(f"key{i:04d}".encode(), b"y" * 1200)
        revived.ram.clear()
        latest = revived.get(b"key0399")
        assert latest == b"y" * 1200

    def test_ttl_survives_restart(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"short", b"v", ttl_seconds=0.5)
        cache.set(b"long", b"v")
        state = cache.shutdown()
        revived = HybridCache.warm_restart(clock, store, config, state)
        clock.advance(int(1e9))
        assert revived.get(b"short") is None
        assert revived.get(b"long") == b"v"

    def test_mismatched_config_rejected(self):
        cache, clock, store, config = make_block_cache()
        state = cache.shutdown()
        bad = CacheConfig(region_size=REGION, num_regions=8, ram_bytes=8 * KIB)
        with pytest.raises(CacheConfigError):
            HybridCache.warm_restart(clock, store, bad, state)


class TestZtlStatePersistence:
    def test_snapshot_roundtrip_preserves_reads(self):
        cache, clock, store, config, layer = make_ztl_stack()
        rng = random.Random(5)
        for step in range(600):
            region = rng.randrange(120)
            cache.set(f"key{region:05d}".encode(), bytes([step % 251]) * 1000)
        cache.flush()
        state = layer.to_state()
        layer.restore_state(state)
        cache.ram.clear()
        # Every indexed key must still read correctly through the
        # restored mapping.
        for region in range(120):
            key = f"key{region:05d}".encode()
            if cache.contains(key):
                assert cache.get(key) is not None

    def test_restore_rejects_wrong_geometry(self):
        _, clock, _, _, layer = make_ztl_stack()
        state = layer.to_state()
        state["region_size"] = 999
        with pytest.raises(ValueError):
            layer.restore_state(state)

    def test_restored_layer_keeps_collecting(self):
        cache, clock, store, config, layer = make_ztl_stack()
        rng = random.Random(7)
        for step in range(400):
            cache.set(f"key{rng.randrange(120):05d}".encode(), b"x" * 1000)
        cache.flush()
        layer.restore_state(layer.to_state())
        # Churn hard enough to require GC after the restore.
        for step in range(1500):
            cache.set(f"key{rng.randrange(120):05d}".encode(), b"y" * 1000)
        assert layer.device.stats.write_amplification == 1.0


# --- crash recovery under power cuts ---------------------------------------------

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.errors import PowerCutError
from repro.sim import FaultInjector


def make_crash_cache(power_cut_at_ns):
    """Block-Cache with checksummed regions and a scheduled power cut."""
    clock = SimClock()
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=128)
    faults = FaultInjector(seed=3, power_cut_at_ns=power_cut_at_ns)
    device = BlockSsd(
        clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)), faults=faults
    )
    store = BlockRegionStore(device, REGION, 16)
    config = CacheConfig(
        region_size=REGION, num_regions=16, ram_bytes=8 * KIB, checksums=True
    )
    return HybridCache(clock, store, config), clock, store, config, faults


def overwrite_until_cut(cache, ops=9000, keys=80):
    """Hot overwrite loop (puts only — no deletes, so the value history of
    a key is unambiguous).  Returns (history, cut_happened)."""
    history = {}
    try:
        for i in range(ops):
            key = f"key{i % keys:04d}".encode()
            value = f"value{i}".encode() * 20
            cache.set(key, value)
            history.setdefault(key, []).append(value)
    except PowerCutError:
        return history, True
    return history, False


class TestCrashRecovery:
    """The recovery oracle.

    After a power cut at an arbitrary instant, a recovered get must

    * never serve a torn entry — anything served is byte-identical to
      *some* value the workload wrote for that key, and
    * never serve a value older than the newest fully-persisted one: a
      key whose pre-crash index entry pointed at a *sealed* region (the
      journal's last record for it is "seal") must come back at exactly
      its latest written value.

    Keys resident in the open buffer — or in the region whose flush the
    cut tore — may legitimately come back older or missing: their newest
    value never became durable.
    """

    def crash_and_check(self, cut_ns, ops=9000):
        cache, clock, store, config, faults = make_crash_cache(cut_ns)
        history, cut = overwrite_until_cut(cache, ops=ops)
        assert cut, "power cut never fired; workload too short for cut_ns"

        journal = list(cache.seal_journal)
        last_event = {}
        for event, region_id, seq, salt in journal:
            last_event[region_id] = event
        sealed = {rid for rid, event in last_event.items() if event == "seal"}
        old_index = {key: cache.index.get(key) for key in history}

        faults.restore_power()
        recovered = HybridCache.crash_recover(clock, store, config, journal)

        served = 0
        for key, versions in history.items():
            got = recovered.get(key)
            location = old_index.get(key)
            if got is not None:
                served += 1
                assert got in versions, f"torn/corrupt value served for {key!r}"
            if location is not None and location.region_id in sealed:
                assert got == versions[-1], (
                    f"sealed-resident {key!r} lost its newest persisted value"
                )
        return recovered, faults, served

    def test_torn_flush_dropped_deterministically(self):
        # Seed 3 + 40 ms lands the cut inside a region flush: the torn
        # tail must be detected by the salted checksums and dropped.
        recovered, faults, served = self.crash_and_check(40_000_000)
        assert faults.stats.torn_writes == 1
        assert faults.stats.torn_bytes_dropped > 0
        assert recovered.stats.torn_items_dropped >= 1
        assert recovered.stats.recovered_items > 0
        assert recovered.stats.recovery_ns > 0
        assert served > 0
        # The revived cache keeps working: new sets and flushes succeed.
        for i in range(300):
            recovered.set(f"new{i:04d}".encode(), b"fresh" * 40)
        recovered.ram.clear()
        assert recovered.get(b"new0299") == b"fresh" * 40

    def test_recovery_is_deterministic(self):
        def run():
            recovered, faults, served = self.crash_and_check(40_000_000)
            return (
                served,
                recovered.stats.recovered_items,
                recovered.stats.torn_items_dropped,
                recovered.stats.recovery_ns,
                sorted(recovered.index.keys()),
            )

        assert run() == run()

    @settings(
        max_examples=8,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cut_ms=st.integers(2, 50))
    def test_power_cut_anywhere_is_safe(self, cut_ms):
        self.crash_and_check(cut_ms * 1_000_000)

    def test_journal_beyond_the_configured_regions_is_refused(self):
        """Regression: recovering a 16-region journal with an 8-region
        config rebuilt every sealed region and served from all of them,
        a cache larger than configured.  It is refused before anything
        is rebuilt, naming the first journaled region out of range."""
        cache, clock, store, config = make_block_cache()
        for i in range(300):
            cache.set(f"key{i:04d}".encode(), b"x" * 1200)
        cache.flush()
        small = CacheConfig(region_size=REGION, num_regions=8, ram_bytes=8 * KIB)
        first = next(rid for _, rid, _, _ in cache.seal_journal if rid >= 8)
        reads = store.device.stats.host_read_bytes
        with pytest.raises(CacheConfigError, match=f"region {first} outside"):
            HybridCache.crash_recover(clock, store, small, cache.seal_journal)
        assert store.device.stats.host_read_bytes == reads  # nothing replayed


class TestEmptyKeyIsRefused:
    """An empty key packs the all-zero header that ends a region's
    entries: accepted, it hid every later entry of its region from
    recovery (and from Z-Cache's flush-time key scan)."""

    @pytest.mark.parametrize("make", [make_block_cache, make_ztl_stack])
    def test_refused_before_anything_moves_and_recovery_keeps_later_keys(self, make):
        cache, clock, store, config = make()[:4]
        assert cache.set(b"before", b"b" * 100)
        now, sets, ram = clock.now, cache.stats.sets, len(cache.ram)
        with pytest.raises(InvalidKeyError):
            cache.set(b"", b"")
        with pytest.raises(InvalidKeyError):
            cache.set(b"", b"value")
        assert (clock.now, cache.stats.sets, len(cache.ram)) == (now, sets, ram)
        assert cache.set(b"after", b"a" * 100)
        cache.flush()
        recovered = HybridCache.crash_recover(clock, store, config, cache.seal_journal)
        assert recovered.stats.recovered_items == 2
        assert recovered.get(b"before") == b"b" * 100
        assert recovered.get(b"after") == b"a" * 100

    def test_refused_by_z_cache_before_its_admission_sketch_counts(self):
        from repro.bench.schemes import SchemeScale, build_scheme

        scale = SchemeScale(zone_size=1 << 20, region_size=16 * KIB, pages_per_block=64)
        cache = build_scheme("Z-Cache", SimClock(), scale, 8 << 20, 4 << 20).cache
        sketch = cache.admission.sketch
        rows = [list(counts) for counts, _ in sketch._rows]
        with pytest.raises(InvalidKeyError):
            cache.set(b"", b"v")
        assert [list(counts) for counts, _ in sketch._rows] == rows


class TestCrashRecoveryKnownBugs:
    """Two live ``crash_recover`` bugs, kept as strict xfails until the
    seal journal can say that a sealed region no longer holds a key's
    newest value.  Replay trusts every sealed region it finds, so a key
    whose newest state is "gone" comes back at an older value."""

    @pytest.mark.xfail(
        strict=True,
        reason="a delete writes no journal record, so replaying the sealed "
        "region brings the deleted value back",
    )
    def test_deleted_key_stays_deleted(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"gone", b"v" * 100)
        cache.flush()
        assert cache.delete(b"gone")
        assert cache.get(b"gone") is None
        recovered = HybridCache.crash_recover(clock, store, config, cache.seal_journal)
        assert recovered.get(b"gone") is None

    @pytest.mark.xfail(
        strict=True,
        reason="under LRU the region holding a key's newest value can be "
        "evicted before an older sealed copy; replay serves the older copy "
        "the live cache no longer would",
    )
    def test_evicted_newest_value_does_not_resurrect_an_older_one(self):
        clock = SimClock()
        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=128)
        device = BlockSsd(clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)))
        store = BlockRegionStore(device, REGION, 16)
        config = CacheConfig(
            region_size=REGION, num_regions=16, ram_bytes=0, eviction_policy="lru"
        )
        cache = HybridCache(clock, store, config)
        cache.set(b"anchor", b"a" * 100)
        cache.set(b"k", b"old" * 100)
        cache.flush()  # region A: anchor, k=old
        cache.set(b"k", b"new" * 100)
        cache.flush()  # region B: k=new
        fills = 0
        while b"k" in cache.index:
            # Reading the anchor keeps region A hot, so B goes first.
            cache.set(b"fill%05d" % fills, b"x" * 1000)
            assert cache.get(b"anchor") == b"a" * 100
            fills += 1
        assert cache.get(b"k") is None
        recovered = HybridCache.crash_recover(clock, store, config, cache.seal_journal)
        assert recovered.get(b"k") is None


class TestReplicatedCrashRecovery:
    """The crash-consistency oracle, extended to the replicated fleet.

    A scripted shard power cut mid-serving exercises the full path:
    queued work dies with the DRAM, ``crash_recover`` replays the seal
    journal, and hinted writes replay through the normal write path.
    The single-cache oracle's promises must survive the extra machinery:
    nothing served anywhere in the fleet may be torn (every byte string
    must be some value an acknowledged write produced), and the whole
    recovery must be deterministic.
    """

    def _replicated_crash_run(self):
        from repro.bench.schemes import SchemeScale
        from repro.serve import (
            CacheCluster,
            FailoverPlan,
            ReplicationConfig,
            Server,
            ServerConfig,
            ShardKill,
            TenantConfig,
        )
        from repro.units import MSEC
        from repro.workloads import CacheBenchConfig

        scale = SchemeScale(
            zone_size=256 * KIB,
            region_size=REGION,
            pages_per_block=16,
            ram_bytes=32 * KIB,
        )
        cluster = CacheCluster.homogeneous(
            "Region-Cache",
            2,
            8 * scale.zone_size,
            6 * scale.zone_size,
            scale=scale,
            cache_overrides=(("eviction_policy", "fifo"),),
            replication=ReplicationConfig(replicas=2, track_writes=True),
        )
        tenants = [
            TenantConfig(
                "writer",
                rate_ops_per_sec=40_000.0,
                workload=CacheBenchConfig(
                    num_ops=800,
                    num_keys=250,
                    get_ratio=0.4,
                    set_ratio=0.5,
                    delete_ratio=0.1,
                    set_on_miss=True,
                    seed=11,
                ),
                seed=33,
            )
        ]
        server = Server(
            cluster,
            tenants,
            ServerConfig(64),
            failover=FailoverPlan((ShardKill(4 * MSEC, 0, 4 * MSEC),)),
        )
        report = server.run()
        return cluster, server, report

    def test_no_torn_values_anywhere_after_replay(self):
        cluster, server, report = self._replicated_crash_run()
        assert report.fleet_row["kills"] == 1
        assert report.fleet_row["handoff_writes"] > 0
        killed = cluster.shards[0]
        assert killed.alive and killed.health == "up"
        served = 0
        for key, history in server.write_ledger.items():
            versions = {value for _, value in history}
            for shard in cluster.shards:
                got = shard.stack.cache.get(key)
                if got is not None:
                    served += 1
                    assert got in versions, (
                        f"torn/corrupt value served for {key!r}"
                    )
        assert served > 0

    def test_replicated_recovery_is_deterministic(self):
        def run():
            cluster, server, report = self._replicated_crash_run()
            ledger_shape = sorted(
                (key, len(history))
                for key, history in server.write_ledger.items()
            )
            return (
                report.fleet_row,
                report.tenant_rows,
                cluster.shards[0].health_log,
                ledger_shape,
            )

        assert run() == run()
