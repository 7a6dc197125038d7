"""Restart tests: the seal journal is the one recovery path, after a
clean stop and after a power cut."""

import random

import pytest

from repro.cache import CacheConfig, HybridCache
from repro.cache.backends import BlockRegionStore, ZtlRegionStore
from repro.cache.lifecycle import LifecycleConfig
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
    """A clean restart is ``flush()`` then ``crash_recover`` over the same
    store: the seal journal and the media are all it reads."""

    @staticmethod
    def restart(cache, clock, store, config):
        cache.flush()
        return recover(cache, clock, store, config)

    def test_flash_contents_survive(self):
        cache, clock, store, config = make_block_cache()
        for i in range(60):
            cache.set(f"key{i:04d}".encode(), f"value{i}".encode() * 20)
        revived = self.restart(cache, clock, store, config)
        hits = 0
        for i in range(60):
            value = revived.get(f"key{i:04d}".encode())
            if value is not None:
                assert value == f"value{i}".encode() * 20
                hits += 1
        assert hits > 0  # flash-resident items are back
        assert revived.stats.recovery_ns > 0  # the media scan is charged

    def test_ram_is_cold_after_restart(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"v")
        revived = self.restart(cache, clock, store, config)
        assert len(revived.ram) == 0
        assert revived.get(b"k") == b"v"  # served from flash

    def test_eviction_order_preserved(self):
        cache, clock, store, config = make_block_cache()
        for i in range(200):  # forces several evictions before the restart
            cache.set(f"key{i:04d}".encode(), b"x" * 1200)
        cache.flush()
        order = list(cache.regions._sealed)  # seal order, oldest first
        revived = self.restart(cache, clock, store, config)
        assert list(revived.regions._sealed) == order
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
        revived = self.restart(cache, clock, store, config)
        clock.advance(int(1e9))
        assert revived.get(b"short") is None
        assert revived.get(b"long") == b"v"

    def test_mismatched_config_rejected(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"v")
        cache.flush()
        bad = CacheConfig(region_size=2 * REGION, num_regions=8, ram_bytes=8 * KIB)
        now, reads = clock.now, store.device.stats.host_read_bytes
        with pytest.raises(CacheConfigError, match="region_size"):
            HybridCache.crash_recover(clock, store, bad, cache.seal_journal)
        assert (clock.now, store.device.stats.host_read_bytes) == (now, reads)


# --- crash recovery under power cuts ---------------------------------------------

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.errors import PowerCutError
from repro.sim import FaultInjector, FaultKind, FaultRule


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


def recover(cache, clock, store, config):
    """Power cut between two operations: DRAM and the open buffer are
    lost, the journal and the media survive."""
    return HybridCache.crash_recover(
        clock, store, config, cache.seal_journal, admission=cache.admission
    )


def make_lru_block_cache():
    clock = SimClock()
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=128)
    device = BlockSsd(clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)))
    store = BlockRegionStore(device, REGION, 16)
    config = CacheConfig(
        region_size=REGION, num_regions=16, ram_bytes=0, eviction_policy="lru"
    )
    return HybridCache(clock, store, config), clock, store, config


def evict_newest_copy_of_k(cache):
    """Region A holds ``anchor`` and k=old, region B k=new; reading the
    anchor keeps A hot under LRU, so B — k's newest copy — goes first
    and the live cache misses k while A's older copy is still on
    media."""
    cache.set(b"anchor", b"a" * 100)
    cache.set(b"k", b"old" * 100)
    cache.flush()  # region A: anchor, k=old
    cache.set(b"k", b"new" * 100)
    cache.flush()  # region B: k=new
    fills = 0
    while b"k" in cache.index:
        cache.set(b"fill%05d" % fills, b"x" * 1000)
        assert cache.get(b"anchor") == b"a" * 100
        fills += 1
    assert cache.get(b"k") is None


class TestDeadCopiesStayDead:
    """A copy that stopped being its key's newest state is journaled
    dead by its offset in its region, so replay skips it.  Before the
    journal could say so, replay trusted every sealed region it found
    and each of these cases brought an older value back."""

    def test_deleted_key_stays_deleted(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"gone", b"v" * 100)
        cache.flush()
        assert cache.delete(b"gone")
        assert cache.get(b"gone") is None
        recovered = recover(cache, clock, store, config)
        assert recovered.get(b"gone") is None

    def test_evicted_newest_value_does_not_resurrect_an_older_one(self):
        cache, clock, store, config = make_lru_block_cache()
        evict_newest_copy_of_k(cache)
        recovered = recover(cache, clock, store, config)
        assert recovered.get(b"k") is None
        assert recovered.get(b"anchor") == b"a" * 100

    def test_delete_in_the_open_buffer_stays_deleted(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"v" * 100)
        assert cache.delete(b"k")
        cache.set(b"other", b"o" * 100)
        cache.flush()
        recovered = recover(cache, clock, store, config)
        assert recovered.get(b"k") is None
        assert recovered.get(b"other") == b"o" * 100

    def test_set_delete_set_in_one_buffer_recovers_the_newest(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"first" * 20)
        cache.delete(b"k")
        cache.set(b"k", b"second" * 20)
        cache.flush()
        recovered = recover(cache, clock, store, config)
        assert recovered.get(b"k") == b"second" * 20

    def test_gc_dropped_copy_stays_dropped(self):
        """A §3.4 drop purges the region's keys: their copies are dead
        too, or a later delete of the key would bring the dropped copy
        back."""
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"old" * 100)
        cache.flush()
        cache.on_region_dropped(cache.index[b"k"].region_id)
        cache.set(b"k", b"new" * 100)
        cache.delete(b"k")
        cache.flush()
        recovered = recover(cache, clock, store, config)
        assert recovered.get(b"k") is None

    def test_rerouted_flush_keeps_the_buffers_dead_copies(self):
        """The open region's flush target dies and the flush re-routes
        to another region: the buffer's dead records move with it."""
        clock = SimClock()
        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=128)
        faults = FaultInjector(
            seed=1, rules=(FaultRule(FaultKind.MEDIA_ERROR, op="write", max_injections=3),)
        )
        device = BlockSsd(
            clock, BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25)), faults=faults
        )
        store = BlockRegionStore(device, REGION, 16)
        config = CacheConfig(region_size=REGION, num_regions=16, ram_bytes=8 * KIB)
        cache = HybridCache(clock, store, config)
        target = cache._buffer.region_id
        cache.set(b"k", b"v" * 100)
        cache.delete(b"k")
        cache.set(b"other", b"o" * 100)
        cache.flush()  # three failed writes: quarantine, re-route
        assert cache.regions.is_quarantined(target)
        assert cache.index[b"other"].region_id != target
        recovered = recover(cache, clock, store, config)
        assert recovered.get(b"k") is None
        assert recovered.get(b"other") == b"o" * 100

    def test_quarantine_retires_the_regions_dead_records(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"v" * 100)
        cache.flush()
        region_id = cache.index[b"k"].region_id
        cache.delete(b"k")
        assert ("dead", region_id) in {r[:2] for r in cache.seal_journal}
        cache._quarantine_region(region_id)
        assert ("dead", region_id) not in {r[:2] for r in cache.seal_journal}

    def test_dead_records_retire_at_the_regions_invalidate(self):
        cache, clock, store, config = make_block_cache()
        for i in range(1000):  # 40 keys overwritten over many evictions
            cache.set(b"key%02d" % (i % 40), b"%d" % i * 200)
        assert cache.regions.regions_evicted > 0
        invalidated = {}
        for event, rid, seq, _ in cache.seal_journal:
            if event in ("invalidate", "quarantine"):
                invalidated[rid] = seq
        dead = [r for r in cache.seal_journal if r[0] == "dead"]
        assert dead
        assert all(seq > invalidated.get(rid, 0) for _, rid, seq, _ in dead)
        recovered = recover(cache, clock, store, config)
        for key in {b"key%02d" % i for i in range(40)}:
            got = recovered.get(key)
            assert got is None or got == cache.get(key)


class TestTwoCrashesInARow:
    """The journal ``crash_recover`` rebuilds carries the dead copies it
    skipped, as it carries namespace bumps: a second crash straight
    after the first recovery serves no dead value either."""

    def test_deleted_key_stays_deleted_across_two_crashes(self):
        cache, clock, store, config = make_block_cache()
        cache.set(b"gone", b"v" * 100)
        cache.set(b"kept", b"k" * 100)
        cache.flush()
        cache.delete(b"gone")
        once = recover(cache, clock, store, config)
        assert once.get(b"gone") is None
        twice = recover(once, clock, store, config)
        assert twice.get(b"gone") is None
        assert twice.get(b"kept") == b"k" * 100

    def test_evicted_newest_copy_stays_gone_across_two_crashes(self):
        cache, clock, store, config = make_lru_block_cache()
        evict_newest_copy_of_k(cache)
        once = recover(cache, clock, store, config)
        assert once.get(b"k") is None
        twice = recover(once, clock, store, config)
        assert twice.get(b"k") is None
        assert twice.get(b"anchor") == b"a" * 100


class TestUnmappedRegionsRecoverFree:
    """A region GC dropped on a hint is unmapped in the backend, not dead
    media: recovery puts it back on the free list instead of
    quarantining it, so a restart does not shrink the cache."""

    @pytest.mark.parametrize("scheme", ["Region-Cache", "Z-Cache"])
    def test_hint_dropped_regions_are_not_quarantined(self, scheme):
        scale = SchemeScale(
            zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
            ram_bytes=32 * KIB,
        )
        stack = build_scheme(
            scheme, SimClock(), scale, 24 * scale.zone_size, 16 * scale.zone_size,
            lifecycle=LifecycleConfig(
                gc_hints=True, hint_layers="all", hint_drop_position=0.5
            ),
            eviction_policy="lru",
        )
        cache = stack.cache
        rng = random.Random(3)
        for _ in range(20_000):
            key = b"k%d" % rng.randrange(3000)
            if rng.random() < 0.7:
                cache.set(key, b"v" * rng.randrange(100, 2000))
            else:
                cache.get(key)
        assert stack.substrate["layer"].stats.dropped_regions > 0
        cache.flush()
        recovered = recover(cache, stack.clock, cache.store, cache.config)
        regions = recovered.regions
        assert recovered.stats.quarantined_regions == cache.stats.quarantined_regions
        # Every region is free, sealed, or the one the recovered cache
        # opened to fill.
        assert regions.free_count + regions.sealed_count + 1 == cache.config.num_regions


class TestMalformedJournalIsRefused:
    """Regression: ``crash_recover`` read whatever it was handed.  An
    unknown event after region 0's invalidate replayed the evicted
    region as if sealed (k came back); a record of 3 or 5 fields raised
    a bare ``ValueError`` and a 3-field ``nsbump`` an ``IndexError``,
    both mid-rebuild.  Every record is checked first, and a bad one is
    refused by name before any media read or clock charge."""

    @staticmethod
    def evicted_region_zero():
        cache, clock, store, config = make_block_cache()
        cache.set(b"k", b"v" * 100)
        for i in range(300):  # region 0 (holding k) is evicted
            cache.set(b"fill%04d" % i, b"x" * 1200)
        journal = cache.seal_journal
        assert ("invalidate", 0) in {r[:2] for r in journal}
        return journal, clock, store, config

    @pytest.mark.parametrize(
        "bad",
        [
            ("bogus", 0, 10**6, 1),
            ("seal", 0, 10**6),
            ("seal", 0, 10**6, 1, 0),
            ("nsbump", 7, 10**6),
            ("dead", 0, 10**6, b"k"),
            ("seal", "0", 10**6, 1),
            "seal",
            None,
        ],
        ids=["unknown-event", "3-fields", "5-fields", "3-field-nsbump",
             "non-int-offset", "non-int-region", "a-string", "none"],
    )
    def test_refused_before_anything_is_read(self, bad):
        journal, clock, store, config = self.evicted_region_zero()
        now, reads = clock.now, store.device.stats.host_read_bytes
        with pytest.raises(CacheConfigError, match="malformed journal record"):
            HybridCache.crash_recover(clock, store, config, journal + [bad])
        assert (clock.now, store.device.stats.host_read_bytes) == (now, reads)

    def test_the_same_journal_without_it_recovers(self):
        journal, clock, store, config = self.evicted_region_zero()
        recovered = HybridCache.crash_recover(clock, store, config, journal)
        assert recovered.get(b"k") is None


# Tiny stacks: three 16 KiB regions (Zone-Cache: three 64 KiB zones), two
# entries a region, no DRAM tier — every get of a flash-resident key is
# an LRU touch and a region is evicted every few sets.
PROPERTY_SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16, ram_bytes=0
)
PROPERTY_ZONE_SCALE = SchemeScale(
    zone_size=64 * KIB, region_size=16 * KIB, pages_per_block=4, ram_bytes=0
)


def property_stack(scheme):
    scale = PROPERTY_ZONE_SCALE if scheme == "Zone-Cache" else PROPERTY_SCALE
    budget = 3 * (scale.zone_size if scheme == "Zone-Cache" else scale.region_size)
    return build_scheme(
        scheme, SimClock(), scale, 8 * scale.zone_size, budget,
        file_media_bytes=12 * scale.zone_size, eviction_policy="lru",
    )


RECOVERY_OPS = st.lists(
    st.tuples(
        st.sampled_from(("set", "set", "delete", "get", "get", "flush", "crash")),
        st.integers(0, 3),
    ),
    max_size=40,
)


class TestRecoveredReadsAreNewest:
    """The recovery contract on every scheme: after any interleaving of
    set, delete, overwrite, flush, LRU touch and crash (a crash loses
    DRAM and the open buffer, then ``crash_recover`` rebuilds), and
    after the clean restart that ends every run, a get is a miss or the
    key's newest state.  Each set writes a value no other set wrote, so
    an older value coming back shows."""

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=RECOVERY_OPS)
    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    def test_recovered_get_is_a_miss_or_the_newest_state(self, scheme, ops):
        stack = property_stack(scheme)
        cache, clock = stack.cache, stack.clock
        pad = b"." * (cache.config.region_size // 2 - 200)
        newest = {}  # key -> its newest value, None once deleted
        for step, (op, i) in enumerate(ops):
            key = b"key%d" % i
            if op == "set":
                value = b"%d:" % step + pad
                cache.set(key, value)
                newest[key] = value
            elif op == "delete":
                cache.delete(key)
                newest[key] = None
            elif op == "get":
                got = cache.get(key)
                assert got is None or got == newest.get(key)
            elif op == "flush":
                cache.flush()
            else:
                cache = recover(cache, clock, cache.store, cache.config)
                self.check(cache, newest, step)
        cache.flush()
        self.check(recover(cache, clock, cache.store, cache.config), newest, "end")

    @staticmethod
    def check(cache, newest, step):
        for key, value in newest.items():
            got = cache.get(key)
            assert got is None or got == value, (key, step)


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
