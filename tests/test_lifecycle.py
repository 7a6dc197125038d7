"""Tests for the tenant item-lifecycle layer (repro.cache.lifecycle).

Covers the versioned-key codec, the namespace generation counters, the
liveness ledger, and the engine integration: stale-generation read
refusal, invalidated-byte accounting, §3.4 migration hints, dead-first
eviction, the TTL sweep at region rotation, and the crash-recovery
oracle (no read ever serves a pre-bump generation, including after
``crash_recover`` rebuilt the index from the journal).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.schemes import SchemeScale, build_region_cache
from repro.cache import HybridCache
from repro.cache.lifecycle import (
    DEAD_REASONS,
    ItemLifecycle,
    LifecycleConfig,
    LivenessLedger,
    NamespaceVersions,
    split_versioned,
    tenant_token,
    versioned_prefix,
)
from repro.errors import CacheConfigError
from repro.sim import SimClock
from repro.units import KIB

SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
    ram_bytes=32 * KIB,
)


def make_stack(**lifecycle_kwargs):
    lifecycle = LifecycleConfig(**lifecycle_kwargs)
    return build_region_cache(
        SimClock(), SCALE, 16 * 256 * KIB, 12 * 256 * KIB,
        lifecycle=lifecycle,
    )


class TestVersionedKeyCodec:
    def test_prefix_round_trips(self):
        prefix = versioned_prefix(b"web", 7)
        assert prefix == b"web:7:"
        assert split_versioned(prefix + b"user:42") == (b"web", 7)

    def test_unversioned_keys_parse_as_none(self):
        assert split_versioned(b"plain") is None
        assert split_versioned(b":starts-with-colon") is None
        assert split_versioned(b"web:notdigits:k") is None
        assert split_versioned(b"web::k") is None
        assert split_versioned(b"web:12") is None

    def test_tenant_token_is_stable(self):
        assert tenant_token(b"web") == tenant_token(b"web")
        assert tenant_token(b"web") != tenant_token(b"purge")


class TestNamespaceVersions:
    def test_bump_advances_and_classifies(self):
        ns = NamespaceVersions()
        assert ns.generation(b"web") == 0
        assert ns.is_current(versioned_prefix(b"web", 0) + b"k")
        assert ns.bump(b"web") == 1
        assert not ns.is_current(versioned_prefix(b"web", 0) + b"k")
        assert ns.is_current(versioned_prefix(b"web", 1) + b"k")
        # Unversioned keys always classify current.
        assert ns.is_current(b"plain-key")

    def test_explicit_generation_never_moves_backward(self):
        ns = NamespaceVersions()
        assert ns.bump(b"web", 5) == 5
        assert ns.bump(b"web", 3) == 5  # replayed stale bump: no-op
        assert ns.bump(b"web") == 6

    def test_restore_by_token(self):
        ns = NamespaceVersions()
        ns.restore(tenant_token(b"web"), 4)
        assert ns.generation(b"web") == 4
        ns.restore(tenant_token(b"web"), 2)  # never backward
        assert ns.generation(b"web") == 4


class TestLivenessLedger:
    def test_reasons_accumulate_uniformly(self):
        ledger = LivenessLedger()
        ledger.note_dead(100, "expired")
        ledger.note_dead(50, "expired")
        ledger.note_dead(10, "invalidated", items=3)
        assert ledger.dead_bytes["expired"] == 150
        assert ledger.dead_items["expired"] == 2
        assert ledger.dead_items["invalidated"] == 3
        assert ledger.total_dead_bytes == 160

    def test_snapshot_covers_every_reason(self):
        snapshot = LivenessLedger().snapshot()
        for reason in DEAD_REASONS:
            assert f"dead_bytes_{reason}" in snapshot
            assert f"dead_items_{reason}" in snapshot
        assert "dead_generation_regions" in snapshot
        assert "dead_first_evictions" in snapshot


class TestLifecycleConfig:
    def test_defaults_are_off(self):
        config = LifecycleConfig()
        assert not config.versioning
        assert not config.dead_first_eviction
        assert not config.gc_hints

    def test_hashable_for_cache_overrides(self):
        # The bench pipeline passes configs through hashable override
        # tuples, so the frozen dataclass must hash.
        assert hash(LifecycleConfig()) == hash(LifecycleConfig())

    def test_hint_position_validated(self):
        with pytest.raises(CacheConfigError):
            LifecycleConfig(hint_drop_position=1.5)


class TestEngineVersioning:
    def test_stale_generation_read_refused(self):
        stack = make_stack(versioning=True)
        cache = stack.cache
        old = versioned_prefix(b"web", 0) + b"k"
        cache.set(old, b"v")
        assert cache.get(old) == b"v"
        assert cache.invalidate_namespace(b"web") == 1
        assert cache.get(old) is None
        # The refusal holds for flash-resident bytes too.
        fresh = versioned_prefix(b"web", 1) + b"k"
        cache.set(fresh, b"v2")
        cache.flush()
        cache.ram.clear()
        assert cache.get(old) is None
        assert cache.get(fresh) == b"v2"

    def test_invalidated_bytes_hit_the_ledger(self):
        stack = make_stack(versioning=True)
        cache = stack.cache
        key = versioned_prefix(b"web", 0) + b"k"
        cache.set(key, b"v" * 64)
        cache.flush()
        cache.invalidate_namespace(b"web")
        cache.ram.clear()
        assert cache.get(key) is None
        assert cache.regions.ledger.dead_bytes["invalidated"] > 0
        assert cache.regions.ledger.dead_items["invalidated"] == 1

    def test_bump_survives_crash_recovery(self):
        stack = make_stack(versioning=True)
        cache, clock = stack.cache, stack.clock
        old = versioned_prefix(b"web", 0) + b"k"
        cache.set(old, b"v")
        cache.flush()
        cache.invalidate_namespace(b"web")
        recovered = HybridCache.crash_recover(
            clock, cache.store, cache.config, list(cache.seal_journal)
        )
        assert recovered.lifecycle.namespaces.generation(b"web") == 1
        assert recovered.get(old) is None
        # The rebuilt journal re-records the bump: a second crash still
        # refuses pre-bump reads.
        twice = HybridCache.crash_recover(
            clock, cache.store, cache.config, list(recovered.seal_journal)
        )
        assert twice.get(old) is None

    def test_migration_worth_hint(self):
        stack = make_stack(versioning=True, gc_hints=True)
        cache = stack.cache
        key = versioned_prefix(b"web", 0) + b"k"
        cache.set(key, b"v" * 64)
        cache.flush()
        region_id = cache.index.get(key).region_id
        assert cache.migration_worth(region_id)
        cache.invalidate_namespace(b"web")
        # Every surviving key in the region is a dead generation now.
        assert not cache.migration_worth(region_id)
        assert not cache.migration_worth(10_000)  # unknown region

    def test_hint_drop_position_boundary_covers_full_range(self):
        # Regression: a strict `<` left the most-recently-sealed region
        # (eviction position exactly 1.0) outside a threshold of 1.0,
        # though the config documents [0, 1] as "drop everything".
        stack = make_stack(versioning=True, gc_hints=True,
                           hint_drop_position=1.0)
        cache = stack.cache
        old = versioned_prefix(b"web", 0) + b"old"
        new = versioned_prefix(b"web", 0) + b"new"
        cache.set(old, b"v" * 64)
        cache.flush()
        cache.set(new, b"w" * 64)
        cache.flush()
        region_id = cache.index.get(new).region_id
        assert cache.regions.eviction_position(region_id) == 1.0
        assert not cache.migration_worth(region_id)

    def test_hint_drop_position_spares_regions_above_threshold(self):
        stack = make_stack(versioning=True, gc_hints=True,
                           hint_drop_position=0.5)
        cache = stack.cache
        keys = [versioned_prefix(b"web", 0) + b"k%d" % i for i in range(3)]
        for key in keys:
            cache.set(key, b"v" * 64)
            cache.flush()
        positions = [
            cache.regions.eviction_position(cache.index.get(key).region_id)
            for key in keys
        ]
        assert positions == [0.0, 0.5, 1.0]
        # At or below the threshold drops; strictly above still copies.
        assert not cache.migration_worth(cache.index.get(keys[0]).region_id)
        assert not cache.migration_worth(cache.index.get(keys[1]).region_id)
        assert cache.migration_worth(cache.index.get(keys[2]).region_id)

    def test_on_region_dropped_purges_and_accounts(self):
        stack = make_stack(versioning=True, gc_hints=True)
        cache = stack.cache
        key = versioned_prefix(b"web", 0) + b"k"
        cache.set(key, b"v" * 64)
        cache.flush()
        region_id = cache.index.get(key).region_id
        cache.invalidate_namespace(b"web")
        cache.on_region_dropped(region_id)
        assert cache.index.get(key) is None
        assert cache.regions.ledger.dead_generation_regions == 1
        assert cache.regions.ledger.dead_items["invalidated"] == 1


class TestDeadFirstEviction:
    def test_fully_dead_region_taken_before_policy_order(self):
        # Small cache (32 regions) so writes actually reach eviction.
        lifecycle = LifecycleConfig(versioning=True, dead_first_eviction=True)
        stack = build_region_cache(
            SimClock(), SCALE, 16 * 256 * KIB, 2 * 256 * KIB,
            lifecycle=lifecycle,
        )
        cache = stack.cache
        # Fill several regions, then delete everything in the oldest
        # sealed region so it is fully dead.
        values = b"x" * (4 * KIB)
        for i in range(12):
            cache.set(b"fill%03d" % i, values)
        cache.flush()
        dead_region = next(iter(cache.regions._sealed))
        meta = cache.regions.meta(dead_region)
        for key in list(meta.keys):
            cache.delete(key)
        assert cache.regions.meta(dead_region).live_bytes == 0
        before = cache.regions.ledger.dead_first_evictions
        # Keep writing until an eviction happens; the dead region must
        # be the first victim even though FIFO order would pick another.
        for i in range(400):
            cache.set(b"more%03d" % i, values)
            if cache.regions.ledger.dead_first_evictions > before:
                break
        assert cache.regions.ledger.dead_first_evictions > before

    @staticmethod
    def _drive_dead_pick(ops):
        """Apply ``ops``, checking the heap-backed dead-first pick
        against a scan of every sealed region after each: the victim is
        the fully-dead region with the lowest sealed_seq.  Returns how
        many picks found a dead region and the dead-first evictions."""
        lifecycle = LifecycleConfig(versioning=True, dead_first_eviction=True)
        stack = build_region_cache(
            SimClock(), SCALE, 16 * 256 * KIB, 2 * 256 * KIB, lifecycle=lifecycle,
        )
        cache, regions = stack.cache, stack.cache.regions
        generation = {b"web": 0, b"batch": 0}
        found = 0
        for op, n in ops:
            tenant = (b"web", b"batch")[n % 2]
            key = versioned_prefix(tenant, generation[tenant]) + b"k%02d" % n
            if op == "set":
                cache.set(key, b"v" * (1024 + 64 * (n % 32)))
            elif op == "ttl":
                cache.set(key, b"t" * 2048, ttl_seconds=0.001)
            elif op == "delete":
                cache.delete(key)
            elif op == "tick":
                stack.clock.advance(2_000_000)
            else:
                generation[tenant] = cache.invalidate_namespace(tenant)
            dead = [
                (meta.sealed_seq, region_id)
                for region_id, meta in regions._sealed.items()
                if not meta.keys
            ]
            assert regions._dead_victim() == (min(dead)[1] if dead else None)
            found += bool(dead)
        return found, regions.ledger.dead_first_evictions

    _OPS = st.lists(
        st.tuples(
            st.sampled_from(("set", "set", "set", "ttl", "delete", "tick", "bump")),
            st.integers(0, 63),
        ),
        min_size=50,
        max_size=400,
    )

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_dead_pick_is_the_oldest_fully_dead_region(self, ops):
        self._drive_dead_pick(ops)

    def test_dead_pick_under_purge_and_expiry_storms(self):
        """Runs of one tenant's keys that are then purged, and runs of
        TTL'd keys that expire together, leave whole regions dead."""
        rng = random.Random(5)
        ops = []
        for round_ in range(12):
            base = round_ * 96
            batch = list(range(base + 1, base + 96, 2))
            ops += [("set", n) for n in batch]
            ops += [("ttl", n) for n in range(base, base + 48, 2)]
            ops += [("set", rng.randrange(2048)) for _ in range(20)]
            rng.shuffle(batch)
            ops += [("delete", n) for n in batch] + [("tick", 0)]
            if round_ % 4 == 3:
                ops.append(("bump", round_))
        found, evictions = self._drive_dead_pick(ops)
        assert found > 100 and evictions > 10

    def test_eviction_position_reports_dead_regions_first(self):
        stack = make_stack(dead_first_eviction=True)
        cache = stack.cache
        for i in range(24):
            cache.set(b"fill%03d" % i, b"x" * 512)
        cache.flush()
        region_id = next(iter(cache.regions._sealed))
        for key in list(cache.regions.meta(region_id).keys):
            cache.delete(key)
        assert cache.regions.eviction_position(region_id) == 0.0


class TestTtlSweep:
    def test_expired_items_purged_at_rotation_without_access(self):
        """Regression: TTL purge used to be access-only — an expired key
        nobody re-read kept its index entry (and its bytes counted live)
        until eviction.  Region rotation purges every due item: index,
        DRAM tier, expiry table and its region's key map, with the bytes
        booked dead as "expired" — all before anything reads the key.
        """
        stack = make_stack()
        cache, clock = stack.cache, stack.clock
        cache.set(b"short", b"v" * 64, ttl_seconds=0.05)
        cache.flush()
        region_id = cache.index[b"short"].region_id
        live_before = cache.regions.meta(region_id).live_bytes
        clock.advance(int(1e9))
        # Never read b"short"; just force a rotation via new writes.
        for i in range(8):
            cache.set(b"fill%03d" % i, b"x" * (4 * KIB))
        assert b"short" not in cache.index
        assert b"short" not in cache.ram
        assert b"short" not in cache.lifecycle.expiry
        meta = cache.regions.meta(region_id)
        assert b"short" not in meta.keys
        assert meta.live_bytes < live_before
        assert cache.regions.ledger.dead_bytes["expired"] > 0
        assert cache.regions.ledger.dead_items["expired"] == 1

    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(
            st.one_of(
                st.tuples(st.just("set"),
                          st.sampled_from([b"a", b"b", b"c"]),
                          st.integers(min_value=1, max_value=50)),
                st.tuples(st.just("clear"),
                          st.sampled_from([b"a", b"b", b"c"]),
                          st.just(0)),
                st.tuples(st.just("sweep"), st.just(b""),
                          st.integers(min_value=0, max_value=25)),
            ),
            max_size=40,
        ),
    )
    def test_heap_never_serves_stale_deadlines(self, events):
        """Property for the lazy TTL min-heap: under any interleaving of
        overwrites (longer *or* shorter TTL), clears, and sweeps, ``due``
        yields exactly the keys whose *current* deadline elapsed — a
        stale heap entry left by an overwrite must neither resurrect a
        key early nor hide it at its real deadline."""
        lifecycle = ItemLifecycle(LifecycleConfig())
        model = {}  # key -> authoritative deadline
        now = 0
        for kind, key, arg in events:
            if kind == "set":
                lifecycle.note_ttl(key, now + arg)
                model[key] = now + arg
            elif kind == "clear":
                lifecycle.clear_ttl(key)
                model.pop(key, None)
            else:
                now += arg
                due = list(lifecycle.due(now))
                expected = {k for k, e in model.items() if e <= now}
                assert set(due) == expected
                for k in expected:  # the consumer purges what surfaced
                    lifecycle.clear_ttl(k)
                    del model[k]
        # Whatever remains surfaces exactly at the horizon, never before.
        horizon = max(model.values(), default=now)
        assert set(lifecycle.due(horizon)) == set(model)
        assert lifecycle.expiry.keys() == model.keys()


class TestInvalidationOracle:
    """Property: after ``invalidate_namespace(tenant)`` no read ever
    returns a pre-bump generation — across overwrites, flushes, and a
    journal-replay recovery."""

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "bump", "flush", "delete"]),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=30,
        ),
        recover=st.booleans(),
    )
    def test_no_read_serves_pre_bump_generation(self, ops, recover):
        stack = make_stack(versioning=True)
        cache = stack.cache
        generation = 0
        written = []  # (key, gen) every versioned key ever written
        for op, i in ops:
            key = versioned_prefix(b"t", generation) + b"k%d" % i
            if op == "set":
                cache.set(key, b"v%d" % generation)
                written.append((key, generation))
            elif op == "bump":
                generation = cache.invalidate_namespace(b"t")
            elif op == "flush":
                cache.flush()
            elif op == "delete":
                cache.delete(key)
        if recover:
            cache.flush()
            cache = HybridCache.crash_recover(
                stack.clock, cache.store, cache.config,
                list(cache.seal_journal),
            )
        for key, gen in written:
            if gen < generation:
                assert cache.get(key) is None, (key, gen, generation)
