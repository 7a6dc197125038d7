"""Tests for invalidation storms (repro.serve.invalidation + server).

Covers plan/stats validation, the pre/post hit-window accounting and
recovery-slope fit, versioned tenants and their O(1) bumps, the
randomized failover plan's determinism, the server integration
(``serve.invalidate`` events and ledger reconciliation, including a
bump applied while a shard is dead), and the smoke's determinism and
per-scheme separation.  The full-sweep acceptance criteria run in the
slow tier.
"""

import pytest

from repro.bench.experiments import run_sweep
from repro.bench.schemes import SchemeScale
from repro.cache.lifecycle import LifecycleConfig, split_versioned
from repro.errors import ConfigError
from repro.serve import (
    CacheCluster,
    FailoverPlan,
    InvalidationPlan,
    InvalidationStats,
    ReplicationConfig,
    Server,
    ServerConfig,
    ShardKill,
    Tenant,
    TenantConfig,
    TenantInvalidate,
)
from repro.units import KIB, MSEC
from repro.workloads import CacheBenchConfig

SMALL = SchemeScale(
    zone_size=256 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,
    ram_bytes=32 * KIB,
)

LIFECYCLE = LifecycleConfig(
    versioning=True, dead_first_eviction=True, gc_hints=True
)


def _cluster(shards=2, replication=None):
    return CacheCluster.homogeneous(
        "Region-Cache",
        shards,
        8 * SMALL.zone_size,
        6 * SMALL.zone_size,
        scale=SMALL,
        cache_overrides=(
            ("eviction_policy", "fifo"),
            ("lifecycle", LIFECYCLE),
        ),
        replication=replication,
    )


def _tenants(num_ops=400, rate=50_000.0, seed=5):
    return [
        TenantConfig(
            "web",
            rate_ops_per_sec=rate,
            versioned_keys=True,
            workload=CacheBenchConfig(
                num_ops=num_ops, num_keys=300, set_on_miss=True, seed=seed
            ),
            seed=21,
        ),
    ]


class TestValidation:
    def test_bump_fields(self):
        with pytest.raises(ConfigError):
            TenantInvalidate(at_ns=-1, tenant="web")
        with pytest.raises(ConfigError):
            TenantInvalidate(at_ns=0, tenant="")

    def test_plan_sorts_and_reports_first(self):
        plan = InvalidationPlan(
            (TenantInvalidate(9, "b"), TenantInvalidate(3, "a"))
        )
        assert [b.at_ns for b in plan.bumps] == [3, 9]
        assert plan.first_at_ns() == 3
        assert plan and not InvalidationPlan()

    def test_stats_bucket_validated(self):
        with pytest.raises(ConfigError):
            InvalidationStats(bucket_ns=0)

    def test_server_rejects_unknown_or_unversioned_tenant(self):
        cluster = _cluster()
        with pytest.raises(ConfigError):
            Server(
                cluster,
                _tenants(),
                ServerConfig(48),
                invalidations=InvalidationPlan(
                    (TenantInvalidate(MSEC, "nobody"),)
                ),
            )
        plain = [
            TenantConfig(
                "plain",
                rate_ops_per_sec=50_000.0,
                workload=CacheBenchConfig(num_ops=100, num_keys=50),
            )
        ]
        with pytest.raises(ConfigError):
            Server(
                _cluster(),
                plain,
                ServerConfig(48),
                invalidations=InvalidationPlan(
                    (TenantInvalidate(MSEC, "plain"),)
                ),
            )


class TestStatsWindows:
    def test_pre_post_split_at_first_bump(self):
        stats = InvalidationStats(bucket_ns=10)
        stats.note_lookup(5, True, 100)
        stats.note_bump(10)
        stats.note_bump(20)  # first_bump_ns sticks
        stats.note_lookup(15, False, 200)
        stats.note_lookup(25, True, 300)
        assert stats.first_bump_ns == 10
        assert (stats.pre_hits, stats.pre_lookups) == (1, 1)
        assert (stats.post_hits, stats.post_lookups) == (1, 2)
        assert stats.row()["inval_bumps"] == 2

    def test_recovery_slope_fits_rising_ratio(self):
        stats = InvalidationStats(bucket_ns=1_000_000_000)  # 1 s buckets
        stats.note_bump(0)
        # Bucket 0: 0% hits; bucket 1: 50%; bucket 2: 100%.
        for t, hit in ((100, False), (200, False)):
            stats.note_lookup(t, hit, 10)
        stats.note_lookup(1_500_000_000, True, 10)
        stats.note_lookup(1_600_000_000, False, 10)
        stats.note_lookup(2_500_000_000, True, 10)
        assert stats.recovery_slope_per_s() == pytest.approx(0.5)

    def test_slope_zero_without_two_buckets(self):
        stats = InvalidationStats()
        stats.note_bump(0)
        stats.note_lookup(1, True, 10)
        assert stats.recovery_slope_per_s() == 0.0

    def test_slope_zero_when_post_window_is_idle(self):
        # A bump with no post-bump lookups at all: no buckets, no fit.
        stats = InvalidationStats()
        stats.note_lookup(1, True, 10)  # pre-bump only
        stats.note_bump(5)
        assert stats.recovery_slope_per_s() == 0.0
        assert stats.row()["inval_recovery_slope_per_s"] == 0.0

    def test_slope_zero_for_single_populated_bucket(self):
        # Many samples, one bucket: a single point anchors no slope.
        stats = InvalidationStats(bucket_ns=1_000_000_000)
        stats.note_bump(0)
        for t, hit in ((100, True), (200, False), (300, True)):
            stats.note_lookup(t, hit, 10)
        assert stats.recovery_slope_per_s() == 0.0

    def test_partial_trailing_bucket_midpoint_clamped(self):
        # Bucket 0 at 0% hits; bucket 1 rises to 100% but the run ends
        # at 1.5 s, halfway through it.
        stats = InvalidationStats(bucket_ns=1_000_000_000)
        stats.note_bump(0)
        stats.note_lookup(100, False, 10)
        stats.note_lookup(200, False, 10)
        stats.note_lookup(1_200_000_000, True, 10)
        stats.note_lookup(1_400_000_000, True, 10)
        # Default fit places the tail at the full-bucket midpoint
        # (1.5 s), attributing its ratio later than any sample: 1.0/s.
        assert stats.recovery_slope_per_s() == pytest.approx(1.0)
        # With the run end known, the tail point moves to the midpoint
        # of the covered span (1.25 s), removing the bias.
        assert stats.recovery_slope_per_s(
            end_ns=1_500_000_000
        ) == pytest.approx(1.0 / 0.75)

    def test_end_on_bucket_boundary_changes_nothing(self):
        stats = InvalidationStats(bucket_ns=1_000_000_000)
        stats.note_bump(0)
        stats.note_lookup(100, False, 10)
        stats.note_lookup(1_500_000_000, True, 10)
        unclamped = stats.recovery_slope_per_s()
        # The trailing bucket is fully covered: end_ns is a no-op.
        assert stats.recovery_slope_per_s(end_ns=2_000_000_000) == unclamped


class TestVersionedTenant:
    def test_versioned_prefix_and_bump(self):
        tenant = Tenant(_tenants()[0])
        assert tenant.key_prefix == b"web:0:"
        assert tenant.invalidate() == 1
        assert tenant.key_prefix == b"web:1:"
        assert tenant.namespace_id == b"web"

    def test_invalidate_requires_versioned_keys(self):
        config = TenantConfig(
            "plain",
            rate_ops_per_sec=1_000.0,
            workload=CacheBenchConfig(num_ops=10, num_keys=5),
        )
        with pytest.raises(ConfigError):
            Tenant(config).invalidate()

    def test_versioned_keys_reject_explicit_prefix(self):
        with pytest.raises(ConfigError):
            TenantConfig(
                "web",
                rate_ops_per_sec=1_000.0,
                versioned_keys=True,
                key_prefix=b"other:",
                workload=CacheBenchConfig(num_ops=10, num_keys=5),
            )


class TestFailoverPlanRandom:
    def test_deterministic_under_seed(self):
        a = FailoverPlan.random(8, 10 * MSEC, kills=3, seed=11)
        b = FailoverPlan.random(8, 10 * MSEC, kills=3, seed=11)
        assert a.kills == b.kills
        assert a.kills != FailoverPlan.random(8, 10 * MSEC, kills=3, seed=12).kills

    def test_kills_distinct_and_inside_window(self):
        plan = FailoverPlan.random(
            6, 10 * MSEC, kills=4, seed=3, window=(0.2, 0.6)
        )
        shards = [k.shard for k in plan.kills]
        assert len(set(shards)) == 4
        for kill in plan.kills:
            assert 2 * MSEC <= kill.at_ns <= 6 * MSEC
            assert kill.outage_ns == int(10 * MSEC * 0.15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FailoverPlan.random(0, MSEC)
        with pytest.raises(ConfigError):
            FailoverPlan.random(2, 0)
        with pytest.raises(ConfigError):
            FailoverPlan.random(2, MSEC, kills=3)
        with pytest.raises(ConfigError):
            FailoverPlan.random(2, MSEC, window=(0.6, 0.2))
        with pytest.raises(ConfigError):
            FailoverPlan.random(2, MSEC, outage_fraction=1.5)


def _bump_run(replication=None, failover=None, num_ops=400):
    cluster = _cluster(replication=replication)
    for shard in cluster.shards:
        shard.stack.cache.store.tracer.enable()
    server = Server(
        cluster,
        _tenants(num_ops=num_ops),
        ServerConfig(48),
        invalidations=InvalidationPlan((TenantInvalidate(3 * MSEC, "web"),)),
        failover=failover,
    )
    return cluster, server.run()


class TestServerIntegration:
    def test_bump_reaches_every_shard_with_events(self):
        cluster, report = _bump_run()
        row = report.inval_row
        assert row is not None
        assert row["inval_bumps"] == 1
        assert row["tenant_generations"] == 1
        assert row["tenant_versioned"] == 1
        events = []
        for shard in cluster.shards:
            cache = shard.stack.cache
            assert cache.lifecycle.namespaces.generation(b"web") == 1
            events.extend(cache.store.tracer.find("serve.invalidate"))
        assert len(events) == len(cluster.shards)

    def test_dead_bytes_reconcile_with_ledgers(self):
        cluster, report = _bump_run(num_ops=800)
        row = report.inval_row
        ledgers = [s.stack.cache.regions.ledger for s in cluster.shards]
        assert row["inval_dead_bytes"] == sum(
            lg.dead_bytes["invalidated"] for lg in ledgers
        )
        assert row["inval_dead_items"] == sum(
            lg.dead_items["invalidated"] for lg in ledgers
        )
        assert row["inval_dropped_regions"] == sum(
            lg.dead_generation_regions for lg in ledgers
        )
        assert row["inval_post_hit_ratio"] > 0.0

    def test_no_read_serves_pre_bump_generation(self):
        cluster, _ = _bump_run(num_ops=800)
        for shard in cluster.shards:
            cache = shard.stack.cache
            generation = cache.lifecycle.namespaces.generation(b"web")
            assert generation == 1
            stale = [
                key
                for key in cache.index.keys()
                if (parsed := split_versioned(key)) is not None
                and parsed[1] < generation
            ]
            for key in stale:
                assert cache.get(key) is None, key

    def test_bump_survives_shard_death_via_hint_journal(self):
        """A bump that fires while a shard is dead must still reach it:
        the nsbump rides the hint journal and replays at recovery, so
        even fallback reads never serve the old generation."""
        cluster, report = _bump_run(
            replication=ReplicationConfig(replicas=2),
            failover=FailoverPlan((ShardKill(2 * MSEC, 0, 4 * MSEC),)),
            num_ops=800,
        )
        assert report.inval_row["inval_bumps"] == 1
        for shard in cluster.shards:
            cache = shard.stack.cache
            assert cache.lifecycle.namespaces.generation(b"web") == 1
            for key in list(cache.index.keys()):
                parsed = split_versioned(key)
                if parsed is not None and parsed[1] < 1:
                    assert cache.get(key) is None, (shard.index, key)


class TestInvalidationSmokeGolden:
    def test_smoke_deterministic_and_shaped(self, sweep_rows):
        rows_a = sweep_rows("invalidate")
        rows_b = run_sweep("invalidate", "smoke")
        assert rows_a == rows_b
        assert [r["scheme"] for r in rows_a] == [
            "Region-Cache",
            "Zone-Cache",
            "File-Cache",
            "Block-Cache",
            "Z-Cache",
        ]
        by_scheme = {r["scheme"]: r for r in rows_a}
        for row in rows_a:
            assert row["inval_bumps"] == 2
            assert row["tenant_versioned"] == 2
            assert row["inval_dead_bytes"] > 0
            assert row["inval_post_hit_ratio"] > 0
            # With hint_drop_position=0 every DROPPED GC unit is a
            # dead-generation region — the ledger and the reclaim
            # tracer must agree exactly.
            assert row["inval_dropped_regions"] == row["gc_dropped_units"]
        # The paper's separation: the ZNS-native schemes discover dead
        # bytes for free (zone reset / drop hints) while the Block-Cache
        # FTL copies them around first.
        block = by_scheme["Block-Cache"]
        assert block["gc_copied_bytes"] > 0
        assert by_scheme["Zone-Cache"]["gc_copied_bytes"] < block["gc_copied_bytes"]
        assert by_scheme["Z-Cache"]["gc_copied_bytes"] < block["gc_copied_bytes"]
        assert block["waf_device_max"] > 1.0


@pytest.mark.slow
class TestInvalidationSweepAcceptance:
    def test_separation_and_reconciliation_at_full_scale(self):
        rows = run_sweep("invalidate")
        by_scheme = {r["scheme"]: r for r in rows}
        block = by_scheme["Block-Cache"]
        assert block["gc_copied_bytes"] > 0
        for scheme in ("Zone-Cache", "Z-Cache"):
            assert (
                by_scheme[scheme]["gc_copied_bytes"]
                < block["gc_copied_bytes"]
            ), scheme
        for row in rows:
            assert row["inval_dead_bytes"] > 0, row["scheme"]
            assert row["inval_dropped_regions"] == row["gc_dropped_units"]
            assert row["inval_recovery_slope_per_s"] > 0, row["scheme"]
