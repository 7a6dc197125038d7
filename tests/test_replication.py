"""Tests for fleet replication & failover (repro.serve.replication).

Covers config/journal validation, the health state machine's declared
transitions, R=1 armed-vs-unarmed row equivalence (the golden-
safety contract), hinted-handoff replay after a scripted power cut,
span/byte reconciliation for replication traffic, and the failover
smoke's determinism.  The full-sweep acceptance criteria run in the
slow tier.
"""

import pytest

from repro.bench.experiments import run_sweep
from repro.bench.schemes import SchemeScale
from repro.errors import ConfigError
from repro.serve import (
    HEALTH_DOWN,
    HEALTH_RESYNCING,
    HEALTH_SUSPECT,
    HEALTH_UP,
    CacheCluster,
    FailoverPlan,
    HintJournal,
    ReplicationConfig,
    RoutingConfig,
    Server,
    ServerConfig,
    ShardKill,
    TenantConfig,
)
from repro.serve.replication import (
    DOWN_AFTER_FAILURES,
    PROBE_INTERVAL_NS,
    SUSPECT_AFTER_FAILURES,
)
from repro.units import KIB, MSEC
from repro.workloads import CacheBenchConfig
from repro.workloads.cachebench import KIND_DELETE, KIND_SET

SMALL = SchemeScale(
    zone_size=256 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,
    ram_bytes=32 * KIB,
)


def _cluster(replicas=2, shards=2, scheme="Region-Cache", **repl_kwargs):
    cache = None if scheme == "Zone-Cache" else 6 * SMALL.zone_size
    return CacheCluster.homogeneous(
        scheme,
        shards,
        8 * SMALL.zone_size,
        cache,
        scale=SMALL,
        cache_overrides=(("eviction_policy", "fifo"),),
        replication=ReplicationConfig(replicas=replicas, **repl_kwargs),
    )


def _tenants(num_ops=400, rate=50_000.0, seed=5):
    return [
        TenantConfig(
            "web",
            rate_ops_per_sec=rate,
            workload=CacheBenchConfig(
                num_ops=num_ops, num_keys=500, set_on_miss=True, seed=seed
            ),
            seed=21,
        ),
        TenantConfig(
            "batch",
            rate_ops_per_sec=rate / 2,
            arrival="burst",
            workload=CacheBenchConfig(
                num_ops=num_ops,
                num_keys=300,
                get_ratio=0.3,
                set_ratio=0.6,
                delete_ratio=0.1,
                seed=seed + 1,
            ),
            seed=22,
        ),
    ]


class TestValidation:
    def test_replication_config(self):
        with pytest.raises(ConfigError):
            ReplicationConfig(replicas=0)
        with pytest.raises(ConfigError):
            ReplicationConfig(hint_limit=0)
        # Failure detection is fixed: suspect at once, down after three,
        # probes every half millisecond.
        assert 1 <= SUSPECT_AFTER_FAILURES <= DOWN_AFTER_FAILURES == 3
        assert PROBE_INTERVAL_NS == MSEC // 2

    def test_shard_kill_and_plan(self):
        with pytest.raises(ConfigError):
            ShardKill(at_ns=-1, shard=0, outage_ns=1)
        with pytest.raises(ConfigError):
            ShardKill(at_ns=0, shard=-1, outage_ns=1)
        with pytest.raises(ConfigError):
            ShardKill(at_ns=0, shard=0, outage_ns=0)
        plan = FailoverPlan([ShardKill(5, 0, 2), ShardKill(3, 1, 2)])
        assert isinstance(plan.kills, tuple)
        assert plan.first_kill_ns() == 3
        assert FailoverPlan().first_kill_ns() is None

    def test_replicas_capped_by_fleet(self):
        with pytest.raises(ConfigError):
            _cluster(replicas=3, shards=2)

    def test_replication_rejects_gc_aware_routing(self):
        with pytest.raises(ConfigError):
            CacheCluster.homogeneous(
                "Region-Cache",
                2,
                8 * SMALL.zone_size,
                6 * SMALL.zone_size,
                scale=SMALL,
                routing=RoutingConfig(policy="gc_aware"),
                replication=ReplicationConfig(replicas=2),
            )

    def test_kill_shard_index_validated(self):
        cluster = _cluster(replicas=2, shards=2)
        with pytest.raises(ConfigError):
            Server(
                cluster,
                _tenants(),
                ServerConfig(48),
                failover=FailoverPlan((ShardKill(0, 9, 1),)),
            )


class TestHintJournal:
    def test_bounded_fifo_drops_oldest(self):
        journal = HintJournal(limit=2)
        assert journal.append(KIND_SET, b"a", b"1")
        assert journal.append(KIND_SET, b"b", b"22")
        assert not journal.append(KIND_SET, b"c", b"333")
        assert len(journal) == 2
        assert journal.appended == 3
        assert journal.dropped == 1
        assert journal.bytes == 6
        entries = journal.drain()
        assert [e[1] for e in entries] == [b"b", b"c"]
        assert len(journal) == 0

    def test_repair_hint_never_shadows_write_hint(self):
        journal = HintJournal(limit=8)
        journal.append(KIND_SET, b"k", b"new")
        assert not journal.append_repair(KIND_SET, b"k", b"stale")
        assert journal.append_repair(KIND_SET, b"other", b"v")
        kinds = {key: value for _, key, value in journal.drain()}
        assert kinds[b"k"] == b"new"
        # Drain clears the written-key memory too.
        assert journal.append_repair(KIND_SET, b"k", b"later")

    def test_delete_hints_carry_no_bytes(self):
        journal = HintJournal(limit=4)
        journal.append(KIND_DELETE, b"k", None)
        assert journal.bytes == 0
        assert journal.drain() == [(KIND_DELETE, b"k", None)]

    def test_limit_validated(self):
        with pytest.raises(ConfigError):
            HintJournal(limit=0)


class TestReplicaSet:
    def test_distinct_primary_first(self):
        cluster = _cluster(replicas=2, shards=3)
        for i in range(200):
            key = f"user:{i}".encode()
            members = cluster.replica_set(key)
            assert len(members) == 2
            assert len({m.index for m in members}) == 2
            assert members[0] is cluster.shard_for(key)

    def test_r1_replica_set_is_primary_only(self):
        cluster = _cluster(replicas=1, shards=2)
        for i in range(50):
            key = f"user:{i}".encode()
            assert cluster.replica_set(key) == (cluster.shard_for(key),)


class TestUnarmedEquivalence:
    def test_r1_empty_plan_rows_equal_unarmed_rows(self):
        """Arming replication with R=1 and an empty plan must reproduce
        the unarmed run's report exactly — the golden-safety contract."""
        unarmed = Server(
            CacheCluster.homogeneous(
                "Region-Cache",
                2,
                8 * SMALL.zone_size,
                6 * SMALL.zone_size,
                scale=SMALL,
                cache_overrides=(("eviction_policy", "fifo"),),
            ),
            _tenants(),
            ServerConfig(48),
        ).run()
        replicated = Server(
            _cluster(replicas=1, shards=2),
            _tenants(),
            ServerConfig(48),
            failover=FailoverPlan(),
        ).run()
        assert replicated.fleet_row is not None
        assert unarmed.fleet_row is None
        assert replicated.tenant_rows == unarmed.tenant_rows
        # Armed shard rows append fleet columns; the shared prefix must
        # match the unarmed run value-for-value.
        for mine, theirs in zip(replicated.shard_rows, unarmed.shard_rows):
            for column, value in theirs.items():
                assert mine[column] == value, column
        assert replicated.fleet_row["repl_writes"] == 0
        assert replicated.fleet_row["kills"] == 0
        # Availability is completed over (offered - rate-limit sheds);
        # with no kills the only loss is queue-full shedding.
        offered = sum(r["offered"] for r in replicated.tenant_rows)
        rate_shed = sum(r["shed_rate_limited"] for r in replicated.tenant_rows)
        completed = sum(r["completed"] for r in replicated.tenant_rows)
        assert replicated.fleet_row["availability"] == pytest.approx(
            completed / (offered - rate_shed)
        )


def _kill_run(
    replicas=2, track_writes=False, num_ops=400, rate=50_000.0, depth=48
):
    cluster = _cluster(
        replicas=replicas, shards=2, track_writes=track_writes
    )
    kill_at = 3 * MSEC
    outage = 3 * MSEC
    server = Server(
        cluster,
        _tenants(num_ops=num_ops, rate=rate),
        ServerConfig(depth),
        failover=FailoverPlan((ShardKill(kill_at, 0, outage),)),
    )
    return cluster, server, server.run()


class TestFailoverLifecycle:
    def test_health_machine_walks_declared_states(self):
        cluster, _, report = _kill_run()
        killed = cluster.shards[0]
        states = [state for _, state in killed.health_log]
        # Declared transitions in order: failures mark it SUSPECT then
        # DOWN, recovery enters RESYNCING, hint drain returns it to UP.
        assert states == [
            HEALTH_SUSPECT,
            HEALTH_DOWN,
            HEALTH_RESYNCING,
            HEALTH_UP,
        ]
        assert killed.alive and killed.health == HEALTH_UP
        assert report.fleet_row["kills"] == 1
        assert report.fleet_row["recovery_ms"] > 3.0  # at least the outage

    def test_probes_stop_once_the_fleet_is_healthy(self):
        """The health probe fires while a shard is down or resyncing and
        not after: a probe of a healthy fleet is a no-op event, and it
        used to fire every interval until the last tenant request."""
        probes = []

        class CountingServer(Server):
            def _on_probe(self, now_ns, index):
                probes.append(now_ns)
                super()._on_probe(now_ns, index)

        cluster = _cluster(replicas=2, shards=2)
        server = CountingServer(
            cluster,
            _tenants(num_ops=3000),
            ServerConfig(48),
            failover=FailoverPlan((ShardKill(3 * MSEC, 0, 3 * MSEC),)),
        )
        report = server.run()
        back_up_ns, state = cluster.shards[0].health_log[-1]
        assert state == HEALTH_UP
        interval = PROBE_INTERVAL_NS
        assert probes and probes[0] == 3 * MSEC + interval
        assert probes[-1] < back_up_ns + interval
        # The run went on long after that, and reports what it always did.
        assert report.sim_seconds * 1e9 > 4 * back_up_ns
        assert report.fleet_row["kills"] == 1

    def test_hinted_handoff_replays_missed_writes(self):
        cluster, _, report = _kill_run()
        killed = cluster.shards[0]
        fleet = report.fleet_row
        assert fleet["hints_buffered"] > 0
        assert killed.handoff_served > 0
        assert fleet["handoff_writes"] == killed.handoff_served
        assert len(killed.hint_journal) == 0  # drained at recovery
        assert killed.hints_outstanding == 0
        assert fleet["repl_writes"] > 0
        assert fleet["fallback_reads"] > 0

    def test_r1_has_no_replication_machinery(self):
        cluster, _, report = _kill_run(replicas=1)
        fleet = report.fleet_row
        assert fleet["repl_writes"] == 0
        assert fleet["handoff_writes"] == 0
        assert fleet["fallback_reads"] == 0
        assert fleet["failed"] > 0  # outage requests had nowhere to go
        # The shard still recovers (crash_recover is PR 2 machinery).
        assert cluster.shards[0].alive
        assert cluster.shards[0].health == HEALTH_UP

    def test_r2_beats_r1_availability(self):
        # Below the saturation knee (where availability is all about the
        # outage, not queue pressure) replication must win outright.
        _, _, r1 = _kill_run(replicas=1, rate=8_000.0)
        _, _, r2 = _kill_run(replicas=2, rate=8_000.0)
        assert (
            r2.fleet_row["availability"] > r1.fleet_row["availability"]
        )
        assert r2.fleet_row["failed"] < r1.fleet_row["failed"]

    def test_deterministic_fleet_report(self):
        _, _, a = _kill_run()
        _, _, b = _kill_run()
        assert a.fleet_row == b.fleet_row
        assert a.tenant_rows == b.tenant_rows
        assert a.shard_rows == b.shard_rows

    def test_shard_rows_gain_fleet_columns_only_when_replicated(self):
        cluster, _, report = _kill_run()
        for row in report.shard_rows:
            assert "health" in row and "repl_served" in row
        legacy = Server(
            CacheCluster.homogeneous(
                "Region-Cache",
                2,
                8 * SMALL.zone_size,
                6 * SMALL.zone_size,
                scale=SMALL,
                cache_overrides=(("eviction_policy", "fifo"),),
            ),
            _tenants(),
            ServerConfig(48),
        ).run()
        for row in legacy.shard_rows:
            assert "health" not in row and "repl_served" not in row


class TestWriteLedgerOracle:
    def test_no_torn_or_stale_reads_after_replay(self):
        """Every key readable after the storm must hold a value some
        acknowledged write produced (or be absent) — hint replay may
        lose unacknowledged tails but never resurrects torn/stale data.
        """
        cluster, server, report = _kill_run(track_writes=True, num_ops=600)
        assert report.fleet_row["hint_drops"] == 0
        ledger = server.write_ledger
        assert ledger  # the oracle actually recorded writes
        checked = 0
        for key, history in ledger.items():
            versions = {value for _, value in history}
            for shard in cluster.shards:
                observed = shard.stack.cache.get(key)
                assert observed is None or observed in versions, key
                checked += 1
        assert checked > 0

    def test_primary_converges_to_last_acknowledged_write(self):
        """With no hint drops, a key homed on the dead shard whose last
        acknowledged write landed while it was declared DOWN must read
        back on the primary as that write after replay — or not at all
        (ordinary cache eviction), never as an *older* value.

        Writes acknowledged before the kill are exempt: async
        replication acks without waiting for replicas, so a crash can
        legitimately roll the primary back to its last sealed state for
        those (PR 2 semantics) — that is the durability gap R-way
        replication narrows but does not close.

        Runs below the saturation knee with effectively unbounded
        queues: convergence is only promised when no replica write was
        shed to a *full* queue (detection-window drops to the dead
        member still happen — they lose replica copies of keys homed
        elsewhere, which this oracle does not cover).
        """
        cluster, server, report = _kill_run(
            track_writes=True, num_ops=600, rate=8_000.0, depth=100_000
        )
        assert report.fleet_row["hint_drops"] == 0
        killed = cluster.shards[0]
        down_ns = next(
            t for t, state in killed.health_log if state == HEALTH_DOWN
        )
        checked = stale = 0
        for key, history in server.write_ledger.items():
            if cluster.shard_for(key) is not killed:
                continue
            last_ns, last_value = history[-1]
            # Strictly after the DOWN declaration: the write whose failed
            # fan-out *triggered* the transition shares its timestamp but
            # was dropped (the member was still SUSPECT when it fanned
            # out), not hinted.
            if last_ns <= down_ns:
                continue
            checked += 1
            observed = killed.stack.cache.get(key)
            if observed is not None and observed != last_value:
                stale += 1
        assert checked > 0
        assert stale == 0


class TestSpanReconciliation:
    def test_replicate_and_handoff_spans_match_reported_bytes(self):
        cluster = _cluster(replicas=2, shards=2)
        for shard in cluster.shards:
            shard.stack.cache.store.tracer.enable()
        server = Server(
            cluster,
            _tenants(),
            ServerConfig(48),
            failover=FailoverPlan((ShardKill(3 * MSEC, 0, 3 * MSEC),)),
        )
        report = server.run()
        fleet = report.fleet_row
        repl_spans = []
        handoff_spans = []
        for shard in cluster.shards:
            tracer = shard.stack.cache.store.tracer
            repl_spans.extend(tracer.find("serve", "replicate"))
            handoff_spans.extend(tracer.find("serve", "handoff"))
        assert fleet["repl_writes"] == len(repl_spans) > 0
        assert fleet["repl_bytes"] == sum(r.length for r in repl_spans) > 0
        assert fleet["handoff_writes"] == len(handoff_spans) > 0
        assert fleet["handoff_bytes"] == sum(r.length for r in handoff_spans)

    def test_fault_and_health_events_emitted(self):
        cluster = _cluster(replicas=2, shards=2)
        killed_tracer = cluster.shards[0].stack.cache.store.tracer
        killed_tracer.enable()
        Server(
            cluster,
            _tenants(),
            ServerConfig(48),
            failover=FailoverPlan((ShardKill(3 * MSEC, 0, 3 * MSEC),)),
        ).run()
        assert killed_tracer.find("serve.fault", "power_cut")
        health_ops = [r.op for r in killed_tracer.find("serve.health")]
        assert health_ops == [
            HEALTH_SUSPECT,
            HEALTH_DOWN,
            HEALTH_RESYNCING,
            HEALTH_UP,
        ]
        assert killed_tracer.find("serve", "recover")


class TestFailoverSmokeGolden:
    def test_smoke_deterministic_and_shaped(self, sweep_rows):
        rows_a = sweep_rows("failover")
        rows_b = run_sweep("failover", "smoke")
        assert rows_a == rows_b
        assert len(rows_a) == 2
        r1, r2 = rows_a
        assert (r1["replicas"], r2["replicas"]) == (1, 2)
        assert r2["fleet_availability"] > r1["fleet_availability"]
        assert r2["fleet_handoff_writes"] > 0
        assert r1["fleet_repl_bytes"] == 0 and r2["fleet_repl_bytes"] > 0
        for row in rows_a:
            assert row["fleet_kills"] == 1


@pytest.mark.slow
class TestFailoverSweepAcceptance:
    def test_r2_survives_shard_loss_r1_does_not(self):
        """The PR's acceptance criteria: with R=2, killing 1 of 8 shards
        mid-diurnal keeps availability >= 99% and the hit ratio within
        5% of steady state by sweep end for Region-Cache and Z-Cache;
        R=1 demonstrably fails the availability bar."""
        rows = run_sweep("failover")
        by_cell = {(r["scheme"], r["replicas"]): r for r in rows}
        for scheme in ("Region-Cache", "Z-Cache"):
            r2 = by_cell[(scheme, 2)]
            assert r2["fleet_availability"] >= 0.99, scheme
            steady = r2["fleet_hit_steady"]
            recovered = r2["fleet_hit_recovered"]
            assert abs(recovered - steady) / steady <= 0.05, scheme
            r1 = by_cell[(scheme, 1)]
            assert r1["fleet_availability"] < 0.99, scheme
            assert r2["fleet_repl_bytes"] > 0
            assert r2["fleet_handoff_writes"] > 0
