"""Tests for the serving layer: hashing, arrivals, QoS, cluster, server.

Covers the determinism contract (same seed → byte-identical report
rows), consistent-hash balance and minimal movement, Poisson statistics,
load shedding past the knee, and single-shard parity with the
closed-loop CacheBench driver.
"""

import math
import statistics

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.experiments import run_sweep
from repro.bench.fleet import SERVING_SCALE, FleetCell, build_fleet
from repro.bench.schemes import SchemeScale, build_scheme
from repro.cache import TinyLfuAdmission
from repro.errors import ConfigError, ReproError, ServerAlreadyRanError
from repro.serve import (
    BurstArrivals,
    CacheCluster,
    ConsistentHashRing,
    DiurnalArrivals,
    PoissonArrivals,
    Server,
    ServerConfig,
    ShardSpec,
    SloTracker,
    TenantConfig,
    TokenBucket,
    hash32,
)
from repro.sim import SimClock
from repro.units import KIB, SEC
from repro.workloads import CacheBenchConfig, CacheBenchDriver


SMALL = SchemeScale(
    zone_size=256 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,
    ram_bytes=32 * KIB,
)


class TestHash32:
    def test_deterministic_across_instances(self):
        assert hash32(b"key-1") == hash32(b"key-1")
        assert hash32(b"key-1", salt=1) != hash32(b"key-1", salt=2)

    def test_spreads_sequential_keys(self):
        values = {hash32(f"k{i}".encode()) for i in range(1000)}
        assert len(values) == 1000
        # Sequential inputs should not cluster in one quadrant.
        quadrants = {v >> 30 for v in values}
        assert quadrants == {0, 1, 2, 3}


class TestConsistentHashRing:
    def _keys(self, n=10_000):
        return [f"user:{i}".encode() for i in range(n)]

    def test_balance_across_10k_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2"], vnodes=128)
        counts = {"s0": 0, "s1": 0, "s2": 0}
        for key in self._keys():
            counts[ring.node_for(key)] += 1
        mean = 10_000 / 3
        for node, count in counts.items():
            assert abs(count - mean) / mean < 0.35, (node, counts)

    def test_add_node_moves_few_keys(self):
        keys = self._keys()
        ring = ConsistentHashRing(["s0", "s1", "s2"], vnodes=128)
        before = {key: ring.node_for(key) for key in keys}
        ring.add_node("s3")
        moved = sum(1 for key in keys if ring.node_for(key) != before[key])
        # Ideal movement is 1/4 of the keyspace; allow generous slack.
        assert moved / len(keys) < 0.40
        # Every moved key must have moved *to* the new node, never
        # between surviving nodes.
        for key in keys:
            after = ring.node_for(key)
            if after != before[key]:
                assert after == "s3"

    def test_remove_node_moves_only_its_keys(self):
        keys = self._keys()
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"], vnodes=128)
        before = {key: ring.node_for(key) for key in keys}
        ring.remove_node("s3")
        for key in keys:
            if before[key] != "s3":
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) != "s3"

    def test_ring_validation(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ConfigError):
            ring.add_node("a")
        with pytest.raises(ConfigError):
            ring.remove_node("missing")
        with pytest.raises(ConfigError):
            ConsistentHashRing([]).node_for(b"k")
        with pytest.raises(ConfigError):
            ConsistentHashRing(vnodes=0)


_NODE_NAMES = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
    ),
    min_size=1,
    max_size=8,
    unique=True,
)


class TestNodesForProperties:
    """Hypothesis properties of the ring's successor lists — the replica
    placement contract the failover machinery (PR 8) leans on."""

    @given(names=_NODE_NAMES, key=st.binary(min_size=1, max_size=24),
           count=st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_distinct_nodes_primary_first(self, names, key, count):
        ring = ConsistentHashRing(names, vnodes=16)
        owners = ring.nodes_for(key, count)
        assert len(owners) == min(count, len(names))
        assert len(set(owners)) == len(owners)
        assert owners[0] == ring.node_for(key)
        assert set(owners) <= set(names)

    @given(names=_NODE_NAMES, key=st.binary(min_size=1, max_size=24),
           data=st.data())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_successor_order_stable_under_node_removal(self, names, key, data):
        """Removing a node must not reorder the survivors: the full
        ring's successor list, filtered to the remaining nodes, is
        exactly the smaller ring's successor list.  This is what makes
        read fallback hit the shard hinted writes were journaled for."""
        removed = data.draw(st.sampled_from(names))
        full = ConsistentHashRing(names, vnodes=16)
        keep = [name for name in names if name != removed]
        if not keep:
            return
        subset = ConsistentHashRing(keep, vnodes=16)
        full_order = [
            n for n in full.nodes_for(key, len(names)) if n != removed
        ]
        assert subset.nodes_for(key, len(keep)) == full_order

    @given(names=_NODE_NAMES, key=st.binary(min_size=1, max_size=24),
           extra=st.text(alphabet="xyz", min_size=13, max_size=16))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_add_then_remove_restores_order(self, names, key, extra):
        ring = ConsistentHashRing(names, vnodes=16)
        before = ring.nodes_for(key, len(names))
        ring.add_node(extra)
        ring.remove_node(extra)
        assert ring.nodes_for(key, len(names)) == before

    @given(names=_NODE_NAMES, key=st.binary(min_size=1, max_size=24),
           count=st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fallback_order_deterministic_across_instances(
        self, names, key, count
    ):
        """Two independently-built rings over the same nodes agree on
        the whole fallback order — any server process computes the same
        replica set, no coordination needed."""
        a = ConsistentHashRing(names, vnodes=16)
        b = ConsistentHashRing(list(names), vnodes=16)
        assert a.nodes_for(key, count) == b.nodes_for(key, count)


class TestArrivals:
    def test_poisson_mean_and_variance(self):
        rate = 10_000.0
        process = PoissonArrivals(rate, seed=9)
        gaps = []
        now = 0
        for _ in range(20_000):
            nxt = process.next_arrival_ns(now)
            gaps.append(nxt - now)
            now = nxt
        mean = statistics.fmean(gaps)
        expected = SEC / rate
        assert abs(mean - expected) / expected < 0.03
        # Exponential gaps: stdev equals the mean.
        stdev = statistics.pstdev(gaps)
        assert abs(stdev - mean) / mean < 0.05

    def test_poisson_deterministic(self):
        a = PoissonArrivals(5000.0, seed=3)
        b = PoissonArrivals(5000.0, seed=3)
        now_a = now_b = 0
        for _ in range(100):
            now_a = a.next_arrival_ns(now_a)
            now_b = b.next_arrival_ns(now_b)
        assert now_a == now_b

    def _mean_rate(self, process, horizon_s=2.0):
        now, count = 0, 0
        horizon = int(horizon_s * SEC)
        while True:
            now = process.next_arrival_ns(now)
            if now > horizon:
                break
            count += 1
        return count / horizon_s

    def test_burst_preserves_mean_rate(self):
        rate = 20_000.0
        process = BurstArrivals(rate, burst_factor=4.0, seed=11)
        assert abs(self._mean_rate(process) - rate) / rate < 0.10

    def test_diurnal_preserves_mean_rate(self):
        rate = 20_000.0
        process = DiurnalArrivals(rate, amplitude=0.5, period_s=0.1, seed=12)
        assert abs(self._mean_rate(process) - rate) / rate < 0.10

    def test_burst_rate_switches(self):
        process = BurstArrivals(1000.0, burst_factor=4.0, on_s=0.02, off_s=0.08)
        assert process.rate_at(0) == pytest.approx(4000.0)
        off = process.rate_at(int(0.05 * SEC))
        assert off < 1000.0
        # On/off mix solves back to the base rate.
        mixed = (process.on_rate * 0.02 + off * 0.08) / 0.1
        assert mixed == pytest.approx(1000.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigError):
            DiurnalArrivals(100.0, amplitude=1.5)
        with pytest.raises(ConfigError):
            BurstArrivals(100.0, burst_factor=0.5)


class TestTokenBucket:
    def test_burst_then_reject(self):
        bucket = TokenBucket(1000.0, burst=4.0)
        results = [bucket.try_take(0) for _ in range(6)]
        assert results == [True] * 4 + [False] * 2
        assert bucket.accepted == 4 and bucket.rejected == 2

    def test_refills_with_virtual_time(self):
        bucket = TokenBucket(1000.0, burst=1.0)
        assert bucket.try_take(0)
        assert not bucket.try_take(0)
        # 1 ms at 1000 tokens/s refills exactly one token.
        assert bucket.try_take(int(0.001 * SEC))

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(0.0)
        with pytest.raises(ConfigError):
            TokenBucket(10.0, burst=0.5)


class TestSloTracker:
    def test_accounting(self):
        slo = SloTracker("t", slo_latency_ns=1000)
        for _ in range(4):
            slo.record_offered()
        slo.record_completion(500, is_get=True, hit=True)
        slo.record_completion(2000, is_get=True, hit=False)
        slo.record_shed("rate_limited")
        slo.record_shed("queue_full")
        assert slo.shed == 2 and slo.shed_rate == pytest.approx(0.5)
        assert slo.hit_ratio == pytest.approx(0.5)
        row = slo.row(elapsed_seconds=1.0)
        assert row["completed"] == 2
        assert row["slo_attainment"] == pytest.approx(0.5)
        assert row["goodput_kops"] == pytest.approx(0.001)
        with pytest.raises(ValueError):
            slo.record_shed("cosmic_rays")


class TestValidation:
    def test_cachebench_value_distribution(self):
        with pytest.raises(ConfigError):
            CacheBenchConfig(value_sizes=(100, 200), value_weights=(1.0,))
        with pytest.raises(ConfigError):
            CacheBenchConfig(value_sizes=(100,), value_weights=(0.0,))
        with pytest.raises(ConfigError):
            CacheBenchConfig(value_sizes=(), value_weights=())
        with pytest.raises(ConfigError):
            CacheBenchConfig(value_sizes=(0,), value_weights=(1.0,))
        # ConfigError is a ValueError, so legacy callers keep working.
        assert issubclass(ConfigError, ValueError)

    def test_tenant_config(self):
        with pytest.raises(ConfigError):
            TenantConfig("")
        with pytest.raises(ConfigError):
            TenantConfig("t", rate_ops_per_sec=0.0)
        with pytest.raises(ConfigError):
            TenantConfig("t", arrival="tidal")
        with pytest.raises(ConfigError):
            TenantConfig("t", slo_p99_ms=0.0)
        assert TenantConfig("web").effective_key_prefix == b"web:"
        assert TenantConfig("web", key_prefix=b"").effective_key_prefix == b""

    def test_shard_and_server_config(self):
        with pytest.raises(ConfigError):
            ShardSpec("Quantum-Cache", media_bytes=1)
        with pytest.raises(ConfigError):
            ShardSpec("Zone-Cache", media_bytes=0)
        with pytest.raises(ConfigError):
            ServerConfig(max_queue_depth=0)
        with pytest.raises(ConfigError):
            CacheCluster([])
        with pytest.raises(ConfigError):
            CacheCluster.homogeneous("Zone-Cache", 0, 1024)

    def test_duplicate_tenant_names_rejected(self):
        cluster = CacheCluster.homogeneous(
            "Zone-Cache", 1, 4 * SMALL.zone_size, scale=SMALL
        )
        tenants = [TenantConfig("a"), TenantConfig("a")]
        with pytest.raises(ConfigError):
            Server(cluster, tenants)


class TestAdmission:
    def test_count_min_sketch(self):
        admission = TinyLfuAdmission(width=64, depth=4, seed=1)
        sketch = admission.sketch
        for _ in range(5):
            admission.admit(b"hot", b"")
        admission.admit(b"cold", b"")
        assert sketch.estimate(b"hot") >= 5
        assert sketch.estimate(b"cold") >= 1
        assert sketch.estimate(b"never") <= sketch.estimate(b"hot")
        sketch.halve()
        assert sketch.estimate(b"hot") >= 2

    def test_tinylfu_doorkeeper(self):
        policy = TinyLfuAdmission(width=256, depth=4, threshold=2, seed=1)
        assert not policy.admit(b"k1", b"v")  # first sight: one-hit wonder
        assert policy.admit(b"k1", b"v")  # second sight passes
        assert not policy.admit(b"k2", b"v")

    def test_tinylfu_aging(self):
        policy = TinyLfuAdmission(
            width=256, depth=4, threshold=3, decay_ops=4, seed=1
        )
        for _ in range(4):
            policy.admit(b"k", b"v")  # 4th admit triggers a halve
        assert policy.sketch.estimate(b"k") == 2

    def test_tinylfu_engine_filters_one_hit_wonders(self):
        media = 8 * SMALL.zone_size
        stack = build_scheme(
            "Region-Cache",
            SimClock(),
            SMALL,
            media,
            6 * SMALL.zone_size,
        )
        stack.cache.admission = TinyLfuAdmission()
        stack.cache.set(b"once", b"x" * 64)
        assert stack.cache.stats.sets_admitted == 0  # one-hit wonder filtered
        stack.cache.set(b"twice", b"x" * 64)
        stack.cache.set(b"twice", b"x" * 64)
        assert stack.cache.stats.sets_admitted == 1  # doorkeeper passed it
        # The RAM tier still serves the filtered key.
        assert stack.cache.get(b"once") == b"x" * 64


def _tiny_cluster(scheme="Region-Cache", shards=2):
    cache = None if scheme == "Zone-Cache" else 6 * SMALL.zone_size
    file_media = 12 * SMALL.zone_size if scheme == "File-Cache" else None
    return CacheCluster.homogeneous(
        scheme,
        shards,
        8 * SMALL.zone_size,
        cache,
        file_media_bytes=file_media,
        scale=SMALL,
        cache_overrides=(("eviction_policy", "fifo"),),
    )


def _tiny_tenants(num_ops=400, rate=50_000.0):
    return [
        TenantConfig(
            "web",
            rate_ops_per_sec=rate,
            workload=CacheBenchConfig(num_ops=num_ops, num_keys=500, seed=5),
            seed=21,
        ),
        TenantConfig(
            "batch",
            rate_ops_per_sec=rate / 2,
            arrival="burst",
            workload=CacheBenchConfig(num_ops=num_ops, num_keys=300, seed=6),
            rate_limit_ops_per_sec=rate,
            seed=22,
        ),
    ]


class TestServer:
    def test_mixed_fleet_and_routing(self):
        specs = [
            ShardSpec(
                "Region-Cache",
                media_bytes=8 * SMALL.zone_size,
                cache_bytes=6 * SMALL.zone_size,
            ),
            ShardSpec("Zone-Cache", media_bytes=8 * SMALL.zone_size),
        ]
        cluster = CacheCluster(specs, scale=SMALL)
        report = Server(cluster, _tiny_tenants(), ServerConfig(24)).run()
        assert report.offered == 800
        assert report.completed + report.shed == report.offered
        served = [row["served"] for row in report.shard_rows]
        assert all(count > 0 for count in served)  # both shards got traffic
        schemes = {row["scheme"] for row in report.shard_rows}
        assert schemes == {"Region-Cache", "Zone-Cache"}

    def test_deterministic_report(self):
        run_a = Server(_tiny_cluster(), _tiny_tenants(), ServerConfig(24)).run()
        run_b = Server(_tiny_cluster(), _tiny_tenants(), ServerConfig(24)).run()
        assert run_a.tenant_rows == run_b.tenant_rows
        assert run_a.shard_rows == run_b.shard_rows

    def test_run_is_single_shot(self):
        """A second run() would re-draw streams on top of the first
        run's SLO trackers and report rows mixing both: it must raise."""
        server = Server(_tiny_cluster(), _tiny_tenants(), ServerConfig(24))
        first = server.run()
        with pytest.raises(ServerAlreadyRanError):
            server.run()
        assert issubclass(ServerAlreadyRanError, ReproError)
        assert first.offered == sum(t.slo.offered for t in server.tenants)

    def test_overload_sheds_with_bounded_p99(self):
        # 10x the sustainable rate on one shard: the bounded queue must
        # shed rather than let latency grow with the backlog.
        tenants = [
            TenantConfig(
                "hot",
                rate_ops_per_sec=400_000.0,
                workload=CacheBenchConfig(num_ops=2000, num_keys=500, seed=5),
                seed=31,
            )
        ]
        config = ServerConfig(max_queue_depth=16)
        report = Server(_tiny_cluster(shards=1), tenants, config).run()
        row = report.tenant_rows[0]
        assert row["shed_queue_full"] > 0
        # p99 bounded by roughly queue_depth * worst service time, far
        # below what an unbounded queue would accumulate at 10x load.
        assert row["p99_us"] < 50_000
        assert report.shed_rate > 0.3

    def test_rate_limit_isolates_before_queue(self):
        tenants = [
            TenantConfig(
                "limited",
                rate_ops_per_sec=100_000.0,
                workload=CacheBenchConfig(num_ops=1000, num_keys=400, seed=5),
                rate_limit_ops_per_sec=10_000.0,
                rate_limit_burst=8.0,
                seed=33,
            )
        ]
        report = Server(
            _tiny_cluster(shards=1), tenants, ServerConfig(1024)
        ).run()
        row = report.tenant_rows[0]
        assert row["shed_rate_limited"] > 0
        assert row["shed_queue_full"] == 0  # bucket clips before the queue

    def test_qos_events_on_span_bus(self):
        cluster = _tiny_cluster(shards=1)
        tracer = cluster.shards[0].stack.cache.store.tracer
        seen = []
        tracer.subscribe(
            lambda event: seen.append(event.op)
            if event.layer == "serve.qos"
            else None
        )
        tenants = [
            TenantConfig(
                "hot",
                rate_ops_per_sec=400_000.0,
                workload=CacheBenchConfig(num_ops=1000, num_keys=400, seed=5),
                seed=31,
            )
        ]
        Server(cluster, tenants, ServerConfig(8)).run()
        assert "shed_queue_full" in seen


class TestClosedLoopParity:
    def test_single_shard_matches_closed_loop(self):
        workload = CacheBenchConfig(
            num_ops=3000, num_keys=800, zipf_theta=1.0, set_on_miss=True, seed=5
        )
        media = 8 * SMALL.zone_size
        cache_bytes = 6 * SMALL.zone_size

        closed = build_scheme(
            "Region-Cache",
            SimClock(),
            SMALL,
            media,
            cache_bytes,
            eviction_policy="fifo",
        )
        closed_result = CacheBenchDriver(workload).run(closed.cache)

        cluster = CacheCluster.homogeneous(
            "Region-Cache",
            1,
            media,
            cache_bytes,
            scale=SMALL,
            cache_overrides=(("eviction_policy", "fifo"),),
        )
        tenants = [
            TenantConfig(
                "solo",
                rate_ops_per_sec=20_000.0,
                workload=workload,
                key_prefix=b"",  # byte-identical keys to the closed loop
                rate_limit_ops_per_sec=0.0,
                seed=41,
            )
        ]
        # Queue deep enough that nothing is ever shed: the serving path
        # then applies the exact closed-loop op stream in order.
        report = Server(cluster, tenants, ServerConfig(100_000)).run()
        row = report.tenant_rows[0]
        assert row["shed_rate_limited"] == 0 and row["shed_queue_full"] == 0
        assert row["completed"] == workload.num_ops

        assert row["hit_ratio"] == pytest.approx(
            closed_result.hit_ratio, abs=0.01
        )
        serve_waf = cluster.shards[0].stack.cache.waf()
        closed_waf = closed.cache.waf()
        assert serve_waf.app == pytest.approx(closed_waf.app, rel=0.05)
        assert serve_waf.device == pytest.approx(closed_waf.device, rel=0.05)


class TestServingExperimentGolden:
    def test_smoke_golden(self):
        """A mixed two-shard fleet (Region-Cache + Zone-Cache on matched
        NAND — what `serve --smoke` used to run), twice: same rows,
        still exercising routing, QoS and shedding."""
        cell = FleetCell(
            shards=("Region-Cache", "Zone-Cache"),
            zones=12,
            cache_zones=9,
            offered_kops=120.0,
            requests_per_tenant=1_000,
            num_keys=1_500,
            max_queue_depth=24,
        )
        report_a = build_fleet(cell).run()
        report_b = build_fleet(cell).run()
        assert report_a.tenant_rows == report_b.tenant_rows
        assert report_a.shard_rows == report_b.shard_rows
        assert [row["tenant"] for row in report_a.tenant_rows] == ["web", "batch"]
        assert report_a.shed_rate > 0
        shard_schemes = [row["scheme"] for row in report_a.shard_rows]
        assert shard_schemes == ["Region-Cache", "Zone-Cache"]

    def test_sweep_golden(self, sweep_rows):
        # The registry's smoke grid: loads 40k and 360k, 700 requests.
        rows_a = sweep_rows("serve")
        rows_b = run_sweep("serve", "smoke")
        assert rows_a == rows_b
        schemes = {row["scheme"] for row in rows_a}
        assert schemes == {
            "Region-Cache", "Zone-Cache", "File-Cache", "Block-Cache"
        }
        for scheme in schemes:
            past_knee = [
                row
                for row in rows_a
                if row["scheme"] == scheme and row["offered_total_kops"] == 360.0
            ]
            assert len(past_knee) == 1
            row = past_knee[0]
            # Past the knee: shedding engages, p99 stays bounded.
            assert row["web_shed_rate"] > 0.0, scheme
            assert row["web_p99_us"] < 100_000, scheme
            assert math.isfinite(row["web_goodput_kops"])

    def test_serving_scale_reaches_device(self):
        # The reduced serving scale must be small enough that Zone-Cache
        # actually flushes regions (at full scale its 4 MiB region buffer
        # would absorb a whole smoke run in RAM).
        scale = SERVING_SCALE
        assert scale.zone_size <= 512 * KIB
