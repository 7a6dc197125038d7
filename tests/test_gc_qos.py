"""The GC↔QoS loop: adaptive reclaim pacing + GC-aware shard routing.

Covers both halves of the loop and the accounting fixes that ride with
it:

* the AIMD controller relaxes/clamps the runtime pace inside its
  floor/ceiling band and windows its stall signal;
* ``nodes_for``/``route_for``: reads are ring-faithful, write reroutes
  are bounded to ``MAX_REROUTE_DISTANCE`` successors, the static policy is
  bit-identical to a cluster built with no routing config at all;
* the serving goodput window covers the last *arrival*, not just the
  last completion, so a fully-shed tail cannot inflate goodput;
* the `repro gc-qos --smoke` grid is deterministic and actually drives
  GC, rerouting, and the controller.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ConfigError
from repro.reclaim import PacerConfig, ReclaimPacer
from repro.reclaim.pacer import (
    ADAPTIVE_DECREASE_FACTOR,
    ADAPTIVE_INCREASE_UNITS,
    ADAPTIVE_INTERVAL_STEPS,
    ADAPTIVE_MAX_SCALE,
)
from repro.serve import (
    PRESSURE_RANK,
    CacheCluster,
    ConsistentHashRing,
    RoutingConfig,
    Server,
    ServerConfig,
    TenantConfig,
)
from repro.serve.cluster import MAX_REROUTE_DISTANCE
from repro.units import KIB, SEC
from repro.workloads.cachebench import CacheBenchConfig


# --------------------------------------------------------------------------
# AIMD controller
# --------------------------------------------------------------------------

SLO_NS = 1000
INTERVAL = ADAPTIVE_INTERVAL_STEPS


def _adaptive_pacer(config):
    pacer = ReclaimPacer(config)
    pacer.enable_adaptive(SLO_NS)
    return pacer


class TestAdaptivePacing:
    def test_static_without_controller(self):
        pacer = ReclaimPacer(PacerConfig(pace_units=8))
        for _ in range(100):
            pacer.observe_step()
        assert pacer.pace_units == 8
        assert pacer.pace_adjustments == 0

    def test_relax_under_budget(self):
        pacer = _adaptive_pacer(PacerConfig(pace_units=8))
        for _ in range(INTERVAL):
            pacer.stall.record(10)  # well under the 1000ns budget
            pacer.observe_step()
        assert pacer.pace_units == 8 + ADAPTIVE_INCREASE_UNITS
        assert pacer.pace_adjustments == 1
        assert pacer.pace_clamps == 0

    def test_relax_bounded_by_ceiling(self):
        pacer = _adaptive_pacer(PacerConfig(pace_units=8))
        for _ in range(100 * INTERVAL):
            pacer.observe_step()  # empty window counts as under budget
        assert pacer.pace_units == 8 * ADAPTIVE_MAX_SCALE

    def test_clamp_over_budget_with_floor(self):
        pacer = _adaptive_pacer(PacerConfig(pace_units=8))
        for _ in range(25 * INTERVAL):
            pacer.stall.record(1_000_000)
            pacer.observe_step()
        assert pacer.pace_units == 8 // ADAPTIVE_MAX_SCALE
        assert pacer.pace_clamps > 0

    def test_stall_window_resets_each_interval(self):
        pacer = _adaptive_pacer(PacerConfig(pace_units=8))
        for _ in range(INTERVAL):
            pacer.stall.record(1_000_000)
            pacer.observe_step()
        clamped = int(8 * ADAPTIVE_DECREASE_FACTOR)
        assert pacer.pace_units == clamped  # clamped once
        assert pacer.stall.count == 0  # window reset: old spikes forgotten
        for _ in range(INTERVAL):
            pacer.stall.record(10)
            pacer.observe_step()
        # Relaxes again on the fresh window.
        assert pacer.pace_units == clamped + ADAPTIVE_INCREASE_UNITS

    def test_enable_adaptive_at_runtime(self):
        pacer = ReclaimPacer(PacerConfig(pace_units=8))
        with pytest.raises(ConfigError):
            pacer.enable_adaptive(0)
        pacer.enable_adaptive(SLO_NS)
        for _ in range(INTERVAL):
            pacer.observe_step()
        assert pacer.pace_adjustments == 1

    def test_stack_wiring(self):
        from repro.bench.schemes import SchemeScale, build_scheme
        from repro.sim.clock import SimClock

        scale = SchemeScale(zone_size=256 * KIB, region_size=16 * KIB,
                            pages_per_block=16, ram_bytes=32 * KIB)
        media = 8 * scale.zone_size
        region = build_scheme("Region-Cache", SimClock(), scale, media,
                              6 * scale.zone_size)
        zone = build_scheme("Zone-Cache", SimClock(), scale, media, None)
        assert region.enable_adaptive_pacing(SLO_NS)
        _, engine = region.reclaim_engine()
        assert engine.pacer.stall_slo_ns == SLO_NS
        assert not zone.enable_adaptive_pacing(SLO_NS)
        assert zone.reclaim_pressure()["level"] == "idle"


# --------------------------------------------------------------------------
# Ring successors + GC-aware routing
# --------------------------------------------------------------------------

def _zone_cluster(num_shards=3, routing=None):
    from repro.bench.schemes import SchemeScale

    scale = SchemeScale(zone_size=256 * KIB, region_size=16 * KIB,
                        pages_per_block=16, ram_bytes=32 * KIB)
    return CacheCluster.homogeneous(
        "Zone-Cache",
        num_shards,
        8 * scale.zone_size,
        None,
        scale=scale,
        cache_overrides=(("eviction_policy", "fifo"),),
        routing=routing,
    )


class TestRingSuccessors:
    def test_first_successor_is_the_owner(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        for i in range(200):
            key = f"key-{i}".encode()
            assert ring.nodes_for(key, 1) == [ring.node_for(key)]

    def test_successors_distinct_and_capped(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        nodes = ring.nodes_for(b"k", 10)  # more than the ring has
        assert sorted(nodes) == ["a", "b", "c"]

    def test_count_validated(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ConfigError):
            ring.nodes_for(b"k", 0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(key=st.binary(min_size=1, max_size=32), count=st.integers(1, 6))
def test_prop_successor_walk(key, count):
    ring = ConsistentHashRing(["a", "b", "c", "d", "e"])
    nodes = ring.nodes_for(key, count)
    assert len(nodes) == min(count, 5)
    assert len(set(nodes)) == len(nodes)
    assert nodes[0] == ring.node_for(key)


class TestGcAwareRouting:
    def test_routing_config_validated(self):
        with pytest.raises(ConfigError):
            RoutingConfig(policy="chaotic")

    def test_static_policy_never_reroutes(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="static"))
        for i in range(100):
            key = f"k{i}".encode()
            shard, home = cluster.route_for(key, is_write=True)
            assert home is None
            assert shard is cluster.shard_for(key)

    def test_reads_always_follow_the_ring(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        cluster.shards[0].pressure_rank = lambda: PRESSURE_RANK["emergency"]
        for i in range(100):
            key = f"k{i}".encode()
            shard, home = cluster.route_for(key, is_write=False)
            assert home is None
            assert shard is cluster.shard_for(key)

    def test_write_reroutes_within_bounded_distance(self):
        distance = MAX_REROUTE_DISTANCE
        cluster = _zone_cluster(
            num_shards=4, routing=RoutingConfig(policy="gc_aware")
        )
        pressured = cluster.shards[0]
        pressured.pressure_rank = lambda: PRESSURE_RANK["urgent"]
        rerouted = 0
        for i in range(300):
            key = f"k{i}".encode()
            home = cluster.shard_for(key)
            shard, from_shard = cluster.route_for(key, is_write=True)
            if from_shard is None:
                assert shard is home
                continue
            rerouted += 1
            assert from_shard is pressured
            successors = cluster.ring.nodes_for(key, 1 + distance)
            assert shard.name in successors[1:]
            assert shard.pressure_rank() < PRESSURE_RANK["urgent"]
        assert rerouted > 0
        assert pressured.rerouted_out == rerouted

    def test_no_escape_when_everyone_is_pressured(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        for shard in cluster.shards:
            shard.pressure_rank = lambda: PRESSURE_RANK["emergency"]
        for i in range(50):
            key = f"k{i}".encode()
            shard, home = cluster.route_for(key, is_write=True)
            assert home is None  # equal pressure everywhere: stay home
            assert shard is cluster.shard_for(key)

    def test_default_routing_is_static(self):
        assert _zone_cluster().routing.policy == "static"


# --------------------------------------------------------------------------
# Serving integration: reroute events + goodput window fix
# --------------------------------------------------------------------------

def _tenant(name, rate, num_ops, seed=3, **overrides):
    workload = CacheBenchConfig(
        num_ops=num_ops, num_keys=200, get_ratio=0.2, set_ratio=0.8,
        delete_ratio=0.0, seed=seed,
    )
    return TenantConfig(name, rate_ops_per_sec=rate, workload=workload,
                        slo_p99_ms=5.0, seed=seed + 7, **overrides)


class TestServingIntegration:
    def test_reroute_emits_trace_and_tenant_accounting(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        for shard in cluster.shards:
            shard.stack.cache.store.tracer.enable()
        cluster.shards[0].pressure_rank = lambda: PRESSURE_RANK["emergency"]
        report = Server(
            cluster, [_tenant("w", 50_000.0, 400)], ServerConfig()
        ).run()
        total_rerouted = sum(r["rerouted_out"] for r in report.shard_rows)
        assert total_rerouted > 0
        assert report.tenant_rows[0]["rerouted"] == total_rerouted
        assert sum(r["rerouted_in"] for r in report.shard_rows) == total_rerouted
        route_events = [
            rec
            for shard in cluster.shards
            for rec in shard.stack.cache.store.tracer.records
            if rec.layer == "serve.route" and rec.op == "reroute"
        ]
        assert len(route_events) == total_rerouted

    def test_static_cluster_matches_no_routing_config(self):
        # Features off must be bit-identical: a cluster built with an
        # explicit static RoutingConfig and one built with none at all
        # produce the same report.
        reports = []
        for routing in (None, RoutingConfig(policy="static")):
            cluster = _zone_cluster(routing=routing)
            reports.append(
                Server(cluster, [_tenant("w", 50_000.0, 400)], ServerConfig()).run()
            )
        assert reports[0].tenant_rows == reports[1].tenant_rows
        assert reports[0].shard_rows == reports[1].shard_rows
        assert reports[0].sim_seconds == reports[1].sim_seconds

    def test_goodput_window_covers_shed_tail(self):
        # Regression: with the tail fully shed by rate limiting, the last
        # *arrival* is far past the last completion; goodput normalized
        # by completions alone was inflated by the missing window.
        cluster = _zone_cluster(num_shards=1)
        tenant = _tenant(
            "starved", 100_000.0, 2_000,
            rate_limit_ops_per_sec=100.0, rate_limit_burst=1.0,
        )
        server = Server(cluster, [tenant], ServerConfig())
        report = server.run()
        row = report.tenant_rows[0]
        assert row["shed_rate_limited"] > row["completed"]
        assert server._last_arrival_ns > server._end_ns
        assert report.sim_seconds == server._last_arrival_ns / SEC
        goodput_ops = row["goodput_kops"] * 1000
        # The admitted rate is bucket-bounded (burst + rate * window); an
        # honest window respects that bound, the old
        # completions-only window inflated past it.
        span_s = server._last_arrival_ns / SEC
        assert goodput_ops <= (1.0 + 100.0 * span_s) / span_s + 1e-6
        buggy_window = server.tenants[0].slo.within_slo / (server._end_ns / SEC)
        assert goodput_ops < buggy_window


# --------------------------------------------------------------------------
# The gc-qos grid: deterministic, and the loop actually closes
# --------------------------------------------------------------------------

class TestGcQosSmoke:
    @pytest.fixture(scope="class")
    def smoke_rows(self, sweep_rows):
        return sweep_rows("gc-qos")

    def test_grid_shape(self, smoke_rows):
        combos = {(r["pacing"], r["routing"]) for r in smoke_rows}
        assert combos == {
            ("static", "static"), ("static", "gc_aware"),
            ("adaptive", "static"), ("adaptive", "gc_aware"),
        }

    def test_loop_is_driven(self, smoke_rows):
        assert all(r["gc_victims"] > 0 for r in smoke_rows)
        for row in smoke_rows:
            if row["routing"] == "gc_aware":
                assert row["rerouted_writes"] > 0
            else:
                assert row["rerouted_writes"] == 0
            if row["pacing"] == "adaptive":
                assert row["gc_pace_adjustments"] > 0
            else:
                assert row["gc_pace_adjustments"] == 0

    def test_deterministic(self, smoke_rows):
        from repro.bench.experiments import run_sweep

        assert run_sweep("gc-qos", "smoke") == smoke_rows
