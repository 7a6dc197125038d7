"""Serving-loop invariance tests.

The single serving loop (pre-generated arrival/op streams + run-list
scheduler) must produce the rows it always has, and observing a run
must never change it:

* the run-list scheduler dequeues in exactly the ``(time, seq)`` order a
  reference ``heapq`` produces, across arbitrary push/pop interleavings
  (hypothesis property);
* the bulk stream draws (``ArrivalProcess.pregenerate``,
  ``CacheBenchDriver.next_ops``) equal the scalar recurrences they
  replace, draw for draw;
* the two serving smoke fleets reproduce the rows pinned from the last
  commit that still had separate fast/legacy/replicated loops
  (``golden_serving_rows.json``), and their traced record sequences
  hash to the digests pinned from that commit;
* every captured record equals the parent commit's over all 13 fields
  — ids, parent links, timestamps and channels, not only names — for
  those two fleets and for two closed-loop runs that reach GC, so the
  record class or a device's emit site can change but never the stream;
* enabling tracing changes no measured value — for the plain fleet, an
  R=2 fleet with a shard kill, and a fleet with a namespace bump;
* a request's key is bound when it arrives, so a bump can never make a
  shard apply a key the ring did not route to it;
* best-score gc_aware routing picks the least-stalled / most-headroom
  successor and resolves exact ties to the nearest ring successor.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.experiments import sweep_cells
from repro.bench.fleet import SERVING_SCALE, FleetCell, build_fleet, tenant_mix
from repro.bench.schemes import SchemeScale, build_scheme
from repro.cache.lifecycle import LifecycleConfig
from repro.serve import (
    CacheCluster,
    InvalidationPlan,
    RoutingConfig,
    Server,
    ServerConfig,
    ShardSpec,
    TenantConfig,
    TenantInvalidate,
)
from repro.serve.cluster import MAX_REROUTE_DISTANCE, PRESSURE_RANK
from repro.serve.tenant import Tenant
from repro.sim import FaultInjector, FaultKind, FaultRule
from repro.sim.clock import SimClock
from repro.sim.sched import EventScheduler
from repro.units import KIB, MSEC
from repro.workloads.cachebench import (
    KIND_NAMES,
    CacheBenchConfig,
    CacheBenchDriver,
)
from tests.helpers import full_field_digest


# --- scheduler order property ---------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 1), st.integers(0, 7)),
        max_size=60,
    ),
    plan=st.lists(st.booleans(), max_size=140),
)
def test_scheduler_matches_heapq_order(events, plan):
    """Any interleaving of pushes and pops dequeues in heapq order."""
    sched = EventScheduler()
    heap = []
    seq = 0
    pending = list(events)
    # plan: True → pop one event (if any), False → push the next event
    # (if any); then drain.  Equal times exercise the seq tie-break.
    for do_pop in plan:
        if do_pop:
            if heap:
                assert sched.pop() == heapq.heappop(heap)
        elif pending:
            time_ns, kind, index = pending.pop(0)
            sched.push(time_ns, kind, index)
            seq += 1
            heapq.heappush(heap, (time_ns, seq, kind, index))
    while heap:
        assert sched.pop() == heapq.heappop(heap)
    assert len(sched) == 0
    assert not sched


def test_scheduler_equal_times_dequeue_in_push_order():
    sched = EventScheduler()
    for index in range(8):
        sched.push(100, 0, index)
    assert [sched.pop()[3] for _ in range(8)] == list(range(8))


# --- bulk stream draws vs the scalar recurrences --------------------------------


@pytest.mark.parametrize(
    "arrival", ["poisson", "diurnal", "burst", "flash_crowd", "storm"]
)
def test_pregenerate_equals_chained_next_arrival(arrival):
    """Every run serves from ``pregenerate``; ``next_arrival_ns`` is the
    reference recurrence it must reproduce draw for draw."""
    config = TenantConfig("t", rate_ops_per_sec=40_000.0, arrival=arrival, seed=9)
    bulk = Tenant(config).arrivals.pregenerate(700)
    scalar_process = Tenant(config).arrivals
    chained, now_ns = [], 0
    for _ in range(700):
        now_ns = scalar_process.next_arrival_ns(now_ns)
        chained.append(now_ns)
    assert bulk == chained


@pytest.mark.parametrize("with_deletes", [True, False])
def test_next_ops_equals_scalar_next_op(with_deletes):
    # Without deletes the batch takes next_ops' all-Zipf early return.
    mix = {} if with_deletes else dict(get_ratio=0.6, set_ratio=0.4, delete_ratio=0.0)
    config = CacheBenchConfig(num_ops=600, num_keys=400, seed=13, **mix)
    kinds, key_indices = CacheBenchDriver(config).next_ops(600)
    scalar = CacheBenchDriver(config)
    ops = [scalar.next_op() for _ in range(600)]
    assert [KIND_NAMES[kind] for kind in kinds] == [op.kind for op in ops]
    assert list(key_indices) == [op.key_index for op in ops]


# --- the one loop vs the parent commit's three, traced vs untraced --------------

GOLDEN_ROWS = json.loads(
    (Path(__file__).parent / "golden_serving_rows.json").read_text()
)
# sha256 over "shard:layer:op:offset\n" of every captured trace record,
# shards in index order; taken at the same commit as GOLDEN_ROWS.
PARENT_TRACE_DIGESTS = {
    "serving": (
        2818,
        "a50d8ea553c103f6694386dd2ebd1ce0a656970e3748761ea886d8d1bab1d615",
    ),
    "failover": (
        10015,
        "e8859e809c8e41eb67b709f33b9871d25fdc11e1caf66f6a9db7ed07c1def98a",
    ),
}
# sha256 over every field of every captured record, one record per line,
# taken on the last commit whose TraceRecord was a frozen dataclass built
# from a separate span object (and whose traced ZnsSsd.read went through
# IoRequest/submit).  The closed-loop runs add what the fleets lack:
# zns/nullblk completions, background GC reads, ztl.gc / f2fs.gc /
# reclaim.* spans and injected-fault events.
PARENT_FULL_FIELD_DIGESTS = {
    "serving": (
        2818,
        "25aa08c58b20be2c2c844717cdd5c0992bd794cbae94242c009fa94f59582dd4",
    ),
    "failover": (
        10015,
        "08bc33f57014004c510667ab8a72d570cb127d40d4fe932fa8e2ceb4cd576df3",
    ),
    "closed_region": (
        13455,
        "8ac7b407b674e7d52ee1e94bedc67ea33f113faf80c288f9e239f31cd7c40c8c",
    ),
    "closed_file_faulty": (
        15519,
        "02db0b7e7884032e525e29fe899c8fab6479b0997b3e95cdfa727e0bb5d5b8dd",
    ),
}


def _enable_tracing(cluster: CacheCluster) -> None:
    for shard in cluster.shards:
        shard.stack.cache.store.tracer.enable()


def _smoke_server(trace: bool = False, schemes: tuple = None) -> Server:
    """The mixed Region+Zone fleet `repro serve --smoke` used to run (or
    a homogeneous ``schemes`` fleet under the same load), optionally
    traced — pinned here, provisioned by hand on purpose."""
    scale = SERVING_SCALE
    media = 12 * scale.zone_size
    if schemes is None:
        specs = [
            ShardSpec(
                "Region-Cache",
                media_bytes=media,
                cache_bytes=9 * scale.zone_size,
                cache_overrides=(
                    ("eviction_policy", "fifo"), ("reclaim_window", 32)
                ),
            ),
            ShardSpec(
                "Zone-Cache",
                media_bytes=media,
                cache_overrides=(("eviction_policy", "fifo"),),
            ),
        ]
    else:
        specs = [
            ShardSpec(
                scheme,
                media_bytes=media,
                cache_bytes=9 * scale.zone_size,
                cache_overrides=(("eviction_policy", "fifo"),),
            )
            for scheme in schemes
        ]
    cluster = CacheCluster(specs, scale=scale)
    if trace:
        _enable_tracing(cluster)
    tenants = tenant_mix(
        FleetCell(
            shards=tuple(spec.scheme for spec in specs),
            offered_kops=120.0,
            requests_per_tenant=1_000,
            num_keys=1_500,
        )
    )
    return Server(cluster, tenants, ServerConfig(max_queue_depth=24))


def _failover_smoke_server(trace: bool = False) -> Server:
    """The R=2 cell of the failover smoke, built by the sweep's own
    builder, optionally traced."""
    (cell,) = [
        cell for _, cell in sweep_cells("failover", "smoke") if cell.replicas == 2
    ]
    return build_fleet(replace(cell, trace=trace))


def _bump_server(trace: bool = False, rate: float = 50_000.0) -> Server:
    """Two versioned-key shards, one namespace bump mid-run (R=1, static)."""
    scale = SchemeScale(
        zone_size=256 * KIB,
        region_size=16 * KIB,
        pages_per_block=16,
        ram_bytes=32 * KIB,
    )
    lifecycle = LifecycleConfig(
        versioning=True, dead_first_eviction=True, gc_hints=True
    )
    cluster = CacheCluster.homogeneous(
        "Region-Cache",
        2,
        8 * scale.zone_size,
        6 * scale.zone_size,
        scale=scale,
        cache_overrides=(("eviction_policy", "fifo"), ("lifecycle", lifecycle)),
    )
    if trace:
        _enable_tracing(cluster)
    tenant = TenantConfig(
        "web",
        rate_ops_per_sec=rate,
        versioned_keys=True,
        workload=CacheBenchConfig(
            num_ops=800, num_keys=300, set_on_miss=True, seed=5
        ),
        seed=21,
    )
    return Server(
        cluster,
        [tenant],
        ServerConfig(48),
        invalidations=InvalidationPlan((TenantInvalidate(3 * MSEC, "web"),)),
    )


def _report_rows(server: Server) -> dict:
    report = server.run()
    return {
        "tenant_rows": report.tenant_rows,
        "shard_rows": report.shard_rows,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "fleet_row": report.fleet_row,
        "inval_row": report.inval_row,
    }


def _trace_digest(server: Server):
    server.run()
    digest = hashlib.sha256()
    count = 0
    for shard in server.cluster.shards:
        for record in shard.stack.cache.store.tracer.records:
            digest.update(
                f"{shard.index}:{record.layer}:{record.op}:{record.offset}\n".encode()
            )
            count += 1
    return count, digest.hexdigest()


def _closed_loop_tracer(scheme: str, faults: FaultInjector = None):
    """6,000 mixed ops on one traced stack: enough churn to evict, and
    to run ZTL GC (Region-Cache) or the F2FS cleaner (File-Cache)."""
    scale = SchemeScale(
        zone_size=256 * KIB,
        region_size=16 * KIB,
        pages_per_block=16,
        ram_bytes=32 * KIB,
    )
    zones = 12 if scheme == "Region-Cache" else 16
    stack = build_scheme(
        scheme,
        SimClock(),
        scale,
        zones * scale.zone_size,
        9 * scale.zone_size,
        faults=faults,
    )
    tracer = stack.cache.store.tracer.enable()
    rng = random.Random(5)
    for i in range(6000):
        key = f"key{rng.randrange(900):04d}".encode()
        if rng.random() < 0.5:
            stack.cache.set(key, f"v{i}".encode() * rng.randrange(50, 400))
        else:
            stack.cache.get(key)
    return tracer


def _fleet_tracers(build):
    server = build(trace=True)
    server.run()
    return [shard.stack.cache.store.tracer for shard in server.cluster.shards]


def _faulty_file_cache_tracer():
    rules = (
        FaultRule(
            FaultKind.MEDIA_ERROR, probability=0.02, op="read", after_requests=20
        ),
        FaultRule(FaultKind.LATENCY, probability=0.02, extra_latency_ns=200_000),
    )
    return [_closed_loop_tracer("File-Cache", FaultInjector(seed=11, rules=rules))]


@pytest.mark.parametrize(
    "name, tracers",
    [
        ("serving", lambda: _fleet_tracers(_smoke_server)),
        ("failover", lambda: _fleet_tracers(_failover_smoke_server)),
        ("closed_region", lambda: [_closed_loop_tracer("Region-Cache")]),
        ("closed_file_faulty", _faulty_file_cache_tracer),
    ],
)
def test_every_record_field_equals_parent_digest(name, tracers):
    """The stream is the parent's byte for byte — ids, parents, all five
    timestamps/durations, channel — whatever builds the records."""
    assert full_field_digest(tracers()) == PARENT_FULL_FIELD_DIGESTS[name]


@pytest.mark.parametrize(
    "fleet, schemes",
    [("mixed_fleet", None), ("z_cache_fleet", ("Z-Cache", "Z-Cache"))],
)
def test_smoke_fleet_rows_equal_rows_pinned_from_parent(fleet, schemes):
    """What ``fast loop == legacy loop`` used to check against a live
    reference: the same fleets now reproduce that commit's rows."""
    rows = _report_rows(_smoke_server(schemes=schemes))
    for column, pinned in GOLDEN_ROWS[fleet].items():
        assert rows[column] == pinned, column


@pytest.mark.parametrize(
    "build", [_smoke_server, _failover_smoke_server, _bump_server]
)
def test_traced_run_rows_equal_untraced_rows(build):
    """Tracing must observe, never perturb: same rows with spans on —
    with replication and a kill armed, and with a bump armed, too."""
    traced = build(trace=True)
    traced_rows = _report_rows(traced)
    tracer = traced.cluster.shards[0].stack.cache.store.tracer
    assert tracer.find("serve")  # spans were actually recorded
    assert traced_rows == _report_rows(build())


@pytest.mark.parametrize(
    "name, build",
    [("serving", _smoke_server), ("failover", _failover_smoke_server)],
)
def test_traced_record_sequence_equals_parent_digest(name, build):
    """Span/event order and content are exactly what the legacy and
    replicated loops emitted."""
    assert _trace_digest(build(trace=True)) == PARENT_TRACE_DIGESTS[name]


def test_key_is_bound_at_arrival_across_a_bump():
    """A request queued under generation g stays a generation-g key when
    a bump lands before it is served: whatever a shard's index holds,
    the ring routed to that shard."""
    server = _bump_server(rate=400_000.0)  # overload: queues never drain
    crossing = []
    on_invalidate = server._on_invalidate

    def counting_invalidate(now_ns, bump_index):
        crossing.append(sum(len(s.queue) for s in server.cluster.shards))
        on_invalidate(now_ns, bump_index)

    server._on_invalidate = counting_invalidate
    server.run()
    assert crossing and crossing[0] > 0  # the bump crossed queued requests
    cluster = server.cluster
    for shard in cluster.shards:
        keys = list(shard.stack.cache.index.keys())
        assert keys
        for key in keys:
            assert cluster.shard_for(key) is shard, (shard.index, key)


# --- best-score gc_aware routing ------------------------------------------------


def _zone_cluster(num_shards=4, routing=None):
    scale = SchemeScale(
        zone_size=256 * KIB,
        region_size=16 * KIB,
        pages_per_block=16,
        ram_bytes=32 * KIB,
    )
    return CacheCluster.homogeneous(
        "Zone-Cache",
        num_shards,
        8 * scale.zone_size,
        None,
        scale=scale,
        cache_overrides=(("eviction_policy", "fifo"),),
        routing=routing,
    )


def _fake_pressure(shard, level, stall_us, free_units):
    shard.pressure_rank = lambda: PRESSURE_RANK[level]
    shard.pressure = lambda: {
        "layer": "fake",
        "level": level,
        "free_units": free_units,
        "gc_stall_us_p99": stall_us,
    }


class TestBestScoreRouting:
    def test_picks_best_score_not_first_lower_rank(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        key = b"score-key"
        home = cluster.shard_for(key)
        successors = cluster.successors_for(key)
        assert len(successors) == MAX_REROUTE_DISTANCE == 2
        _fake_pressure(home, "emergency", 500.0, 0)
        # Nearest successor is eligible but heavily stalled; the second
        # is equally ranked with less stall — old first-lower-rank
        # routing would stop at successors[0].
        _fake_pressure(successors[0], "background", 400.0, 5)
        _fake_pressure(successors[1], "background", 10.0, 5)
        shard, rerouted_from = cluster.route_from_home(key, home)
        assert rerouted_from is home
        assert shard is successors[1]

    def test_lower_rank_beats_better_stall_score(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        key = b"rank-first"
        home = cluster.shard_for(key)
        successors = cluster.successors_for(key)
        _fake_pressure(home, "emergency", 500.0, 0)
        # idle rank wins over background rank regardless of the
        # stall/headroom components: rank is the primary score term.
        _fake_pressure(successors[0], "background", 0.0, 1000)
        _fake_pressure(successors[1], "idle", 300.0, 0)
        shard, _ = cluster.route_from_home(key, home)
        assert shard is successors[1]

    def test_exact_ties_resolve_to_nearest_successor(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        key = b"tie-key"
        home = cluster.shard_for(key)
        successors = cluster.successors_for(key)
        _fake_pressure(home, "urgent", 100.0, 1)
        for successor in successors:
            _fake_pressure(successor, "idle", 25.0, 8)
        shard, rerouted_from = cluster.route_from_home(key, home)
        assert rerouted_from is home
        assert shard is successors[0]

    def test_headroom_breaks_equal_stall(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        key = b"headroom"
        home = cluster.shard_for(key)
        successors = cluster.successors_for(key)
        _fake_pressure(home, "emergency", 0.0, 0)
        _fake_pressure(successors[0], "idle", 25.0, 2)
        _fake_pressure(successors[1], "idle", 25.0, 40)
        shard, _ = cluster.route_from_home(key, home)
        assert shard is successors[1]

    def test_stays_home_when_everyone_is_as_pressured(self):
        cluster = _zone_cluster(routing=RoutingConfig(policy="gc_aware"))
        key = b"no-escape"
        home = cluster.shard_for(key)
        for shard in cluster.shards:
            _fake_pressure(shard, "emergency", 10.0, 0)
        routed, rerouted_from = cluster.route_from_home(key, home)
        assert routed is home
        assert rerouted_from is None
