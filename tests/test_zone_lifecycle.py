"""Zone-lifecycle property harness + zone-management cost model tests.

Covers the PR's tentpole surface end to end:

* hypothesis properties over arbitrary open/append/close/finish/reset
  interleavings: the open/active budgets are never exceeded, appends
  only ever land on open zones, and illegal transitions raise *typed*
  errors (mirrors ``test_prop_flash.py``);
* the :class:`~repro.flash.zone.ZoneCostConfig` cost model: zero-cost
  defaults add no pipeline traffic (goldens stay bit-identical), the
  measured preset charges every command through the pipeline, and the
  ``zns_*`` bench columns reconcile exactly with the tracer's
  OPEN/CLOSE/FINISH/RESET span attribution;
* the ``max_open_zones`` contention model: forced closes evict the
  least-recently-written open zone and are themselves charged/traced;
* Z-Cache determinism: the seeded TinyLFU sketch routes the same key
  stream to the same zone groups on every run, closed-loop and serving
  rows survive a double-run CSV diff, and the gc-qos golden rows are
  byte-identical to the pre-cost-model baseline when every cost is 0.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.fleet import build_fleet, zone_mgmt_columns
from repro.bench.reporting import rows_to_csv
from repro.bench.schemes import SchemeScale, build_scheme
from repro.errors import ZoneResourceError, ZoneStateError
from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
from repro.flash.zone import (
    ACTIVE_STATES,
    OPEN_STATES,
    ZoneCostConfig,
    ZoneState,
)
from repro.sim import SimClock
from repro.sim.io import IoTracer
from repro.units import KIB
from repro.workloads.cachebench import CacheBenchConfig, CacheBenchDriver

PAGE = 4 * KIB

SMALL_GEO = NandGeometry(page_size=PAGE, pages_per_block=8, num_blocks=32)


def make_zns(
    costs: ZoneCostConfig = ZoneCostConfig(),
    max_open: int = 3,
    max_active: int = 5,
    tracer=None,
) -> ZnsSsd:
    return ZnsSsd(
        SimClock(),
        ZnsConfig(
            geometry=SMALL_GEO,
            zone_size=4 * SMALL_GEO.block_size,
            max_open_zones=max_open,
            max_active_zones=max_active,
            zone_costs=costs,
        ),
        tracer=tracer,
    )


LIFECYCLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["open", "append", "close", "finish", "reset"]),
        st.integers(0, 7),
    ),
    max_size=150,
)


# --- property harness -------------------------------------------------------------


class TestLifecycleProperties:
    """Arbitrary command interleavings against the zone state machine."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(ops=LIFECYCLE_OPS, forced=st.booleans())
    def test_budgets_and_states_hold_under_any_interleaving(self, ops, forced):
        zns = make_zns(ZoneCostConfig(forced_close=forced))
        payload = b"\xa5" * PAGE
        for op, zone_idx in ops:
            zone_idx %= zns.num_zones
            try:
                if op == "open":
                    zns.open_zone(zone_idx)
                elif op == "append":
                    zns.append(zone_idx, payload)
                elif op == "close":
                    zns.close_zone(zone_idx)
                elif op == "finish":
                    zns.finish_zone(zone_idx)
                else:
                    zns.reset_zone(zone_idx)
            except (ZoneStateError, ZoneResourceError):
                # The typed rejections the lifecycle is allowed to issue;
                # anything else escaping here fails the property.
                pass
            assert zns.open_zone_count <= zns.config.max_open_zones
            assert zns.active_zone_count <= zns.config.max_active_zones
            # is_active and the ACTIVE_STATES tuple must agree.
            assert zns.active_zone_count == sum(
                zone.state in ACTIVE_STATES for zone in zns.zones
            )
            for zone in zns.zones:
                assert zone.start <= zone.write_pointer <= zone.end
                assert zone.state in {
                    ZoneState.EMPTY,
                    ZoneState.IMPLICIT_OPEN,
                    ZoneState.EXPLICIT_OPEN,
                    ZoneState.CLOSED,
                    ZoneState.FULL,
                }
        # Host does all cleaning: WA stays exactly 1 whatever we issued.
        assert zns.stats.media_write_bytes == zns.stats.host_write_bytes

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(ops=LIFECYCLE_OPS)
    def test_appends_only_land_on_open_zones(self, ops):
        zns = make_zns()
        payload = b"\x5a" * PAGE
        for op, zone_idx in ops:
            zone_idx %= zns.num_zones
            zone = zns.zones[zone_idx]
            if op == "append":
                was_appendable = (
                    zone.state in OPEN_STATES
                    or zone.state in (ZoneState.EMPTY, ZoneState.CLOSED)
                )
                try:
                    zns.append(zone_idx, payload)
                except ZoneResourceError:
                    continue
                except ZoneStateError:
                    # Appending must only be refused when the zone was
                    # not (and could not become) open.
                    assert not was_appendable
                    continue
                # A successful append implies the zone passed through an
                # open state; it is still open unless this append filled it.
                assert zone.state in OPEN_STATES or zone.state == ZoneState.FULL
            else:
                try:
                    if op == "open":
                        zns.open_zone(zone_idx)
                    elif op == "close":
                        zns.close_zone(zone_idx)
                    elif op == "finish":
                        zns.finish_zone(zone_idx)
                    else:
                        zns.reset_zone(zone_idx)
                except (ZoneStateError, ZoneResourceError):
                    pass

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(targets=st.lists(st.integers(0, 7), max_size=80))
    def test_forced_close_keeps_open_budget_without_refusing_writes(self, targets):
        """With the contention model on, implicit opens never see
        ZoneResourceError for the *open* cap — the device pays a forced
        close instead — and the cap holds after every command."""
        zns = make_zns(
            ZoneCostConfig(forced_close=True), max_open=2, max_active=8
        )
        payload = b"\x11" * PAGE
        for zone_idx in targets:
            zone_idx %= zns.num_zones
            try:
                zns.append(zone_idx, payload)
            except ZoneStateError:
                continue  # zone already FULL
            assert zns.open_zone_count <= 2
        mgmt = zns.zone_mgmt
        assert mgmt.implicit_opens >= mgmt.forced_closes
        # Forced closes are distinct from explicit ones in the counters.
        assert mgmt.closes == 0

    def test_illegal_transitions_raise_typed_errors(self):
        zns = make_zns()
        zns.append(0, b"\x22" * PAGE)
        zns.finish_zone(0)
        with pytest.raises(ZoneStateError):
            zns.append(0, b"\x22" * PAGE)  # FULL rejects appends
        with pytest.raises(ZoneStateError):
            zns.open_zone(0)  # FULL rejects opens
        with pytest.raises(ZoneStateError):
            zns.close_zone(1)  # EMPTY (never opened) rejects close
        zns.reset_zone(0)
        assert zns.zones[0].state == ZoneState.EMPTY


# --- cost model -------------------------------------------------------------------


class TestZoneCostModel:
    def test_zero_cost_implicit_open_adds_no_pipeline_traffic(self):
        """The all-zero default must be invisible to timing: an implicit
        open submits no request (goldens stay bit-identical), only the
        transition counter moves."""
        tracer = IoTracer()
        zns = make_zns(tracer=tracer)
        tracer.enable()
        zns.append(0, b"\x33" * PAGE)
        assert zns.zone_mgmt.implicit_opens == 1
        assert zns.zone_mgmt.open_ns == 0
        ops = [record.op for record in tracer.records]
        assert "open" not in ops
        assert "append" in ops

    def test_measured_costs_charge_every_command_family(self):
        costs = ZoneCostConfig.measured()
        zns = make_zns(costs)
        overhead = zns.config.timing.command_overhead_ns
        zns.open_zone(0)
        assert zns.zone_mgmt.explicit_opens == 1
        assert zns.zone_mgmt.open_ns == overhead + costs.open_ns
        zns.append(0, b"\x44" * PAGE)
        zns.close_zone(0)
        assert zns.zone_mgmt.closes == 1
        assert zns.zone_mgmt.close_ns == overhead + costs.close_ns
        zns.finish_zone(0)
        assert zns.zone_mgmt.finishes == 1
        assert zns.zone_mgmt.finish_ns == overhead + costs.finish_ns
        before = zns._clock.now
        zns.reset_zone(0)
        assert zns.zone_mgmt.resets == 1
        assert zns.zone_mgmt.reset_ns == overhead + costs.reset_ns
        # Reset is a foreground command: the clock paid for it.
        assert zns._clock.now - before >= costs.reset_ns

    def test_implicit_open_with_cost_is_charged_once(self):
        costs = ZoneCostConfig(open_ns=5_000)
        zns = make_zns(costs)
        overhead_free = zns.zone_mgmt.open_ns
        assert overhead_free == 0
        zns.append(0, b"\x55" * PAGE)
        assert zns.zone_mgmt.implicit_opens == 1
        assert zns.zone_mgmt.open_ns == costs.open_ns
        # Staying in the same open zone charges nothing further.
        zns.append(0, b"\x55" * PAGE)
        assert zns.zone_mgmt.implicit_opens == 1
        assert zns.zone_mgmt.open_ns == costs.open_ns

    def test_forced_close_evicts_least_recently_written_zone(self):
        zns = make_zns(
            ZoneCostConfig(close_ns=7_000, forced_close=True),
            max_open=2,
            max_active=8,
        )
        payload = b"\x66" * PAGE
        zns.append(0, payload)
        zns.append(1, payload)
        zns.append(0, payload)  # zone 1 is now the LRU open zone
        zns.append(2, payload)
        assert zns.zones[1].state == ZoneState.CLOSED
        assert zns.zones[0].is_open and zns.zones[2].is_open
        mgmt = zns.zone_mgmt
        assert mgmt.forced_closes == 1
        assert mgmt.closes == 0
        overhead = zns.config.timing.command_overhead_ns
        assert mgmt.close_ns == overhead + 7_000
        # The victim stays active: closing frees the open slot only.
        assert zns.zones[1].is_active

    def test_open_cap_without_forced_close_still_raises(self):
        zns = make_zns(max_open=2, max_active=8)
        zns.append(0, b"\x77" * PAGE)
        zns.append(1, b"\x77" * PAGE)
        with pytest.raises(ZoneResourceError):
            zns.append(2, b"\x77" * PAGE)

    def test_active_cap_raises_even_with_forced_close(self):
        zns = make_zns(
            ZoneCostConfig(forced_close=True), max_open=2, max_active=2
        )
        zns.append(0, b"\x88" * PAGE)
        zns.append(1, b"\x88" * PAGE)
        # A forced close keeps the victim active, so the active budget
        # still has no room — the contention model only trades open slots.
        with pytest.raises(ZoneResourceError):
            zns.append(2, b"\x88" * PAGE)

    def test_zns_columns_reconcile_with_tracer_attribution(self):
        """Acceptance: the ``zns_*`` bench columns equal the tracer's
        per-op service-time sums, command for command."""
        costs = ZoneCostConfig(
            open_ns=3_000,
            close_ns=2_000,
            finish_ns=9_000,
            reset_ns=6_000,
            forced_close=True,
        )
        tracer = IoTracer()
        zns = make_zns(costs, max_open=2, max_active=8, tracer=tracer)
        tracer.enable()
        payload = b"\x99" * PAGE
        zns.append(0, payload)  # implicit open (charged: open_ns > 0)
        zns.append(1, payload)
        zns.append(2, payload)  # forced close of zone 0
        zns.open_zone(3)  # explicit open (forced close of zone 1)
        zns.close_zone(3)  # explicit close
        zns.finish_zone(2)
        zns.reset_zone(2)
        by_op = {}
        for record in tracer.records:
            if record.layer == "zns":
                by_op[record.op] = by_op.get(record.op, 0) + record.service_ns
        mgmt = zns.zone_mgmt
        assert mgmt.open_ns == by_op["open"]
        assert mgmt.close_ns == by_op["close"]
        assert mgmt.finish_ns == by_op["finish"]
        assert mgmt.reset_ns == by_op["reset"]
        cols = zone_mgmt_columns([zns])
        assert cols["zns_open_us"] == mgmt.open_ns / 1000
        assert cols["zns_close_us"] == mgmt.close_ns / 1000
        assert cols["zns_finish_us"] == mgmt.finish_ns / 1000
        assert cols["zns_reset_us"] == mgmt.reset_ns / 1000
        assert cols["zns_forced_close"] == mgmt.forced_closes == 2
        assert mgmt.total_ns == sum(
            by_op[op] for op in ("open", "close", "finish", "reset")
        )

    def test_zone_mgmt_columns_zero_for_conventional_devices(self):
        cols = zone_mgmt_columns([object()])
        assert cols == {
            "zns_open_us": 0.0,
            "zns_close_us": 0.0,
            "zns_finish_us": 0.0,
            "zns_reset_us": 0.0,
            "zns_forced_close": 0,
        }

    def test_cost_config_validation(self):
        with pytest.raises(ValueError):
            ZoneCostConfig(open_ns=-1)
        assert not ZoneCostConfig().any_nonzero
        assert ZoneCostConfig.measured().any_nonzero


# --- explicit close --------------------------------------------------------------


class TestCloseZone:
    """``close_zone`` parks a data-holding open zone CLOSED (it stays
    active) at close cost; an open zone with nothing written reverts to
    EMPTY; only open zones close."""

    def test_close_of_empty_zone_reverts_to_empty(self):
        costs = ZoneCostConfig(close_ns=2_000)
        zns = make_zns(costs)
        overhead = zns.config.timing.command_overhead_ns
        zns.open_zone(0)
        zns.close_zone(0)
        assert zns.zones[0].state is ZoneState.EMPTY
        assert zns.zone_mgmt.closes == 1
        assert zns.zone_mgmt.close_ns == overhead + costs.close_ns
        assert zns.zone_mgmt.finishes == 0

    def test_close_of_non_open_zone_raises_typed_error(self):
        zns = make_zns()
        zns.append(0, b"\xbb" * PAGE)
        zns.finish_zone(0)  # FULL now
        with pytest.raises(ZoneStateError):
            zns.close_zone(0)
        with pytest.raises(ZoneStateError):
            zns.close_zone(1)  # EMPTY, never opened

    def test_close_with_data_parks_zone_closed(self):
        zns = make_zns(ZoneCostConfig(close_ns=2_000))
        zns.append(0, b"\xdd" * PAGE)
        zns.close_zone(0)
        assert zns.zones[0].state is ZoneState.CLOSED
        assert zns.zones[0].is_active
        assert zns.zone_mgmt.closes == 1
        assert zns.zone_mgmt.finishes == 0


# --- Z-Cache determinism ----------------------------------------------------------

ZC_SCALE = SchemeScale(
    zone_size=256 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,
    ram_bytes=32 * KIB,
)


def _z_cache_stack():
    return build_scheme(
        "Z-Cache",
        SimClock(),
        ZC_SCALE,
        12 * ZC_SCALE.zone_size,
        9 * ZC_SCALE.zone_size,
        eviction_policy="fifo",
    )


def _closed_loop_row(stack):
    driver = CacheBenchDriver(
        CacheBenchConfig(num_ops=3_000, warmup_ops=500, num_keys=600, seed=11)
    )
    result = driver.run(stack.cache)
    store = stack.cache.store
    layer = stack.substrate["layer"]
    return {
        "scheme": store.scheme_name,
        "operations": result.operations,
        "hit_ratio": result.hit_ratio,
        "waf_app": result.waf_app,
        "hot_regions": store.hot_regions,
        "cold_regions": store.cold_regions,
        "groups": tuple(
            record.group for record in layer.book.records
        ),
        "clock_ns": stack.clock.now,
    }


class TestZCacheDeterminism:
    def test_sketch_routes_same_stream_to_same_groups(self):
        """Seeded CountMinSketch: two fresh stacks fed the identical key
        stream classify every flushed region identically — same hot/cold
        counts, same per-zone lifetime groups, same clock."""
        first = _closed_loop_row(_z_cache_stack())
        second = _closed_loop_row(_z_cache_stack())
        assert first == second
        assert first["scheme"] == "Z-Cache"
        # The stream actually exercised both sides of the classifier.
        assert first["hot_regions"] > 0
        assert first["cold_regions"] > 0
        assert len(set(first["groups"])) > 1

    def test_closed_loop_double_run_csv_diff_is_empty(self):
        rows = [_closed_loop_row(_z_cache_stack())]
        rerun = [_closed_loop_row(_z_cache_stack())]
        columns = sorted(rows[0])
        assert rows_to_csv(
            [{k: str(v) for k, v in r.items()} for r in rows], columns=columns
        ) == rows_to_csv(
            [{k: str(v) for k, v in r.items()} for r in rerun], columns=columns
        )

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 40), max_size=12),
        seen=st.lists(st.integers(0, 40), max_size=80),
        threshold=st.integers(1, 3),
    )
    def test_classify_is_the_majority_vote_over_sketch_estimates(
        self, keys, seen, threshold
    ):
        """The vote stops as soon as it is decided and a key's rows stop
        at the first one under the threshold; the group and the counters
        are those of counting every key's full estimate."""
        from repro.cache.item import EntryCodec

        store = _z_cache_stack().cache.store
        store.hot_threshold = threshold
        for key in seen:
            store.sketch.add(b"key%02d" % key)
        payload = b"".join(
            EntryCodec.encode(b"key%02d" % key, b"v" * 10) for key in keys
        ) + bytes(64)
        hot = sum(store.sketch.estimate(b"key%02d" % k) >= threshold for k in keys)
        expected = 0 if keys and 2 * hot >= len(keys) else store.cold_group
        assert store._classify(payload) == expected
        assert (store.hot_regions, store.cold_regions) == (
            (1, 0) if expected == 0 else (0, 1 if keys else 0)
        )

    def test_admission_and_store_share_one_sketch(self):
        stack = _z_cache_stack()
        assert stack.cache.admission.sketch is stack.cache.store.sketch

    def test_serving_smoke_double_run_rows_identical(self):
        """Two fresh Z-Cache clusters under the serving smoke load: the
        CSV-serialized tenant and shard rows diff empty."""
        from repro.bench.experiments import sweep_cells

        (_, cell), *_ = sweep_cells(
            "serve", "smoke", schemes=("Z-Cache",), num_shards=2, zones=12,
            cache_zones=9, offered_kops=(120.0,), requests_per_tenant=1_000,
            num_keys=1_500, max_queue_depth=24,
        )

        def one_run():
            report = build_fleet(cell).run()
            return report.tenant_rows + report.shard_rows

        first, second = one_run(), one_run()
        columns = sorted({key for row in first for key in row})
        as_csv = lambda rows: rows_to_csv(  # noqa: E731
            [{k: str(row.get(k, "")) for k in columns} for row in rows],
            columns=columns,
        )
        assert as_csv(first) == as_csv(second)


# --- zero-cost golden regression --------------------------------------------------

# gc-qos smoke rows captured immediately before the cost model was
# introduced.  With every ZoneCostConfig field 0 (the default) the cost
# model must be invisible: these rows stay byte-identical.
GC_QOS_ZERO_COST_GOLDEN = [
    {
        "scheme": "Region-Cache", "pacing": "static", "routing": "static",
        "offered_total_kops": 12.0, "web_p99_us": 40134.561,
        "web_goodput_kops": 2.852266719953525,
        "web_slo_attainment": 0.904480135249366, "batch_p99_us": 41610.582,
        "batch_goodput_kops": 1.4830009830537176,
        "cluster_shed_rate": 0.279375, "rerouted_writes": 0,
        "web_rerouted": 0, "batch_rerouted": 0, "gc_layer": "ztl",
        "gc_victims": 33, "gc_migrated_units": 436, "gc_stall_us_p99": 0.0,
        "gc_throttled_steps": 0, "gc_pace_adjustments": 0,
        "gc_pace_clamps": 0, "gc_pace_units_end": 8,
    },
    {
        "scheme": "Region-Cache", "pacing": "static", "routing": "gc_aware",
        "offered_total_kops": 12.0, "web_p99_us": 38455.386,
        "web_goodput_kops": 2.9023353330678843,
        "web_slo_attainment": 0.906636670416198, "batch_p99_us": 42560.417,
        "batch_goodput_kops": 1.5600952643320853,
        "cluster_shed_rate": 0.28225, "rerouted_writes": 319,
        "web_rerouted": 100, "batch_rerouted": 219, "gc_layer": "ztl",
        "gc_victims": 34, "gc_migrated_units": 449, "gc_stall_us_p99": 0.0,
        "gc_throttled_steps": 0, "gc_pace_adjustments": 0,
        "gc_pace_clamps": 0, "gc_pace_units_end": 8,
    },
    {
        "scheme": "Region-Cache", "pacing": "adaptive", "routing": "static",
        "offered_total_kops": 12.0, "web_p99_us": 40134.561,
        "web_goodput_kops": 2.8521746836367177,
        "web_slo_attainment": 0.904480135249366, "batch_p99_us": 41610.582,
        "batch_goodput_kops": 1.5229368871505715,
        "cluster_shed_rate": 0.279625, "rerouted_writes": 0,
        "web_rerouted": 0, "batch_rerouted": 0, "gc_layer": "ztl",
        "gc_victims": 33, "gc_migrated_units": 435, "gc_stall_us_p99": 0.0,
        "gc_throttled_steps": 0, "gc_pace_adjustments": 5,
        "gc_pace_clamps": 5, "gc_pace_units_end": 2,
    },
    {
        "scheme": "Region-Cache", "pacing": "adaptive", "routing": "gc_aware",
        "offered_total_kops": 12.0, "web_p99_us": 38455.386,
        "web_goodput_kops": 2.903643710170991,
        "web_slo_attainment": 0.906636670416198, "batch_p99_us": 44121.622,
        "batch_goodput_kops": 1.5373820760737846,
        "cluster_shed_rate": 0.28225, "rerouted_writes": 319,
        "web_rerouted": 100, "batch_rerouted": 219, "gc_layer": "ztl",
        "gc_victims": 34, "gc_migrated_units": 449, "gc_stall_us_p99": 0.0,
        "gc_throttled_steps": 0, "gc_pace_adjustments": 5,
        "gc_pace_clamps": 5, "gc_pace_units_end": 2,
    },
]


@pytest.mark.slow
def test_gc_qos_zero_cost_rows_match_pre_cost_model_golden(sweep_rows):
    rows = sweep_rows("gc-qos")
    assert len(rows) == len(GC_QOS_ZERO_COST_GOLDEN)
    for row, want in zip(rows, GC_QOS_ZERO_COST_GOLDEN):
        for key, value in want.items():
            assert row[key] == value, (
                f"{row['pacing']}/{row['routing']}.{key}: {row[key]} != {value}"
            )


@pytest.mark.slow
def test_zone_cost_smoke_shape_and_knee_ordering(sweep_rows):
    """The ablation's reason to exist, asserted: with measured costs the
    Z-Cache rows beat the Region-Cache rows on web p99 at the knee, and
    the zns_* columns are zero exactly when the preset is zero."""
    rows = sweep_rows("zone-cost")
    assert len(rows) == 4
    cell = {(r["scheme"], r["cost_preset"]): r for r in rows}
    for (scheme, preset), row in cell.items():
        if preset == "zero":
            # Implicit opens are free (no request submitted) and nothing
            # closes/finishes; resets still carry the baseline command
            # overhead they always had.
            assert row["zns_open_us"] == 0.0
            assert row["zns_close_us"] == 0.0
            assert row["zns_finish_us"] == 0.0
            assert row["zns_forced_close"] == 0
        else:
            assert row["zns_open_us"] > 0.0
            # µs-scale resets dominate the zero preset's bare overhead.
            assert (
                row["zns_reset_us"] > cell[(scheme, "zero")]["zns_reset_us"]
            )
    assert (
        cell[("Z-Cache", "measured")]["web_p99_us"]
        < cell[("Region-Cache", "measured")]["web_p99_us"]
    )
    assert (
        cell[("Z-Cache", "measured")]["gc_copied_bytes"]
        < cell[("Region-Cache", "measured")]["gc_copied_bytes"]
    )
