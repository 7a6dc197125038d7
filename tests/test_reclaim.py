"""The unified reclamation framework (repro.reclaim).

Three layers of assurance:

* unit tests for the validated config helpers, the victim policies and
  the pacer's watermark/token decisions;
* engine mechanics against a scripted source (budget accounting, skip /
  retry semantics, span emission);
* golden determinism: the four refactored call sites (FTL, ZTL, F2FS
  cleaner, cache region manager) must reproduce the exact pre-refactor
  numbers, captured on the seed tree before the engine existed.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ConfigError
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig
from repro.flash import NandGeometry, NullBlkDevice, ZnsConfig, ZnsSsd
from repro.flash.ftl import FtlConfig, PageMappedFtl
from repro.reclaim import (
    GreedyPolicy,
    PacerConfig,
    ReclaimEngine,
    ReclaimPacer,
    ReclaimSource,
    UnitOutcome,
    VictimView,
    ensure_at_least,
    ensure_between,
    ensure_choice,
    ensure_fraction,
    make_victim_policy,
)
from repro.sim import SimClock
from repro.sim.io import IoTracer
from repro.units import KIB, MIB
from repro.ztl.gc import GcConfig
from repro.ztl.layer import RegionTranslationLayer, ZtlConfig

PAGE = 4 * KIB


# --------------------------------------------------------------------------
# Config helpers
# --------------------------------------------------------------------------

class TestConfigHelpers:
    def test_values_pass_through(self):
        assert ensure_at_least("n", 3, 1) == 3
        assert ensure_between("n", 2, 0, 4) == 2
        assert ensure_fraction("f", 0.5) == 0.5
        assert ensure_choice("c", "a", ("a", "b")) == "a"

    def test_violations_raise_config_error(self):
        with pytest.raises(ConfigError):
            ensure_at_least("n", 0, 1)
        with pytest.raises(ConfigError):
            ensure_between("n", 5, 0, 4)
        with pytest.raises(ConfigError):
            ensure_fraction("f", 1.5)
        with pytest.raises(ConfigError):
            ensure_choice("c", "z", ("a", "b"))

    def test_config_error_is_a_value_error(self):
        # Callers that predate the helper catch ValueError; both work.
        with pytest.raises(ValueError):
            ensure_at_least("n", -1, 0)

    def test_layer_configs_validate(self):
        with pytest.raises(ConfigError):
            GcConfig(min_empty_zones=0)
        with pytest.raises(ConfigError):
            GcConfig(min_empty_zones=2, emergency_empty_zones=3)
        with pytest.raises(ConfigError):
            CleanerConfig(low_watermark=0)
        with pytest.raises(ConfigError):
            FtlConfig(op_ratio=1.0)
        with pytest.raises(ConfigError):
            FtlConfig(gc_low_watermark=4, gc_high_watermark=2)
        with pytest.raises(ConfigError):
            PacerConfig(background=3, target=1)


# --------------------------------------------------------------------------
# Victim policies
# --------------------------------------------------------------------------

def _view(vid, valid, total=8, age=0):
    return VictimView(vid, valid, valid / total, age)


class TestVictimPolicies:
    def test_greedy_prefers_fewest_valid_first_wins(self):
        views = [_view(1, 5), _view(2, 3), _view(3, 3)]
        assert GreedyPolicy().select(views) == 2

    def test_cost_benefit_never_takes_fully_valid(self):
        views = [_view(1, 8, total=8, age=100), _view(2, 7, total=8, age=1)]
        assert make_victim_policy("cost_benefit").select(views) == 2

    def test_cost_benefit_prefers_older_at_equal_valid(self):
        views = [_view(1, 4, age=1), _view(2, 4, age=10)]
        assert make_victim_policy("cost_benefit").select(views) == 2

    def test_age_threshold_prefers_aged_containers(self):
        policy = make_victim_policy("age_threshold", age_threshold=8)
        views = [_view(1, 1, age=2), _view(2, 7, age=9)]
        assert policy.select(views) == 2
        # Within the aged tier, fewest-valid still wins.
        views = [_view(1, 7, age=9), _view(2, 2, age=12)]
        assert policy.select(views) == 2

    def test_random_is_seed_deterministic(self):
        views = [_view(i, i % 4) for i in range(10)]
        a = [make_victim_policy("random", seed=5).select(views) for _ in range(3)]
        b = [make_victim_policy("random", seed=5).select(views) for _ in range(3)]
        assert a == b

    def test_empty_candidates_select_none(self):
        assert GreedyPolicy().select([]) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_victim_policy("fancy")


# --------------------------------------------------------------------------
# Pacer
# --------------------------------------------------------------------------

class TestPacer:
    def test_watermark_decisions(self):
        pacer = ReclaimPacer(PacerConfig(background=4, target=8, emergency=1))
        assert pacer.should_trigger(3) and not pacer.should_trigger(4)
        assert pacer.reached_target(8) and not pacer.reached_target(7)
        assert pacer.level(0) == "emergency"
        assert pacer.level(2) == "background"
        assert pacer.level(9) == "idle"

    def test_urgent_level_and_unbounded_budget(self):
        pacer = ReclaimPacer(
            PacerConfig(background=4, target=4, urgent=2, pace_units=3)
        )
        assert pacer.level(2) == "urgent"
        assert pacer.step_budget(3) == 3
        assert pacer.step_budget(2) is None  # urgent: ignore the pace

    def test_accepts_threshold_with_emergency_override(self):
        pacer = ReclaimPacer(
            PacerConfig(background=4, target=4, emergency=1,
                        victim_valid_threshold=0.25)
        )
        assert pacer.accepts(0.2, free_units=3)
        assert not pacer.accepts(0.8, free_units=3)
        assert pacer.accepts(0.8, free_units=1)  # emergency takes anything


# --------------------------------------------------------------------------
# Engine mechanics (scripted source)
# --------------------------------------------------------------------------

class _ScriptedSource(ReclaimSource):
    name = "fake"
    unit_bytes = 10

    def __init__(self, victims, free=0):
        self.victims = {vid: list(units) for vid, units in victims.items()}
        self.free = free
        self.outcomes = {}
        self.released = []
        self.flushes = 0

    def free_units(self):
        return self.free

    def candidate_views(self):
        return [
            VictimView(vid, len(units), len(units) / 8, 0)
            for vid, units in sorted(self.victims.items())
        ]

    def pending_units(self, victim_id):
        return list(reversed(self.victims[victim_id]))

    def migrate_unit(self, victim_id, unit):
        return self.outcomes.pop((victim_id, unit), UnitOutcome.MIGRATED)

    def release_victim(self, victim_id):
        self.released.append(victim_id)
        del self.victims[victim_id]

    def flush_step(self):
        self.flushes += 1


def _engine(source, tracer=None, **pacer_kwargs):
    return ReclaimEngine(
        source,
        GreedyPolicy(),
        ReclaimPacer(PacerConfig(**pacer_kwargs)),
        tracer=tracer if tracer is not None else IoTracer(),
    )


class TestEngineMechanics:
    def test_collect_reclaims_whole_victims(self):
        source = _ScriptedSource({1: [10, 11, 12], 2: [20]}, free=0)
        engine = _engine(source, background=1, target=1)
        assert engine.collect(max_victims=2) == 2
        assert source.released == [2, 1]  # greedy: fewest valid first
        assert engine.stats.victims_reclaimed == 2
        assert engine.stats.units_migrated == 4
        assert engine.stats.copied_bytes == 4 * source.unit_bytes

    def test_skipped_units_cost_no_budget(self):
        source = _ScriptedSource({1: [10, 11, 12]}, free=0)
        source.outcomes[(1, 10)] = UnitOutcome.SKIPPED
        engine = _engine(source, background=1, target=1, pace_units=2)
        engine.background_step()
        # One paced step: the stale unit rides free, both live units move.
        assert engine.stats.units_migrated == 2
        assert engine.stats.victims_reclaimed == 1

    def test_retry_requeues_and_ends_step(self):
        source = _ScriptedSource({1: [10, 11]}, free=0)
        source.outcomes[(1, 10)] = UnitOutcome.RETRY
        engine = _engine(source, background=1, target=1)
        engine.background_step()
        assert engine.stats.retries == 1
        assert engine.victim == 1  # still in progress
        engine.background_step()  # outcome consumed: now migrates
        assert engine.stats.units_migrated == 2
        assert engine.victim is None

    def test_pacer_rejects_defer_collection_entirely(self):
        source = _ScriptedSource({1: [10] * 8}, free=2)
        engine = _engine(
            source, background=4, target=4, emergency=1,
            victim_valid_threshold=0.5,
        )
        assert engine.pick_victim() is None  # 8/8 valid, free above emergency
        source.free = 1
        assert engine.pick_victim() == 1  # emergency takes it

    @settings(max_examples=200, deadline=None)
    @given(
        valid=st.lists(st.integers(0, 8), max_size=6),
        ages=st.lists(st.integers(0, 20), min_size=6, max_size=6),
        groups=st.lists(st.integers(0, 1), min_size=6, max_size=6),
        threshold=st.sampled_from((0.0, 0.2, 0.5, 0.9, 1.0)),
        free=st.integers(0, 4),
        dead_first=st.booleans(),
        policy=st.sampled_from(
            ("greedy", "cost_benefit", "age_threshold", "random", "cold_defer")
        ),
    )
    def test_valid_fraction_bound_only_skips_picks_that_would_defer(
        self, valid, ages, groups, threshold, free, dead_first, policy
    ):
        """A source that answers ``least_valid_fraction`` gets the same
        pick as one that claims nothing, and the stateful random policy
        draws the same stream."""

        class Views(_ScriptedSource):
            built = 0

            def candidate_views(self):
                self.built += 1
                return [
                    VictimView(vid, count, count / 8, ages[vid], groups[vid])
                    for vid, count in enumerate(valid)
                ]

        class Bounded(Views):
            def least_valid_fraction(self):
                return min(valid, default=8) / 8

        picks = []
        for source in (Bounded({}, free), Views({}, free)):
            engine = ReclaimEngine(
                source,
                make_victim_policy(policy, seed=3),
                ReclaimPacer(
                    PacerConfig(
                        background=5, target=5, emergency=1,
                        victim_valid_threshold=threshold,
                    )
                ),
                dead_first=dead_first,
            )
            picks.append([engine.pick_victim() for _ in range(3)])
            if policy == "random":
                picks[-1].append(engine.policy._rng.getstate())
            else:
                picks[-1].append(source.built)
        bounded, plain = picks
        assert bounded[:3] == plain[:3]
        if policy == "random":
            assert bounded[3] == plain[3]
        elif valid and min(valid) / 8 > threshold and free > 1:
            assert (bounded[3], plain[3]) == (0, 3)  # deferred without views

    def test_spans_cover_migrate_and_reset(self):
        tracer = IoTracer(SimClock()).enable()
        source = _ScriptedSource({1: [10, 11]}, free=0)
        engine = _engine(source, tracer=tracer, background=1, target=1)
        engine.collect()
        migrates = tracer.find(layer="reclaim.fake", op="migrate")
        resets = tracer.find(layer="reclaim.fake", op="reset")
        assert migrates and len(resets) == 1
        assert resets[0].zone == 1

    def test_abandon_victim_forgets_pending_work(self):
        source = _ScriptedSource({1: [10, 11]}, free=0)
        engine = _engine(source, background=1, target=1, pace_units=1)
        engine.background_step()
        assert engine.victim == 1
        engine.abandon_victim(2)  # another container: nothing to forget
        assert engine.victim == 1
        engine.abandon_victim(1)
        assert engine.victim is None

    def test_drain_to_target_stops_at_high_watermark(self):
        source = _ScriptedSource({1: [10], 2: [20], 3: [30]}, free=0)
        engine = _engine(source, background=2, target=2)

        original = source.release_victim

        def release(victim_id):
            original(victim_id)
            source.free += 1

        source.release_victim = release
        assert engine.drain_to_target() == 2
        assert source.free == 2
        assert len(source.victims) == 1


# --------------------------------------------------------------------------
# Golden determinism: the four call sites, pre-refactor numbers
# --------------------------------------------------------------------------

class TestGoldenDeterminism:
    """Hardcoded outputs captured on the seed tree before the engine
    refactor; any drift in default-config behavior fails here."""

    def test_ftl_golden(self):
        geometry = NandGeometry(page_size=PAGE, pages_per_block=8, num_blocks=32)
        ftl = PageMappedFtl(geometry, FtlConfig(0.25, 2, 4))
        rng = random.Random(11)
        ftl.write_pages(list(range(ftl.logical_pages)))
        for _ in range(ftl.logical_pages * 4):
            ftl.write_pages([rng.randrange(ftl.logical_pages)])
        assert ftl.total_host_pages == 960
        assert ftl.total_moved_pages == 1032
        assert ftl.total_erased_blocks == 221
        assert ftl.free_block_count == 4
        assert ftl.write_amplification == 2.075
        assert [
            ftl.physical_of(lpn) for lpn in range(0, ftl.logical_pages, 17)
        ] == [(18, 4), (6, 1), (5, 0), (2, 3), (19, 1), (7, 2),
              (22, 2), (13, 2), (23, 3), (26, 4), (30, 3), (20, 1)]

    def test_ztl_golden(self):
        clock = SimClock()
        geometry = NandGeometry(page_size=PAGE, pages_per_block=64, num_blocks=64)
        device = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=1 * MIB))
        layer = RegionTranslationLayer(
            device,
            ZtlConfig(
                region_size=64 * KIB, host_open_zones=2,
                gc=GcConfig(min_empty_zones=3, victim_valid_threshold=0.25,
                            pace_regions=4),
            ),
        )
        rng = random.Random(7)
        live = int(layer.total_slots * 0.8)
        payload = bytes(64 * KIB)
        for region_id in range(live):
            layer.write_region(region_id, payload)
        for _ in range(live * 4):
            layer.write_region(rng.randrange(live), payload)
        assert clock.now == 8470413120
        assert layer.stats.host_region_writes == 1020
        assert layer.stats.migrated_region_writes == 3010
        assert layer.stats.gc_zone_resets == 238
        assert layer.reclaim.stats.victims_reclaimed == 238
        assert layer.reclaim.stats.units_migrated == 3010
        assert layer.stats.app_write_amplification == 3.950980392156863
        assert device.stats.media_write_bytes == 264110080
        assert [
            (rid, layer.map[rid].zone_index, layer.map[rid].slot)
            for rid in range(0, live, 23)
        ] == [(0, 13, 1), (23, 13, 7), (46, 10, 3), (69, 14, 7), (92, 4, 3),
              (115, 4, 6), (138, 1, 13), (161, 7, 2), (184, 3, 13)]

    @staticmethod
    def _f2fs_run(policy):
        clock = SimClock()
        geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=256)
        zns = ZnsSsd(
            clock, ZnsConfig(geometry=geometry, zone_size=8 * geometry.block_size)
        )
        meta = NullBlkDevice(clock, capacity_bytes=8 * MIB)
        fs = F2fs(
            clock, zns, meta,
            F2fsConfig(checkpoint_interval_blocks=1 << 30),
            CleanerConfig(low_watermark=3, pace_blocks=8, policy=policy),
        )
        fs.mkfs()
        handle = fs.create("data")
        rng = random.Random(5)
        for step in range(6000):
            handle.pwrite(rng.randrange(600) * PAGE, bytes([step % 251 + 1]) * PAGE)
        return clock, zns, fs

    def test_f2fs_cost_benefit_golden(self):
        clock, zns, fs = self._f2fs_run("cost_benefit")
        assert clock.now == 9220097856
        assert fs.reclaim.stats.victims_reclaimed == 67
        assert fs.reclaim.stats.units_migrated == 228
        assert fs.stats.data_write_bytes == 50085888
        assert fs.stats.write_amplification == 2.054333333333333
        assert zns.stats.media_write_bytes == 50085888

    def test_f2fs_greedy_golden(self):
        clock, _zns, fs = self._f2fs_run("greedy")
        assert clock.now == 9016436000
        assert fs.reclaim.stats.victims_reclaimed == 65
        assert fs.reclaim.stats.units_migrated == 0
        assert fs.stats.write_amplification == 2.0156666666666667

    @pytest.mark.slow
    def test_fig2_rows_golden(self, sweep_rows):
        rows = sweep_rows("fig2")  # zones=12, cache 9, file 18, 4000 ops
        keep = ("scheme", "throughput_mops_per_min", "hit_ratio", "waf_app",
                "waf_device", "get_p99_us", "set_p99_us", "cache_mib")
        assert [{k: row[k] for k in keep} for row in rows] == [
            {"scheme": "Region-Cache",
             "throughput_mops_per_min": 0.4709803702141237,
             "hit_ratio": 0.8438775510204082,
             "waf_app": 8.805555555555555, "waf_device": 1.0,
             "get_p99_us": 11150.904, "set_p99_us": 1732.821,
             "cache_mib": 36.0},
            {"scheme": "Zone-Cache",
             "throughput_mops_per_min": 0.926339694528708,
             "hit_ratio": 0.8811224489795918,
             "waf_app": 1.0, "waf_device": 1.0,
             "get_p99_us": 75.453, "set_p99_us": 1.36, "cache_mib": 48.0},
            {"scheme": "File-Cache",
             "throughput_mops_per_min": 1.6990825723549836,
             "hit_ratio": 0.8438775510204082,
             "waf_app": 1.078125, "waf_device": 1.0,
             "get_p99_us": 127.453, "set_p99_us": 2663.977,
             "cache_mib": 36.0},
            {"scheme": "Block-Cache",
             "throughput_mops_per_min": 1.6520145648141498,
             "hit_ratio": 0.8438775510204082,
             "waf_app": 1.0, "waf_device": 1.640625,
             "get_p99_us": 83.453, "set_p99_us": 1796.701,
             "cache_mib": 36.0},
        ]

    def test_cache_windowed_eviction_golden(self):
        from repro.cache.region import RegionMeta
        from repro.cache.region_manager import RegionManager

        manager = RegionManager(16, "fifo", reclaim_window=4, seed=3)
        for _ in range(16):
            region_id, evicted = manager.allocate()
            assert not evicted
            manager.seal(RegionMeta(region_id, keys={b"k%d" % region_id}))
        order = []
        for step in range(64):
            region_id, evicted = manager.allocate()
            order.append((region_id, sorted(evicted)))
            manager.seal(RegionMeta(region_id, keys={b"s%d" % step}))
        expected = [
            (1, "k1"), (4, "k4"), (3, "k3"), (0, "k0"), (5, "k5"), (8, "k8"),
            (6, "k6"), (2, "k2"), (10, "k10"), (7, "k7"), (11, "k11"),
            (12, "k12"), (14, "k14"), (15, "k15"), (9, "k9"), (1, "s0"),
            (3, "s2"), (5, "s4"), (13, "k13"), (4, "s1"), (8, "s5"),
            (0, "s3"), (2, "s7"), (6, "s6"), (7, "s9"), (12, "s11"),
            (14, "s12"), (10, "s8"), (11, "s10"), (9, "s14"), (3, "s16"),
            (15, "s13"), (13, "s18"), (1, "s15"), (8, "s20"), (0, "s21"),
            (4, "s19"), (6, "s23"), (5, "s17"), (7, "s24"), (2, "s22"),
            (10, "s27"), (9, "s29"), (3, "s30"), (14, "s26"), (12, "s25"),
            (1, "s33"), (11, "s28"), (0, "s35"), (15, "s31"), (6, "s37"),
            (4, "s36"), (8, "s34"), (2, "s40"), (7, "s39"), (10, "s41"),
            (13, "s32"), (9, "s42"), (3, "s43"), (5, "s38"), (1, "s46"),
            (14, "s44"), (12, "s45"), (15, "s49"),
        ]
        assert order == [(rid, [key.encode()]) for rid, key in expected]
        assert manager.regions_evicted == 64
        assert manager.items_evicted == 64


# --------------------------------------------------------------------------
# Tracer attribution: every migrated byte under a reclaim span
# --------------------------------------------------------------------------

class TestReclaimTracing:
    def test_ztl_migrated_bytes_all_attributed(self):
        clock = SimClock()
        geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=32)
        device = ZnsSsd(
            clock,
            ZnsConfig(geometry=geometry, zone_size=4 * geometry.block_size),
            tracer=IoTracer().enable(),
        )
        layer = RegionTranslationLayer(
            device,
            ZtlConfig(
                region_size=geometry.block_size, host_open_zones=2,
                gc=GcConfig(min_empty_zones=2, victim_valid_threshold=0.5,
                            pace_regions=2),
            ),
        )
        payload = bytes(geometry.block_size)
        rng = random.Random(3)
        for _ in range(200):
            layer.write_region(rng.randrange(12), payload)
        engine = layer.reclaim
        assert engine.stats.victims_reclaimed > 0
        tracer = device.tracer
        by_id = {r.record_id: r for r in tracer.records}

        def attributed(record):
            cursor = record
            while cursor is not None:
                if cursor.layer.startswith("reclaim."):
                    return True
                cursor = by_id.get(cursor.parent_id)
            return False

        traced = sum(
            r.length
            for r in tracer.records
            if r.op in ("write", "append") and attributed(r)
        )
        assert traced == engine.stats.copied_bytes > 0
        resets = tracer.find(layer="reclaim.ztl", op="reset")
        assert len(resets) == engine.stats.victims_reclaimed


# --------------------------------------------------------------------------
# Property: no live region lost or duplicated across interleavings
# --------------------------------------------------------------------------

def _make_layer():
    clock = SimClock()
    geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=32)
    device = ZnsSsd(
        clock, ZnsConfig(geometry=geometry, zone_size=4 * geometry.block_size)
    )
    return RegionTranslationLayer(
        device,
        ZtlConfig(
            region_size=geometry.block_size, host_open_zones=2,
            gc=GcConfig(min_empty_zones=2, victim_valid_threshold=0.5,
                        pace_regions=2),
        ),
    )


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 14), st.sampled_from(["write", "trim", "collect"])
        ),
        max_size=150,
    )
)
def test_ztl_reclaim_preserves_live_regions(ops):
    """Arbitrary write/trim/collect interleavings: every live region is
    still mapped exactly once afterwards — GC neither loses nor
    duplicates live data, whichever victims the engine picked."""
    layer = _make_layer()
    payload = bytes(layer.config.region_size)
    live = set()
    for region_id, kind in ops:
        if kind == "write":
            layer.write_region(region_id, payload)
            live.add(region_id)
        elif kind == "trim":
            layer.invalidate_region(region_id)
            live.discard(region_id)
        else:
            layer.reclaim.collect(max_victims=1)
        source = layer.reclaim.source
        assert source.least_valid_fraction() == min(
            (view.valid_fraction for view in source.candidate_views()), default=1.0
        )
    assert {rid for rid in range(15) if layer.has_region(rid)} == live
    placements = [
        (layer.map[rid].zone_index, layer.map[rid].slot)
        for rid in sorted(live)
    ]
    assert len(set(placements)) == len(placements)


# --------------------------------------------------------------------------
# The gc-sweep experiment end to end
# --------------------------------------------------------------------------

class TestGcAblation:
    @pytest.mark.slow
    def test_sweep_rows_with_full_attribution(self, sweep_rows):
        from repro.bench.schemes import SCHEME_NAMES

        rows = sweep_rows("gc-sweep")  # two policies, tracing on
        assert {r["scheme"] for r in rows} == set(SCHEME_NAMES)
        for row in rows:
            # Every migrated byte carries a reclaim span in its chain.
            assert row["reclaim_traced_bytes"] == row["gc_copied_bytes"]
            assert row["reclaim_spans"] > 0
            if row["scheme"] == "Zone-Cache":
                # The paper's premise: nothing to reclaim below the cache.
                assert row["gc_victims"] == 0
                assert row["gc_copied_bytes"] == 0
                assert row["gc_layer"] == "none"
            else:
                assert row["gc_victims"] > 0
                assert row["gc_stall_us_p99"] >= 0.0
