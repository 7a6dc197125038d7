"""Full-stack §3.4 hint coverage (the hint-protocol PR).

Four layers of assurance:

* the :class:`~repro.reclaim.GcHints` protocol at the engine level —
  hint-bearing sources' ``DROPPED`` outcomes are accounted separately
  and emit one ``reclaim.<layer>`` drop span each;
* the two newly-hinted reclamation layers: the F2FS cleaner's
  block-drop path (SIT/NAT unmap, metadata stays fsck-clean) and the
  FTL's region discard-ahead;
* the scheme builders: one table over every scheme and hint mode says
  exactly which reclaim engine holds hints — ``hint_layers="all"``
  binds them into every substrate, the historical ``"ztl"`` value
  leaves the F2FS cleaner and the FTL unhinted (bit-compat);
* the ZTL's one drop routine: every region the layer drops reaches the
  cache, a dead zone's included;
* end to end: a small ``run_hint_sweep`` grid reconciles
  ``gc_hint_dropped_units`` against the per-layer drop spans exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.fleet import SERVING_SCALE
from repro.bench.schemes import (
    ALL_SCHEME_NAMES,
    SchemeScale,
    build_region_cache,
    build_scheme,
)
from repro.cache.backends import BlockRegionStore, FileRegionStore
from repro.cache.lifecycle import LifecycleConfig
from repro.errors import CacheConfigError, ConfigError
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig, fsck
from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    NandGeometry,
    NullBlkDevice,
    ZnsConfig,
    ZnsSsd,
)
from repro.flash.ftl import FtlConfig
from repro.reclaim import (
    GcHints,
    GreedyPolicy,
    PacerConfig,
    ReclaimEngine,
    ReclaimPacer,
    ReclaimSource,
    UnitOutcome,
    VictimView,
)
from repro.sim import SimClock
from repro.sim.io import IoTracer
from repro.units import KIB, MIB

PAGE = 4 * KIB

SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
    ram_bytes=32 * KIB,
)


# --------------------------------------------------------------------------
# GcHints at the engine level
# --------------------------------------------------------------------------

class _HintedSource(ReclaimSource):
    """Scripted source that consults its hints like the real layers do."""

    name = "fake"
    unit_bytes = 10

    def __init__(self, victims, free=0):
        self.victims = {vid: list(units) for vid, units in victims.items()}
        self.free = free
        self.dropped = []

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
        if self.hints is not None and not self.hints.migration_worth(unit):
            self.hints.on_drop(unit)
            self.dropped.append(unit)
            return UnitOutcome.DROPPED
        return UnitOutcome.MIGRATED

    def release_victim(self, victim_id):
        del self.victims[victim_id]

    def flush_step(self):
        pass


def _engine(source, tracer=None):
    return ReclaimEngine(
        source,
        GreedyPolicy(),
        ReclaimPacer(PacerConfig(background=1, target=1)),
        tracer=tracer if tracer is not None else IoTracer(),
    )


class TestEngineHintProtocol:
    def test_hint_drops_accounted_separately_from_copies(self):
        source = _HintedSource({1: [10, 11, 12]}, free=0)
        dropped = []
        source.hints = GcHints(lambda unit: unit != 11, dropped.append)
        engine = _engine(source)
        engine.collect()
        assert engine.stats.units_migrated == 2
        assert engine.stats.units_dropped == 1
        assert engine.stats.hint_dropped_units == 1
        assert engine.stats.copied_bytes == 2 * source.unit_bytes
        assert dropped == [11]

    def test_each_hint_drop_emits_one_span(self):
        tracer = IoTracer(SimClock()).enable()
        source = _HintedSource({1: [10, 11]}, free=0)
        source.hints = GcHints(lambda unit: False, lambda unit: None)
        engine = _engine(source, tracer=tracer)
        engine.collect()
        drops = tracer.find(layer="reclaim.fake", op="drop")
        assert len(drops) == engine.stats.hint_dropped_units == 2

    def test_drops_without_hints_are_not_hint_drops(self):
        # A source may drop units for its own reasons (stale entries);
        # only hint-bearing sources' drops count toward the §3.4 tally.
        class _PlainDropper(_HintedSource):
            def migrate_unit(self, victim_id, unit):
                return UnitOutcome.DROPPED

        source = _PlainDropper({1: [10, 11]}, free=0)
        engine = _engine(source)
        engine.collect()
        assert engine.stats.units_dropped == 2
        assert engine.stats.hint_dropped_units == 0


# --------------------------------------------------------------------------
# F2FS cleaner: block-run → region ownership → drop instead of migrate
# --------------------------------------------------------------------------

def _make_fs():
    clock = SimClock()
    geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=256)
    zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=8 * geometry.block_size))
    meta = NullBlkDevice(clock, capacity_bytes=8 * MIB)
    fs = F2fs(
        clock, zns, meta,
        F2fsConfig(checkpoint_interval_blocks=1 << 30),
        CleanerConfig(low_watermark=3, pace_blocks=8, policy="cost_benefit"),
    )
    fs.mkfs()
    return fs


class TestF2fsCleanerHints:
    REGION_BLOCKS = 4  # 16 KiB regions over 4 KiB filesystem blocks
    SPREAD = 600  # blocks the churn rewrites: 150 regions

    def _bind(self, fs, migration_worth, dropped):
        """The cache file and its hints, bound the one way a store does."""
        store = FileRegionStore(
            fs, self.REGION_BLOCKS * PAGE, self.SPREAD // self.REGION_BLOCKS
        )
        store.bind_gc_hints(GcHints(migration_worth, dropped.append))
        return store.file

    def _churn(self, handle, blocks=5000, seed=5):
        rng = random.Random(seed)
        for step in range(blocks):
            handle.pwrite(
                rng.randrange(self.SPREAD) * PAGE, bytes([step % 251 + 1]) * PAGE
            )

    def test_condemned_regions_drop_instead_of_migrate(self):
        fs = _make_fs()
        dropped = []
        self._churn(self._bind(fs, lambda region_id: False, dropped))
        stats = fs.reclaim.stats
        assert stats.hint_dropped_units > 0
        assert stats.hint_dropped_units == stats.units_dropped
        # Everything the file owned was condemned: the cleaner moved no
        # data blocks for it, and dropping left the metadata coherent.
        assert dropped
        assert stats.victims_reclaimed > 0
        assert fsck(fs).clean

    def test_worthy_regions_still_migrate(self):
        fs = _make_fs()
        dropped = []
        self._churn(self._bind(fs, lambda region_id: True, dropped))
        stats = fs.reclaim.stats
        assert stats.hint_dropped_units == 0
        assert stats.units_migrated > 0
        assert not dropped
        assert fsck(fs).clean

    def test_drop_consistency_under_selective_condemnation(self):
        # Condemn only even regions: a mixed victim section drops some
        # blocks and migrates the rest, and the filesystem stays clean.
        fs = _make_fs()
        dropped = []
        self._churn(self._bind(fs, lambda region_id: region_id % 2 == 1, dropped))
        stats = fs.reclaim.stats
        assert stats.hint_dropped_units > 0
        assert stats.units_migrated > 0
        assert all(region_id % 2 == 0 for region_id in dropped)
        assert fsck(fs).clean


# --------------------------------------------------------------------------
# FTL: discard-ahead of condemned regions
# --------------------------------------------------------------------------

def _make_ssd():
    geometry = NandGeometry(page_size=PAGE, pages_per_block=8, num_blocks=32)
    return BlockSsd(
        SimClock(), BlockSsdConfig(geometry=geometry, ftl=FtlConfig(0.25, 2, 4))
    )


class TestFtlDiscardAhead:
    REGION_PAGES = 4

    def _bind(self, ssd, migration_worth, on_drop):
        """Hints over a grid of ``REGION_PAGES``-page regions, bound the
        one way a store does; returns the FTL the tests drive."""
        num_regions = ssd.ftl.logical_pages // self.REGION_PAGES
        store = BlockRegionStore(ssd, self.REGION_PAGES * PAGE, num_regions)
        store.bind_gc_hints(GcHints(migration_worth, on_drop))
        return ssd.ftl

    def test_bind_hints_validates_region_alignment(self):
        # The hint grid is the store's region grid, and the store refuses
        # a region that is not whole pages before anything can bind.
        with pytest.raises(ConfigError):
            BlockRegionStore(_make_ssd(), PAGE + 1, 4)

    def test_condemned_regions_discarded_not_copied(self):
        ssd = _make_ssd()
        ssd.ftl.write_pages(list(range(ssd.ftl.logical_pages)))
        dropped = []
        ftl = self._bind(ssd, lambda region_id: False, dropped.append)
        rng = random.Random(11)
        for _ in range(ftl.logical_pages * 4):
            ftl.write_pages([rng.randrange(ftl.logical_pages)])
        stats = ftl.reclaim.stats
        assert stats.hint_dropped_units > 0
        # Nothing was ever worth copying, so GC moved zero pages and the
        # device WA collapses to 1.0.
        assert ftl.total_moved_pages == 0
        assert ftl.write_amplification == 1.0
        assert dropped

    def test_discard_ahead_unmaps_the_whole_region(self):
        ssd = _make_ssd()
        ssd.ftl.write_pages(list(range(ssd.ftl.logical_pages)))
        dropped = []
        ftl = self._bind(ssd, lambda region_id: False, dropped.append)
        # Random rewrites until GC condemns its first region, then stop:
        # the discard must have unmapped the region's whole logical
        # range.  Only the write that triggered the collection may have
        # remapped one of its pages afterwards.
        rng = random.Random(11)
        last = None
        for _ in range(ftl.logical_pages * 8):
            if dropped:
                break
            last = rng.randrange(ftl.logical_pages)
            ftl.write_pages([last])
        assert dropped
        start = dropped[0] * self.REGION_PAGES
        for lpn in range(start, start + self.REGION_PAGES):
            if lpn != last:
                assert ftl.physical_of(lpn) is None

    def test_worthy_regions_unaffected(self):
        template = _make_ssd().ftl
        hinted = self._bind(
            _make_ssd(), lambda region_id: True, lambda region_id: None
        )
        for ftl in (template, hinted):
            rng = random.Random(11)
            ftl.write_pages(list(range(ftl.logical_pages)))
            for _ in range(ftl.logical_pages * 4):
                ftl.write_pages([rng.randrange(ftl.logical_pages)])
        # All-worthy hints are bit-identical to no hints at all.
        assert hinted.total_moved_pages == template.total_moved_pages
        assert hinted.total_erased_blocks == template.total_erased_blocks
        assert hinted.reclaim.stats.hint_dropped_units == 0


# --------------------------------------------------------------------------
# Builder wiring: hint_layers gates the substrate bindings
# --------------------------------------------------------------------------

# The reclaim engine each scheme's stack carries (Zone-Cache has none).
RECLAIM_LAYER = {
    "Region-Cache": "ztl",
    "Zone-Cache": "none",
    "File-Cache": "f2fs",
    "Block-Cache": "ftl",
    "Z-Cache": "ztl",
}
# Engines that hold the cache's hints under each mode: the historical
# "ztl" coverage stops at the zone translation layer.
HINTED_LAYERS = {"off": (), "ztl": ("ztl",), "all": ("ztl", "f2fs", "ftl")}


class TestBuilderWiring:
    def test_hint_layers_validated(self):
        with pytest.raises(CacheConfigError):
            LifecycleConfig(hint_layers="ftl-only")

    @pytest.mark.parametrize("mode", list(HINTED_LAYERS))
    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    def test_hint_binding_table(self, scheme, mode):
        # "off" keeps hint_layers="all": gc_hints alone decides.
        lifecycle = LifecycleConfig(
            versioning=True,
            gc_hints=mode != "off",
            hint_layers="all" if mode == "off" else mode,
        )
        zone = SCALE.zone_size
        cache_bytes = {"Zone-Cache": None, "File-Cache": 6 * zone}.get(scheme, 8 * zone)
        stack = build_scheme(
            scheme, SimClock(), SCALE, 16 * zone, cache_bytes, lifecycle=lifecycle
        )
        layer, engine = stack.reclaim_engine()
        assert layer == RECLAIM_LAYER[scheme]
        if engine is None:
            return
        hints = engine.source.hints
        if layer not in HINTED_LAYERS[mode]:
            assert hints is None
            return
        assert hints.migration_worth == stack.cache.migration_worth
        assert hints.on_drop == stack.cache.on_region_dropped


# --------------------------------------------------------------------------
# The ZTL's one drop routine
# --------------------------------------------------------------------------

class TestZtlDropRoutine:
    def test_retired_zone_drops_reach_the_cache(self):
        """A zone that dies takes its regions with it: each one is
        dropped through the routine that tells the cache, so the index
        forgets it and the ledger attributes its bytes at once — not on
        some later read of a region that is gone."""
        scale = SERVING_SCALE
        stack = build_region_cache(
            SimClock(), scale, 10 * scale.zone_size, 8 * scale.zone_size,
            lifecycle=LifecycleConfig(gc_hints=True),
        )
        cache, layer = stack.cache, stack.substrate["layer"]
        for i in range(3000):
            cache.set(b"key-%06d" % i, b"v" * 1000)
        zone = next(
            record.zone_index
            for record in layer.book.records
            if record.valid_count == layer.slots_per_zone
        )
        regions = set(layer.book.records[zone].owners)
        stranded = [key for key, loc in cache.index.items() if loc.region_id in regions]
        assert len(regions) == 16 and stranded
        dropped_items = cache.stats.dropped_items
        ledger = cache.regions.ledger
        dropped_bytes = ledger.dead_bytes["dropped"]
        layer._retire_zone(zone)
        assert layer.stats.dead_zones == 1
        assert not any(loc.region_id in regions for loc in cache.index.values())
        assert cache.stats.dropped_items == dropped_items + len(stranded)
        assert ledger.dead_items["dropped"] == len(stranded)
        assert ledger.dead_bytes["dropped"] > dropped_bytes


# --------------------------------------------------------------------------
# The hint-sweep experiment end to end
# --------------------------------------------------------------------------

class TestHintSweep:
    @pytest.mark.slow
    def test_drop_counters_reconcile_with_trace_spans(self, sweep_rows):
        rows = sweep_rows("hint-sweep")  # two shards, 3000 requests
        assert len(rows) == 12
        by_cell = {(r["scheme"], r["hints"]): r for r in rows}
        for row in rows:
            assert row["gc_hint_dropped_units"] == row["gc_hint_drop_spans"]
        for scheme, layer in (("Block-Cache", "ftl"), ("File-Cache", "f2fs")):
            off, full = by_cell[(scheme, "off")], by_cell[(scheme, "full")]
            assert off["gc_layer"] == full["gc_layer"] == layer
            assert off["gc_hint_dropped_units"] == 0
            assert full["gc_hint_dropped_units"] > 0
            # Dropping instead of copying must reduce GC copy traffic.
            assert full["gc_copied_bytes"] < off["gc_copied_bytes"]

    @pytest.mark.slow
    def test_smoke_grid_is_deterministic(self, sweep_rows):
        from repro.bench.experiments import run_sweep

        first = sweep_rows("hint-sweep")
        second = run_sweep("hint-sweep", "smoke")
        assert first == second
        assert {r["hints"] for r in first} == {"off", "ztl", "full"}
