"""Full-stack §3.4 hint coverage (the hint-protocol PR).

Four layers of assurance:

* the :class:`~repro.reclaim.GcHints` protocol at the engine level —
  hint-bearing sources' ``DROPPED`` outcomes are accounted separately
  and emit one ``reclaim.<layer>`` drop span each;
* the two newly-hinted reclamation layers: the F2FS cleaner's
  block-drop path (SIT/NAT unmap, metadata stays fsck-clean) and the
  FTL's region discard-ahead;
* the scheme builders: ``hint_layers="all"`` binds hints into the
  substrate, the historical ``"ztl"`` value leaves the new layers
  unhinted (bit-compat);
* end to end: a small ``run_hint_sweep`` grid reconciles
  ``gc_hint_dropped_units`` against the per-layer drop spans exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.schemes import (
    SchemeScale,
    build_block_cache,
    build_file_cache,
)
from repro.cache.lifecycle import LifecycleConfig
from repro.errors import CacheConfigError, ConfigError
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig, VictimPolicy, fsck
from repro.flash import NandGeometry, NullBlkDevice, ZnsConfig, ZnsSsd
from repro.flash.ftl import FtlConfig, PageMappedFtl
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
        CleanerConfig(low_watermark=3, pace_blocks=8,
                      policy=VictimPolicy.COST_BENEFIT),
    )
    fs.mkfs()
    return fs


class TestF2fsCleanerHints:
    REGION_BLOCKS = 4  # 16 KiB regions over 4 KiB filesystem blocks

    def _bind(self, fs, handle, migration_worth, dropped):
        def region_of_block(block_addr):
            owner = fs.sit.owner_of(block_addr)
            if owner is None:
                return None
            owner_id, file_block = owner
            if owner_id != handle.file_id:
                return None
            return file_block // self.REGION_BLOCKS

        fs.cleaner.bind_hints(
            GcHints(migration_worth, dropped.append),
            region_of_block,
            fs._drop_block,
        )

    def _churn(self, fs, handle, blocks=5000, spread=600, seed=5):
        rng = random.Random(seed)
        for step in range(blocks):
            handle.pwrite(
                rng.randrange(spread) * PAGE, bytes([step % 251 + 1]) * PAGE
            )

    def test_condemned_regions_drop_instead_of_migrate(self):
        fs = _make_fs()
        handle = fs.create("data")
        dropped = []
        self._bind(fs, handle, lambda region_id: False, dropped)
        self._churn(fs, handle)
        stats = fs.cleaner.engine.stats
        assert stats.hint_dropped_units > 0
        assert stats.hint_dropped_units == stats.units_dropped
        # Everything the file owned was condemned: the cleaner moved no
        # data blocks for it, and dropping left the metadata coherent.
        assert dropped
        assert fs.cleaner.sections_cleaned > 0
        assert fsck(fs).clean

    def test_worthy_regions_still_migrate(self):
        fs = _make_fs()
        handle = fs.create("data")
        dropped = []
        self._bind(fs, handle, lambda region_id: True, dropped)
        self._churn(fs, handle)
        stats = fs.cleaner.engine.stats
        assert stats.hint_dropped_units == 0
        assert stats.units_migrated > 0
        assert not dropped
        assert fsck(fs).clean

    def test_drop_consistency_under_selective_condemnation(self):
        # Condemn only even regions: a mixed victim section drops some
        # blocks and migrates the rest, and the filesystem stays clean.
        fs = _make_fs()
        handle = fs.create("data")
        dropped = []
        self._bind(fs, handle, lambda region_id: region_id % 2 == 1, dropped)
        self._churn(fs, handle)
        stats = fs.cleaner.engine.stats
        assert stats.hint_dropped_units > 0
        assert stats.units_migrated > 0
        assert all(region_id % 2 == 0 for region_id in dropped)
        assert fsck(fs).clean


# --------------------------------------------------------------------------
# FTL: discard-ahead of condemned regions
# --------------------------------------------------------------------------

def _make_ftl():
    geometry = NandGeometry(page_size=PAGE, pages_per_block=8, num_blocks=32)
    return PageMappedFtl(geometry, FtlConfig(0.25, 2, 4))


class TestFtlDiscardAhead:
    REGION_PAGES = 4

    def test_bind_hints_validates_region_alignment(self):
        ftl = _make_ftl()
        with pytest.raises(ConfigError):
            ftl.bind_hints(
                GcHints(lambda r: True, lambda r: None), PAGE + 1, 4
            )

    def test_condemned_regions_discarded_not_copied(self):
        ftl = _make_ftl()
        ftl.write_pages(list(range(ftl.logical_pages)))
        dropped = []
        num_regions = ftl.logical_pages // self.REGION_PAGES
        ftl.bind_hints(
            GcHints(lambda region_id: False, dropped.append),
            self.REGION_PAGES * PAGE,
            num_regions,
        )
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
        ftl = _make_ftl()
        ftl.write_pages(list(range(ftl.logical_pages)))
        dropped = []
        num_regions = ftl.logical_pages // self.REGION_PAGES
        ftl.bind_hints(
            GcHints(lambda region_id: False, dropped.append),
            self.REGION_PAGES * PAGE,
            num_regions,
        )
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
        template, hinted = _make_ftl(), _make_ftl()
        hinted.bind_hints(
            GcHints(lambda region_id: True, lambda region_id: None),
            self.REGION_PAGES * PAGE,
            hinted.logical_pages // self.REGION_PAGES,
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

class TestBuilderWiring:
    def _lifecycle(self, **kwargs):
        return LifecycleConfig(versioning=True, gc_hints=True, **kwargs)

    def test_hint_layers_validated(self):
        with pytest.raises(CacheConfigError):
            LifecycleConfig(hint_layers="ftl-only")

    def test_block_cache_full_binds_ftl_hints(self):
        stack = build_block_cache(
            SimClock(), SCALE, 16 * 256 * KIB, 8 * 256 * KIB,
            lifecycle=self._lifecycle(hint_layers="all"),
        )
        source = stack.substrate["device"].ftl.reclaim.source
        assert source.hints is not None
        assert source.hints.migration_worth == stack.cache.migration_worth

    def test_block_cache_ztl_only_leaves_ftl_unhinted(self):
        # The historical hint wiring stops at the ZTL; a block SSD's FTL
        # only joins in under hint_layers="all".
        stack = build_block_cache(
            SimClock(), SCALE, 16 * 256 * KIB, 8 * 256 * KIB,
            lifecycle=self._lifecycle(hint_layers="ztl"),
        )
        assert stack.substrate["device"].ftl.reclaim.source.hints is None

    def test_file_cache_full_binds_cleaner_hints(self):
        stack = build_file_cache(
            SimClock(), SCALE, 16 * 256 * KIB, 6 * 256 * KIB,
            lifecycle=self._lifecycle(hint_layers="all"),
        )
        fs = stack.substrate["fs"]
        assert fs.cleaner.engine.source.hints is not None

    def test_hints_off_binds_nothing(self):
        stack = build_file_cache(
            SimClock(), SCALE, 16 * 256 * KIB, 6 * 256 * KIB,
            lifecycle=LifecycleConfig(versioning=True, gc_hints=False,
                                      hint_layers="all"),
        )
        assert stack.substrate["fs"].cleaner.engine.source.hints is None


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
