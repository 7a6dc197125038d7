"""Focused tests for the F2FS cleaner: pacing, victim policies, hooks."""

import random

import pytest

from repro.f2fs import CleanerConfig, F2fs, F2fsConfig, fsck
from repro.flash import NandGeometry, NullBlkDevice, ZnsConfig, ZnsSsd
from repro.sim import SimClock
from repro.units import KIB, MIB

PAGE = 4 * KIB


def make_fs(pace_blocks=8, low_watermark=3, policy="cost_benefit"):
    clock = SimClock()
    geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=256)
    zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=8 * geometry.block_size))
    meta = NullBlkDevice(clock, capacity_bytes=8 * MIB)
    fs = F2fs(
        clock, zns, meta,
        F2fsConfig(checkpoint_interval_blocks=1 << 30),
        CleanerConfig(low_watermark=low_watermark, pace_blocks=pace_blocks, policy=policy),
    )
    fs.mkfs()
    return fs, clock


def churn(fs, blocks=6000, spread=600, seed=5):
    handle = fs.create("data")
    rng = random.Random(seed)
    for step in range(blocks):
        handle.pwrite(rng.randrange(spread) * PAGE, bytes([step % 251 + 1]) * PAGE)
    return handle


class TestCleanerConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"low_watermark": 0}, {"pace_blocks": 0}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CleanerConfig(**kwargs)


class TestCleanerPacing:
    def test_background_step_bounded(self):
        """No single trigger migrates more than pace_blocks blocks — the
        low-tail-latency property the paper credits F2FS for."""
        fs, _ = make_fs(pace_blocks=4)
        handle = fs.create("data")
        rng = random.Random(7)
        max_step = 0
        for step in range(4000):
            before = fs.reclaim.stats.units_migrated
            handle.pwrite(rng.randrange(500) * PAGE, b"\x42" * PAGE)
            moved = fs.reclaim.stats.units_migrated - before
            max_step = max(max_step, moved)
        assert fs.reclaim.stats.victims_reclaimed > 0
        assert max_step <= 4

    def test_victim_finished_across_steps(self):
        fs, _ = make_fs(pace_blocks=2)
        churn(fs, blocks=5000)
        # The incremental victim must never be left dangling forever.
        assert fs.reclaim.stats.victims_reclaimed > 0
        assert fsck(fs).clean

    def test_needs_cleaning_threshold(self):
        fs, _ = make_fs(low_watermark=5)
        assert not fs.reclaim.needs_reclaim()
        # Consume sections until below the watermark.
        handle = fs.create("data")
        i = 0
        while fs.logs.free_section_count >= 5:
            handle.pwrite(i * PAGE, b"\x01" * PAGE)
            i += 1
        assert fs.reclaim.needs_reclaim()


class TestVictimPolicies:
    @pytest.mark.parametrize("policy", ["greedy", "cost_benefit"])
    def test_policies_clean_and_stay_consistent(self, policy):
        fs, _ = make_fs(policy=policy)
        churn(fs, blocks=5000)
        assert fs.reclaim.stats.victims_reclaimed > 0
        report = fsck(fs)
        assert report.clean, report.errors

    def test_greedy_prefers_emptier_sections(self):
        fs, _ = make_fs(policy="greedy")
        # Build two used sections with different valid fractions by
        # overwriting one file's blocks (invalidating its old section).
        handle = fs.create("data")
        blocks_per_section = fs.layout.blocks_per_section
        for i in range(blocks_per_section):
            handle.pwrite(i * PAGE, b"\x01" * PAGE)
        for i in range(blocks_per_section // 2):
            handle.pwrite(i * PAGE, b"\x02" * PAGE)  # invalidates half of s0
        victim = fs.reclaim.pick_victim()
        assert victim is not None
        # The victim must not be a pristine (fully valid) section when a
        # half-dead one exists.
        fractions = [
            fs.sit.valid_fraction(s)
            for s in range(fs.layout.num_sections)
            if not fs.logs.is_free(s) and s not in fs.logs.open_sections()
        ]
        assert fs.sit.valid_fraction(victim) == min(fractions)


class TestCleanerCallbacks:
    def test_migrated_blocks_keep_owner_coherence(self):
        fs, _ = make_fs()
        handle = churn(fs, blocks=5000)
        assert fs.reclaim.stats.units_migrated > 0
        report = fsck(fs)
        assert report.clean, report.errors[:3]
