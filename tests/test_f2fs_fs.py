"""Integration tests for the F2FS-like filesystem on ZNS + nullblk."""

import random

import pytest

from repro.errors import (
    AlignmentError,
    FileExistsInFsError,
    FileNotFoundInFsError,
    NoSpaceError,
)
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig, fsck
from repro.f2fs.segment import LogStream
from repro.flash import NandGeometry, NullBlkDevice, ZnsConfig, ZnsSsd
from repro.flash.zone import ZoneState
from repro.sim import SimClock
from repro.units import KIB, MIB

BLOCK = 4 * KIB


def make_fs(
    num_blocks=512,
    zone_blocks=8,
    provision=0.20,
    policy="cost_benefit",
    checkpoint_interval=10**6,
):
    clock = SimClock()
    geometry = NandGeometry(page_size=BLOCK, pages_per_block=16, num_blocks=num_blocks)
    zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=zone_blocks * geometry.block_size))
    meta = NullBlkDevice(clock, capacity_bytes=8 * MIB)
    fs = F2fs(
        clock,
        zns,
        meta,
        F2fsConfig(provision_ratio=provision, checkpoint_interval_blocks=checkpoint_interval),
        CleanerConfig(policy=policy),
    )
    fs.mkfs()
    return fs


def blockdata(tag: int, blocks: int = 1) -> bytes:
    return bytes([tag % 251 + 1]) * (BLOCK * blocks)


class TestF2fsNamespace:
    def test_create_open(self):
        fs = make_fs()
        fs.create("a")
        handle = fs.open("a")
        assert handle.name == "a"
        assert fs.exists("a")

    def test_create_duplicate_rejected(self):
        fs = make_fs()
        fs.create("a")
        with pytest.raises(FileExistsInFsError):
            fs.create("a")

    def test_open_missing_rejected(self):
        fs = make_fs()
        with pytest.raises(FileNotFoundInFsError):
            fs.open("missing")

    def test_delete_frees_space(self):
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(0, blockdata(1, 8))
        live_before = fs.live_bytes
        fs.delete("a")
        assert fs.live_bytes < live_before
        assert not fs.exists("a")

    def test_unformatted_rejected(self):
        fs = make_fs()
        fs._mkfs_done = False
        with pytest.raises(NoSpaceError):
            fs.create("a")


class TestF2fsIo:
    def test_write_read_roundtrip(self):
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(0, blockdata(7, 4))
        assert handle.pread(0, 4 * BLOCK) == blockdata(7, 4)

    def test_sparse_read_returns_zeros(self):
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(4 * BLOCK, blockdata(1))
        data = handle.pread(0, 8 * BLOCK)
        assert data[: 4 * BLOCK] == b"\x00" * (4 * BLOCK)
        assert data[4 * BLOCK : 5 * BLOCK] == blockdata(1)

    def test_overwrite_replaces(self):
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(0, blockdata(1, 2))
        handle.pwrite(0, blockdata(2, 2))
        assert handle.pread(0, 2 * BLOCK) == blockdata(2, 2)

    def test_overwrite_does_not_grow_live(self):
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(0, blockdata(1, 4))
        live = fs.live_bytes
        handle.pwrite(0, blockdata(2, 4))
        assert fs.live_bytes == live

    def test_unaligned_rejected(self):
        fs = make_fs()
        handle = fs.create("a")
        with pytest.raises(AlignmentError):
            handle.pwrite(1, blockdata(1))
        with pytest.raises(AlignmentError):
            handle.pread(0, 100)

    def test_size_tracks_high_water(self):
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(8 * BLOCK, blockdata(1))
        assert handle.size == 9 * BLOCK

    def test_enospc_on_overfill(self):
        fs = make_fs(num_blocks=128, zone_blocks=8)
        handle = fs.create("a")
        usable_blocks = fs.usable_bytes // BLOCK
        with pytest.raises(NoSpaceError):
            for i in range(usable_blocks + 8):
                handle.pwrite(i * BLOCK, blockdata(i))

    def test_write_latency_returned(self):
        fs = make_fs()
        handle = fs.create("a")
        assert handle.pwrite(0, blockdata(1)) > 0


class TestF2fsCleaning:
    def churn(self, fs, utilization=0.8, steps=1200, extent=4, seed=9):
        handle = fs.create("cache")
        nblocks = int(fs.usable_bytes * utilization) // BLOCK
        nextents = nblocks // extent
        expected = {}
        for i in range(nextents):
            handle.pwrite(i * extent * BLOCK, blockdata(i, extent))
            expected[i] = i
        rng = random.Random(seed)
        for step in range(steps):
            i = rng.randrange(nextents)
            tag = 10_000 + step
            handle.pwrite(i * extent * BLOCK, blockdata(tag, extent))
            expected[i] = tag
        return handle, expected, extent

    def test_cleaning_occurs_and_data_survives(self):
        fs = make_fs()
        handle, expected, extent = self.churn(fs)
        assert fs.reclaim.stats.victims_reclaimed > 0
        for i, tag in expected.items():
            assert handle.pread(i * extent * BLOCK, extent * BLOCK) == blockdata(
                tag, extent
            ), i

    def test_fs_waf_above_one_under_churn(self):
        fs = make_fs()
        self.churn(fs)
        assert fs.stats.write_amplification > 1.0

    def test_greedy_policy_also_works(self):
        fs = make_fs(policy="greedy")
        handle, expected, extent = self.churn(fs, steps=800)
        assert fs.reclaim.stats.victims_reclaimed > 0
        for i, tag in list(expected.items())[:64]:
            assert handle.pread(i * extent * BLOCK, extent * BLOCK) == blockdata(
                tag, extent
            )

    @pytest.mark.slow
    def test_more_provisioning_less_waf(self):
        """The Table 1 trend: higher OP ratio → lower FS-level WAF."""
        wafs = {}
        for provision in (0.10, 0.30):
            fs = make_fs(provision=provision)
            # A cache sized to the filesystem's usable space: more
            # provisioning → lower media utilization → cheaper cleaning.
            target_bytes = int(fs.usable_bytes * 0.85)
            handle = fs.create("cache")
            extent = 4
            nextents = target_bytes // BLOCK // extent
            rng = random.Random(21)
            for i in range(nextents):
                handle.pwrite(i * extent * BLOCK, blockdata(i, extent))
            for step in range(3000):
                handle.pwrite(
                    rng.randrange(nextents) * extent * BLOCK, blockdata(step, extent)
                )
            wafs[provision] = fs.stats.write_amplification
        assert wafs[0.30] < wafs[0.10]

    def test_device_wa_stays_one(self):
        """All cleaning is host-side: the ZNS device never amplifies."""
        fs = make_fs()
        self.churn(fs, steps=600)
        assert fs.data_device.stats.write_amplification == 1.0

    def test_meta_writes_charged(self):
        fs = make_fs()
        self.churn(fs, steps=300)
        assert fs.stats.meta_write_bytes > 0


class TestF2fsCheckpoint:
    def test_checkpoint_and_mount(self):
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(0, blockdata(3, 4))
        fs.checkpoint()
        remounted = F2fs.mount(
            SimClock(), fs.data_device, fs.meta_device,
            F2fsConfig(checkpoint_interval_blocks=10**6),
        )
        assert remounted.open("a").pread(0, 4 * BLOCK) == blockdata(3, 4)

    def test_mount_appends_at_the_write_pointer_past_the_checkpoint(self):
        """The checkpoint stores each log head's section only: a mount
        after writes the checkpoint never saw appends where the device
        says the zone stands."""
        fs = make_fs()
        handle = fs.create("a")
        handle.pwrite(0, blockdata(3, 4))
        fs.checkpoint()
        handle.pwrite(4 * BLOCK, blockdata(4, 4))
        remounted = F2fs.mount(
            SimClock(), fs.data_device, fs.meta_device,
            F2fsConfig(checkpoint_interval_blocks=10**6),
        )
        again = remounted.open("a")
        again.pwrite(4 * BLOCK, blockdata(5, 4))
        assert again.pread(0, 8 * BLOCK) == blockdata(3, 4) + blockdata(5, 4)
        report = fsck(remounted)
        assert report.clean, report.errors

    def test_mount_without_mkfs_rejected(self):
        clock = SimClock()
        geometry = NandGeometry(page_size=BLOCK, pages_per_block=16, num_blocks=128)
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=8 * geometry.block_size))
        meta = NullBlkDevice(clock, capacity_bytes=1 * MIB)
        with pytest.raises(NoSpaceError):
            F2fs.mount(clock, zns, meta)

    def test_periodic_checkpoint_triggers(self):
        fs = make_fs(checkpoint_interval=32)
        handle = fs.create("a")
        for i in range(64):
            handle.pwrite(i * BLOCK, blockdata(i))
        assert fs.stats.checkpoints >= 1

    def test_mount_after_churn_preserves_everything(self):
        fs = make_fs()
        handle = fs.create("cache")
        rng = random.Random(31)
        expected = {}
        nblocks = (fs.usable_bytes // BLOCK) // 2
        for step in range(nblocks * 3):
            i = rng.randrange(nblocks)
            handle.pwrite(i * BLOCK, blockdata(step))
            expected[i] = step
        fs.checkpoint()
        remounted = F2fs.mount(
            SimClock(), fs.data_device, fs.meta_device,
            F2fsConfig(checkpoint_interval_blocks=10**6),
        )
        handle2 = remounted.open("cache")
        for i, tag in expected.items():
            assert handle2.pread(i * BLOCK, BLOCK) == blockdata(tag), i


class TestF2fsDeadZone:
    def test_dead_section_under_a_rolled_head_rewrites_after_the_pending_run(self):
        """A pwrite spans section A into section B; A dies before the
        batch lands.  The run meant for A is allocated afresh from the
        hot log, whose head is already on B with B's run still pending
        at B's write pointer: the fresh run must land after it."""
        fs = make_fs()
        per_section = fs.layout.blocks_per_section
        handle = fs.create("a")
        handle.pwrite(0, blockdata(1, per_section - 4))
        section_a = fs.logs.head_of(LogStream.HOT_DATA).section
        fs.data_device.zones[section_a].die(ZoneState.READ_ONLY)
        data = b"".join(blockdata(10 + i) for i in range(12))
        handle.pwrite((per_section - 4) * BLOCK, data)
        section_b = fs.logs.head_of(LogStream.HOT_DATA).section
        assert fs.logs.is_retired(section_a) and section_b != section_a
        mapped = [
            fs.nat.get_block(handle.file_id, per_section - 4 + i) for i in range(12)
        ]
        base = section_b * per_section
        # B's run (file blocks 4-11) first, then the fresh run (0-3).
        assert mapped == list(range(base + 8, base + 12)) + list(range(base, base + 8))
        assert handle.pread((per_section - 4) * BLOCK, 12 * BLOCK) == data
        assert handle.pread(0, BLOCK) == blockdata(1)
        report = fsck(fs)
        assert report.clean, report.errors
