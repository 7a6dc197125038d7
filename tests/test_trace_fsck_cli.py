"""Tests for a device's trace records, the F2FS fsck, and the CLI."""

import random

import pytest

from repro.cli import build_parser, run
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig, fsck
from repro.flash import IoTracer, NandGeometry, NullBlkDevice, ZnsConfig, ZnsSsd
from repro.sim import SimClock
from repro.units import KIB, MIB

PAGE = 4 * KIB


class TestDeviceRecords:
    """What a flat per-command trace gave, read off the stack's one
    record stream (:class:`~repro.sim.io.IoTracer`)."""

    def make_traced(self):
        tracer = IoTracer().enable()
        return NullBlkDevice(SimClock(), capacity_bytes=1 * MIB, tracer=tracer), tracer

    def test_records_reads_and_writes(self):
        device, tracer = self.make_traced()
        device.write(0, b"x" * PAGE)
        device.read(0, PAGE)
        assert [(r.layer, r.op) for r in tracer.records] == [
            ("nullblk", "write"), ("nullblk", "read"),
        ]

    def test_timestamps_increase(self):
        device, tracer = self.make_traced()
        device.write(0, b"x" * PAGE)
        device.write(PAGE, b"x" * PAGE)
        first, second = tracer.records
        assert second.submitted_ns >= first.completed_ns > first.submitted_ns

    def test_bytes_by_op(self):
        device, tracer = self.make_traced()
        device.write(0, b"x" * PAGE)
        device.write(PAGE, b"x" * PAGE)
        device.read(0, PAGE)
        assert [(r.op, r.offset, r.length) for r in tracer.records] == [
            ("write", 0, PAGE), ("write", PAGE, PAGE), ("read", 0, PAGE),
        ]

    def test_clear(self):
        device, tracer = self.make_traced()
        device.read(0, PAGE)
        tracer.clear()
        assert len(tracer) == 0


class TestFsck:
    def make_fs(self):
        clock = SimClock()
        geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=256)
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=8 * geometry.block_size))
        meta = NullBlkDevice(clock, capacity_bytes=8 * MIB)
        fs = F2fs(clock, zns, meta, F2fsConfig(checkpoint_interval_blocks=1 << 30),
                  CleanerConfig())
        fs.mkfs()
        return fs

    def populate(self, fs, blocks=600, seed=3):
        handle = fs.create("data")
        rng = random.Random(seed)
        for step in range(blocks):
            index = rng.randrange(blocks // 2)
            handle.pwrite(index * PAGE, bytes([step % 251 + 1]) * PAGE)
        return handle

    def test_clean_after_churn(self):
        fs = self.make_fs()
        self.populate(fs)
        report = fsck(fs)
        assert report.clean, report.errors
        assert report.checked_blocks > 0

    def test_clean_after_cleaning_and_remount(self):
        fs = self.make_fs()
        self.populate(fs, blocks=3000)
        assert fs.reclaim.stats.victims_reclaimed > 0
        assert fsck(fs).clean
        fs.checkpoint()
        remounted = F2fs.mount(SimClock(), fs.data_device, fs.meta_device,
                               F2fsConfig(checkpoint_interval_blocks=1 << 30))
        assert fsck(remounted).clean

    def test_detects_lost_block(self):
        fs = self.make_fs()
        self.populate(fs)
        # Corrupt: invalidate a mapped block behind the filesystem's back.
        file_id = fs.nat.lookup_file("data")
        addr = fs.nat.get_block(file_id, 0)
        fs.sit.mark_invalid(addr)
        report = fsck(fs)
        assert not report.clean

    def test_detects_owner_mismatch(self):
        fs = self.make_fs()
        self.populate(fs)
        file_id = fs.nat.lookup_file("data")
        addr = fs.nat.get_block(file_id, 0)
        fs.sit.mark_valid(addr, (file_id, 999_999))
        assert not fsck(fs).clean

    def test_detects_shared_block(self):
        fs = self.make_fs()
        self.populate(fs)
        file_id = fs.nat.lookup_file("data")
        addr = fs.nat.get_block(file_id, 0)
        other = fs.create("other")
        fs.nat.set_block(other.file_id, 0, addr)
        fs.nat.update_size(other.file_id, PAGE)
        assert not fsck(fs).clean


class TestCli:
    def test_parser_accepts_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--quick"])
        assert args.experiment == "fig2"
        assert args.quick

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    @pytest.mark.slow
    def test_cli_runs_fig3_quick(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = run(["fig3", "--quick", "--csv", str(csv_path), "--max-rows", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "experiment" in header
