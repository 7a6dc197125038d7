"""Unit tests for the page-mapped FTL: mapping, GC, and WA accounting."""

import pytest

from repro.errors import DeviceFullError
from repro.flash.ftl import FtlConfig, PageMappedFtl
from repro.flash.nand import NandGeometry
from repro.units import KIB


def make_ftl(op_ratio=0.25, blocks=32, pages=8, low=2, high=4) -> PageMappedFtl:
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=pages, num_blocks=blocks)
    return PageMappedFtl(geometry, FtlConfig(op_ratio, low, high))


class TestFtlBasics:
    def test_logical_capacity_below_physical(self):
        ftl = make_ftl(op_ratio=0.25)
        assert ftl.logical_pages < ftl.geometry.total_pages
        assert ftl.logical_capacity_bytes == ftl.logical_pages * 4 * KIB

    def test_spare_floor_enforced(self):
        """Even with op_ratio 0 the FTL keeps GC headroom."""
        ftl = make_ftl(op_ratio=0.0)
        spare = ftl.geometry.total_pages - ftl.logical_pages
        assert spare >= (ftl.config.gc_high_watermark + 1) * 8

    def test_write_maps_page(self):
        ftl = make_ftl()
        ftl.write_pages([3])
        assert ftl.physical_of(3) is not None

    def test_rewrite_moves_mapping(self):
        ftl = make_ftl()
        ftl.write_pages([3])
        first = ftl.physical_of(3)
        ftl.write_pages([3])
        assert ftl.physical_of(3) != first

    def test_out_of_range_lpn_rejected(self):
        ftl = make_ftl()
        with pytest.raises(DeviceFullError):
            ftl.write_pages([ftl.logical_pages])

    def test_refused_write_leaves_the_ftl_untouched(self):
        """``write_pages([ok, ok, bad])`` used to program the first two
        pages, then raise before counting them as host pages: the
        mapping moved and ``write_amplification`` ran over pages it
        never counted.  The run is validated before anything lands."""
        ftl = make_ftl()
        ftl.write_pages([1, 2, 3])

        def snapshot():
            return (
                dict(ftl._l2p),
                [
                    (list(b.lpns), b.valid_count, b.next_page, b.mtime)
                    for b in ftl._blocks
                ],
                list(ftl._free), ftl._active.index, ftl._tick,
                ftl.total_host_pages, ftl.total_moved_pages,
                ftl.total_erased_blocks, ftl.write_amplification,
                ftl.reclaim.stats.triggers,
            )

        before = snapshot()
        for run in ([1, 2, ftl.logical_pages], [4, -1], [ftl.logical_pages + 7]):
            with pytest.raises(DeviceFullError):
                ftl.write_pages(run)
            assert snapshot() == before
        assert ftl.write_pages([]).host_pages == 0 and snapshot() == before

    def test_discard_unmaps(self):
        ftl = make_ftl()
        ftl.write_pages([5])
        ftl.discard_pages([5])
        assert ftl.physical_of(5) is None

    def test_discard_unmapped_is_noop(self):
        ftl = make_ftl()
        ftl.discard_pages([5])  # must not raise
        assert ftl.physical_of(5) is None


class TestFtlGc:
    def fill(self, ftl: PageMappedFtl) -> None:
        ftl.write_pages(list(range(ftl.logical_pages)))

    def test_sequential_fill_no_wa(self):
        ftl = make_ftl()
        self.fill(ftl)
        assert ftl.total_moved_pages == 0
        assert ftl.write_amplification == pytest.approx(1.0)

    def test_overwrites_trigger_gc(self):
        ftl = make_ftl()
        self.fill(ftl)
        # Overwrite everything twice: GC must run and the device survives.
        for _ in range(2):
            self.fill(ftl)
        assert ftl.total_erased_blocks > 0
        assert ftl.free_block_count >= 1

    def test_sequential_overwrite_low_wa(self):
        """Whole-space sequential overwrite invalidates full blocks: WA ~ 1."""
        ftl = make_ftl()
        for _ in range(4):
            self.fill(ftl)
        assert ftl.write_amplification < 1.2

    def test_random_overwrite_wa_above_one(self):
        import random

        rng = random.Random(11)
        ftl = make_ftl(op_ratio=0.25)
        self.fill(ftl)
        for _ in range(ftl.logical_pages * 4):
            ftl.write_pages([rng.randrange(ftl.logical_pages)])
        assert ftl.write_amplification > 1.2

    def test_more_op_means_less_wa(self):
        """The paper's core premise: higher OP lowers device WA."""
        import random

        results = {}
        for op in (0.10, 0.40):
            rng = random.Random(13)
            ftl = make_ftl(op_ratio=op, blocks=64)
            self.fill(ftl)
            for _ in range(ftl.logical_pages * 4):
                ftl.write_pages([rng.randrange(ftl.logical_pages)])
            results[op] = ftl.write_amplification
        assert results[0.40] < results[0.10]

    def test_discard_reduces_gc_load(self):
        """TRIMmed pages are not relocated, so WA drops."""
        import random

        def run(discard: bool) -> float:
            rng = random.Random(17)
            ftl = make_ftl(op_ratio=0.15, blocks=64)
            self.fill(ftl)
            for _ in range(ftl.logical_pages * 3):
                lpn = rng.randrange(ftl.logical_pages)
                if discard:
                    ftl.discard_pages([lpn])
                ftl.write_pages([lpn])
            return ftl.write_amplification

        assert run(discard=True) <= run(discard=False)

    def test_mapping_survives_gc(self):
        """After heavy churn every logical page still has a unique mapping."""
        import random

        rng = random.Random(19)
        ftl = make_ftl()
        self.fill(ftl)
        for _ in range(ftl.logical_pages * 3):
            ftl.write_pages([rng.randrange(ftl.logical_pages)])
        locations = [ftl.physical_of(lpn) for lpn in range(ftl.logical_pages)]
        assert all(loc is not None for loc in locations)
        assert len(set(locations)) == len(locations)


class TestFtlConfigValidation:
    def test_bad_op_ratio(self):
        with pytest.raises(ValueError):
            FtlConfig(op_ratio=1.0)
        with pytest.raises(ValueError):
            FtlConfig(op_ratio=-0.1)

    def test_bad_watermarks(self):
        with pytest.raises(ValueError):
            FtlConfig(gc_low_watermark=0)
        with pytest.raises(ValueError):
            FtlConfig(gc_low_watermark=5, gc_high_watermark=3)
