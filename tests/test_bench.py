"""Tests for the benchmark harness: reporting, scheme builders, and
small-scale shape checks of the experiment functions."""

import csv
import io

import pytest

from repro.bench import (
    SCHEME_NAMES,
    SchemeScale,
    build_scheme,
    format_table,
    rows_to_csv,
)
from repro.bench.experiments import run_sweep
from repro.sim import SimClock
from repro.units import KIB

SMALL = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
    ram_bytes=32 * KIB,
)


class TestReporting:
    ROWS = [
        {"scheme": "A", "value": 1.23456, "count": 7},
        {"scheme": "B", "value": 2.0, "count": None},
    ]

    def test_format_table_contains_all_cells(self):
        text = format_table(self.ROWS, title="T")
        assert "T" in text
        assert "scheme" in text
        assert "1.235" in text  # 4 significant digits
        assert "B" in text

    def test_format_table_column_subset(self):
        text = format_table(self.ROWS, columns=["scheme"])
        assert "value" not in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_csv(self):
        lines = rows_to_csv(self.ROWS).splitlines()
        assert lines[0] == "scheme,value,count"
        assert lines[1].startswith("A,1.235")
        assert lines[2].endswith(",")  # None renders empty

    def test_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_csv_quotes_what_would_shift_columns(self):
        """Regression: cells were joined with "," unquoted, so a value
        holding a comma (``str(list)``) silently shifted every column
        after it.  Comma-free cells render byte-for-byte as before."""
        rows = [
            {"a": "[1, 2]", "b": 'say "hi"', "c": "two\nlines", "d": 1.5},
            {"a": "plain", "b": None, "c": 7, "d": 2.0},
        ]
        text = rows_to_csv(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed == [
            ["a", "b", "c", "d"],
            ["[1, 2]", 'say "hi"', "two\nlines", "1.5"],
            ["plain", "", "7", "2"],
        ]
        assert text.splitlines()[-1] == "plain,,7,2"
        assert not text.endswith("\n")


class TestSchemeBuilders:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_build_scheme_by_name(self, name):
        media = 16 * SMALL.zone_size
        file_media = 2 * media if name == "File-Cache" else media
        stack = build_scheme(name, SimClock(), SMALL, file_media, 12 * SMALL.zone_size)
        assert stack.name == name
        stack.cache.set(b"k", b"v")
        assert stack.cache.get(b"k") == b"v"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("Quantum-Cache", SimClock(), SMALL, 1, 1)

    def test_matched_hardware(self):
        """Zone and Region schemes share NAND geometry — the paper's
        'hardware compatible' premise."""
        media = 16 * SMALL.zone_size
        zone = build_scheme("Zone-Cache", SimClock(), SMALL, media, media)
        region = build_scheme("Region-Cache", SimClock(), SMALL, media, media // 2)
        zone_geo = zone.substrate["device"].config.geometry
        region_geo = region.substrate["device"].config.geometry
        assert zone_geo == region_geo

    def test_zone_cache_has_no_op(self):
        media = 16 * SMALL.zone_size
        stack = build_scheme("Zone-Cache", SimClock(), SMALL, media, media)
        assert stack.cache_bytes == media  # the whole device caches

    def test_block_cache_exports_less_than_media(self):
        media = 16 * SMALL.zone_size
        stack = build_scheme("Block-Cache", SimClock(), SMALL, media, media)
        # FTL over-provisioning shrinks what the cache can use.
        assert stack.cache_bytes < media


class TestExperimentShapes:
    """Miniature experiment runs: fast, checking structure not numbers."""

    @pytest.fixture(scope="class")
    def fig2_rows(self):
        return run_sweep(
            "fig2", scale=SMALL, zones=8, cache_zones=6, file_zones=14,
            num_keys=1200, num_ops=2500,
        )

    def test_fig2_rows_structure(self, fig2_rows):
        assert {r["scheme"] for r in fig2_rows} == set(SCHEME_NAMES)
        for row in fig2_rows:
            assert row["throughput_mops_per_min"] > 0
            assert 0 <= row["hit_ratio"] <= 1
            assert row["waf_app"] >= 1.0

    def test_fig2_zone_cache_is_biggest(self, fig2_rows):
        by_scheme = {r["scheme"]: r for r in fig2_rows}
        assert by_scheme["Zone-Cache"]["cache_mib"] > by_scheme["Block-Cache"]["cache_mib"]

    def test_fig3_series_structure(self):
        rows = run_sweep("fig3", scale=SMALL, zones=8, num_sets=3000)
        series = {"large_region": [], "small_region": []}
        for row in rows:
            series[row["series"]].append(row)
        # Small regions seal far more often than zone-sized ones.
        assert len(series["small_region"]) > 4 * len(series["large_region"])
        for points in series.values():
            assert all(p["fill_time_us"] >= 0 for p in points)
