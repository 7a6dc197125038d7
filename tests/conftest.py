"""Shared fixtures for the test suite: small device geometries that keep
tests fast while still exercising multi-block / multi-zone behaviour."""

from __future__ import annotations

import pytest

from repro.bench.experiments import run_sweep
from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    FtlConfig,
    NandGeometry,
    ZnsConfig,
    ZnsSsd,
)
from repro.sim import SimClock
from repro.units import KIB


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def small_geometry() -> NandGeometry:
    """64 blocks x 16 pages x 4 KiB = 4 MiB raw media."""
    return NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=64)


@pytest.fixture
def block_ssd(clock: SimClock, small_geometry: NandGeometry) -> BlockSsd:
    config = BlockSsdConfig(
        geometry=small_geometry,
        ftl=FtlConfig(op_ratio=0.25, gc_low_watermark=2, gc_high_watermark=4),
    )
    return BlockSsd(clock, config)


@pytest.fixture
def zns_ssd(clock: SimClock, small_geometry: NandGeometry) -> ZnsSsd:
    """16 zones of 4 NAND blocks (256 KiB) each."""
    config = ZnsConfig(
        geometry=small_geometry,
        zone_size=4 * small_geometry.block_size,
        max_open_zones=4,
        max_active_zones=6,
    )
    return ZnsSsd(clock, config)


def make_payload(length: int, tag: int) -> bytes:
    """Deterministic recognisable payload for read-back checks."""
    unit = bytes([tag % 256]) * 64
    reps = -(-length // len(unit))
    return (unit * reps)[:length]


@pytest.fixture(scope="session")
def sweep_rows():
    """``sweep_rows(name, size="smoke")``: an experiment's rows at a
    registry size, computed once per session.  For tests that only
    *read* rows — a determinism test takes its first run from here and
    keeps its own second run."""
    memo: dict = {}

    def rows(name: str, size: str = "smoke"):
        return run_sweep(name, size, memo)

    return rows
