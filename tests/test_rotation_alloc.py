"""Allocation guard for the foreground rotation path.

Sealing a region must copy it exactly once — open buffer to media — and
allocate nothing region-sized on the way: no ``bytes(buffer)`` in
``finalize``, no per-page ``bytes`` in a device store, no ``join`` on the
way back.  Such a copy does not change a single simulated number, so no
golden notices it; it only shows up as benchmark noise (region-sized
transients make the allocator grow and trim the heap every rotation).
``tracemalloc`` sees it on any machine.

Steady-state rotations are measured per scheme (every region slot has
been written and reclaimed before), on rotations where background
relocation was quiescent: an F2FS checkpoint pickles its tables, and a
ZTL migration is measured on its own below — its survivors move chunk to
chunk inside the device and never come up the stack as ``bytes``.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
from repro.sim import SimClock
from repro.units import KIB, MIB
from repro.ztl import GcConfig, RegionTranslationLayer, ZtlConfig

SCALE = SchemeScale(
    zone_size=512 * KIB, region_size=128 * KIB, pages_per_block=32, ram_bytes=16 * KIB
)
MEDIA = 8 * MIB
CACHE = 5 * MIB


def _background_work(stack) -> int:
    """Counter that moves whenever a relocation or checkpoint ran."""
    total = 0
    layer = stack.substrate.get("layer")
    if layer is not None:
        total += layer.stats.migrated_region_writes
    fs = stack.substrate.get("fs")
    if fs is not None:
        total += fs.stats.checkpoints
    return total


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_rotation_allocates_nothing_region_sized(scheme):
    stack = build_scheme(
        scheme, SimClock(), SCALE, MEDIA, CACHE, file_media_bytes=12 * MIB
    )
    cache = stack.cache
    region_size = cache.config.region_size
    rng = random.Random(11)

    def one_set() -> None:
        key = b"key%05d" % rng.randrange(6000)
        cache.set(key, bytes([rng.randrange(1, 256)]) * rng.randrange(500, 3500))

    # Steady state: every region slot has been written and reclaimed at
    # least once, so the device holds about as much as it ever will.
    while cache.regions.regions_evicted < 2 * cache.config.num_regions:
        one_set()

    quiescent_peaks = []
    tracemalloc.start()
    try:
        for _ in range(20_000):
            flushes, background = cache.stats.flushes, _background_work(stack)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            one_set()
            after, peak = tracemalloc.get_traced_memory()
            if cache.stats.flushes == flushes:
                continue
            if _background_work(stack) == background:
                # Transient = above both ends: chunks the device keeps for
                # the newly stored region are not a copy, they are the data.
                quiescent_peaks.append(peak - max(before, after))
            if len(quiescent_peaks) >= 4:
                break
    finally:
        tracemalloc.stop()
    assert quiescent_peaks, "no rotation without background relocation seen"
    assert max(quiescent_peaks) < region_size // 2, (
        f"{scheme}: a rotation transiently allocated {max(quiescent_peaks)}B "
        f"(region is {region_size}B) — something copies the region again"
    )


def test_gc_step_moves_its_survivors_without_a_region_sized_transient():
    region, survivors = 32 * KIB, 12
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=32)
    device = ZnsSsd(SimClock(), ZnsConfig(geometry=geometry, zone_size=512 * KIB))
    layer = RegionTranslationLayer(
        device,
        ZtlConfig(
            region_size=region,
            host_open_zones=1,
            gc=GcConfig(min_empty_zones=1, victim_valid_threshold=1.0),
        ),
    )
    slots = layer.slots_per_zone

    def fill_a_zone_then_kill(first_region: int) -> None:
        for region_id in range(first_region, first_region + slots):
            layer.write_region(region_id, bytes([region_id % 251 + 1]) * region)
        for region_id in range(first_region, first_region + slots - survivors):
            layer.invalidate_region(region_id)

    fill_a_zone_then_kill(0)
    assert layer.reclaim.collect() == 1  # everything has run once before measuring
    fill_a_zone_then_kill(slots)
    migrated = layer.stats.migrated_region_writes
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert layer.reclaim.collect() == 1
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert layer.stats.migrated_region_writes == migrated + survivors
    # Above both ends: the chunks the survivors now occupy are the data.
    assert peak - max(before, after) < region, (
        f"a GC step over {survivors} survivors transiently allocated "
        f"{peak - max(before, after)}B (a region is {region}B)"
    )
    for region_id in range(2 * slots - survivors, 2 * slots):
        assert layer.read_region(region_id).data == bytes([region_id % 251 + 1]) * region
