"""Structural guard for the cost of a ``set`` and of the region flush it
triggers — the write-side twin of ``test_read_path_cost.py``.

An admitted ``set`` does one DRAM-tier insert, two slice copies into the
open region's buffer, one header pack and one index store; every
``region_size`` bytes it also seals the region, which hands the buffer
down to the scheme's media and takes a fresh region.  Everything else it
runs is host overhead no simulated number shows, so what is pinned is
the Python frames entered, counted with ``sys.setprofile`` one ``set`` at
a time on a fresh stack of each scheme, at two geometries:

* ``small`` — the 1 MiB-zone / 16 KiB-region stack the other cost guards
  use (four 4 KiB blocks or pages per flush);
* ``closed_fill`` — the geometry ``BENCHMARK.json``'s ``closed_fill``
  provisions (4 MiB zones, 64 KiB regions, sixteen blocks or pages per
  flush), where the per-block work of ``F2fs.pwrite`` and the per-page
  GC poll of ``PageMappedFtl.write_pages`` used to dominate a flush.

A new wrapper, property or helper on the path shows up as a frame.  That
the flush, the F2FS remap and the FTL placement still *emit* what they
did is pinned by the full-field trace-stream digests of
``test_read_path_cost.py`` (``PARENT_STREAM_DIGESTS``), which this change
left untouched.
"""

from __future__ import annotations

import gc
from typing import NamedTuple

import pytest

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.sim import SimClock
from repro.units import KIB, MIB
from tests.test_trace_cost import _python_calls

# Frames per admitted set that does not seal a region (the commit before:
# 8, and 9 on Z-Cache, whose TinyLFU admission counts the key).
MAX_FRAMES_PER_PLAIN_SET = {
    "Region-Cache": 5,
    "Zone-Cache": 5,
    "File-Cache": 5,
    "Block-Cache": 5,
    "Z-Cache": 6,
}

# Mean frames per set that seals a region, the plain part included, over
# the first sets of a fresh stack (no eviction or reclaim yet), rounded
# up.  Before the run-granular remap, same harness:
#   small        68 / 103 / 166 /  74 /  76
#   closed_fill  70 / 233 / 315 / 158 /  80
# Each region write's reclaim check calls the layer's engine directly (no
# collector facade in between): two frames fewer per flush on the ZTL
# schemes, one on File-Cache.
MAX_FRAMES_PER_ROTATING_SET = {
    "small": {
        "Region-Cache": 63,
        "Zone-Cache": 100,
        "File-Cache": 116,
        "Block-Cache": 48,
        "Z-Cache": 71,
    },
    "closed_fill": {
        "Region-Cache": 65,
        "Zone-Cache": 230,
        "File-Cache": 121,
        "Block-Cache": 48,
        "Z-Cache": 75,
    },
}

class _Geometry(NamedTuple):
    scale: SchemeScale
    media: int
    cache_bytes: int
    file_media: int  # File-Cache's F2FS gets 1.5x the zones, as in Figure 2
    value_bytes: int
    sets: int
    zone_cache_sets: int  # Zone-Cache's region is a whole zone


_GEOMETRIES = {
    "small": _Geometry(
        SchemeScale(zone_size=1 * MIB, region_size=16 * KIB, pages_per_block=64),
        8 * MIB, 4 * MIB, 12 * MIB, 1200, 400, 1000,
    ),
    "closed_fill": _Geometry(
        SchemeScale(), 100 * MIB, 80 * MIB, 152 * MIB, 3500, 600, 1300
    ),
}


def _stack(scheme: str, geometry: _Geometry):
    if scheme == "Zone-Cache":
        return build_scheme(
            scheme, SimClock(), geometry.scale, geometry.media, eviction_policy="fifo"
        )
    return build_scheme(
        scheme, SimClock(), geometry.scale, geometry.media, geometry.cache_bytes,
        file_media_bytes=geometry.file_media, eviction_policy="fifo",
        reclaim_window=128,
    )


def _frames_per_set(scheme: str, geometry: _Geometry):
    """``(plain, rotating)``: the frame count of every set of fresh keys
    on a fresh stack, split by whether the set sealed a region."""
    cache = _stack(scheme, geometry).cache
    sets = geometry.zone_cache_sets if scheme == "Zone-Cache" else geometry.sets
    value = b"v" * geometry.value_bytes
    plain, rotating = [], []
    # A collection inside a profiled set would count the frames of
    # whatever ``gc.callbacks`` the test session has installed
    # (hypothesis times collections that way).
    gc.disable()
    try:
        for index in range(sets):
            key = b"key-%06d" % index
            flushes = cache.stats.flushes
            frames = _python_calls(lambda: cache.set(key, value))
            (rotating if cache.stats.flushes != flushes else plain).append(len(frames))
    finally:
        gc.enable()
    assert cache.stats.sets_admitted == sets
    return plain, rotating


@pytest.mark.parametrize("geometry", list(_GEOMETRIES))
@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_frames_per_set(scheme, geometry):
    plain, rotating = _frames_per_set(scheme, _GEOMETRIES[geometry])
    assert len(plain) > 10 * len(rotating) > 0
    assert max(plain) <= MAX_FRAMES_PER_PLAIN_SET[scheme], sorted(set(plain))
    mean_rotating = sum(rotating) / len(rotating)
    assert mean_rotating <= MAX_FRAMES_PER_ROTATING_SET[geometry][scheme], (
        mean_rotating, sorted(set(rotating)),
    )
