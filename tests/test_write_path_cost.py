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

A fresh stack flushes into empty media.  The *warm* pin measures the
rotation the benchmarks actually time: a stack past its first region
eviction and past its backend's first reclaim, so every seal also tears
down an evicted region (index, journal, ``invalidate_region``) and the
write it makes runs the layer's reclaim step — ZTL zone GC, the F2FS
cleaner, the FTL drain.  It counts the frames of each
``_seal_and_rotate`` (its own included) over a window of a keyed
random set/delete stream, at the ``closed_fill`` geometry and at the
serving fleets' ``SERVING_SCALE`` shard.

A new wrapper, property or helper on the path shows up as a frame.  That
the flush, the F2FS remap and the FTL placement still *emit* what they
did is pinned by the full-field trace-stream digests of
``test_read_path_cost.py`` (``PARENT_STREAM_DIGESTS``), which this change
left untouched.
"""

from __future__ import annotations

import gc
import random
from typing import Callable, NamedTuple

import pytest

from repro.bench.fleet import SERVING_SCALE, reclaim_overrides
from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme, provision
from repro.sim import SimClock
from repro.units import KIB, MIB
from tests.helpers import python_calls

# Frames per admitted set that does not seal a region: ``set`` itself,
# which runs the DRAM-tier insert and packs the entry in line; Z-Cache's
# TinyLFU admission adds its ``admit`` (the sketch count in line).
# (Before the in-line insert and pack: 3, and 5 on Z-Cache; before the
# one-frame set: 5 and 6; before that 8 and 9.)
MAX_FRAMES_PER_PLAIN_SET = {
    "Region-Cache": 1,
    "Zone-Cache": 1,
    "File-Cache": 1,
    "Block-Cache": 1,
    "Z-Cache": 2,
}

# Frames per ``delete`` of a key whose copy sits in a sealed region:
# ``delete`` (DRAM removal and the dead-copy journal in line) and the
# region manager's ``note_key_removed`` (the ledger count in line).
# Before: 6 — ``delete``, ``RamCache.remove``, ``_note_removed``,
# ``_journal_dead``, ``note_key_removed``, ``LivenessLedger.note_dead``.
MAX_FRAMES_PER_SEALED_DELETE = 2

# Mean frames per set that seals a region, the plain part included, over
# the first sets of a fresh stack (no eviction or reclaim yet), rounded
# up.  Region / Zone / File / Block / Z-Cache, same harness:
#   before the run-granular remap    small 68 / 103 / 166 / 74 / 76
#                                    closed_fill 70 / 233 / 315 / 158 / 80
#   before the one-pass rotation     small 61.7 / 99 / 113.7 / 46.3 / 69.9
#                                    closed_fill 63.6 / 229 / 118.8 / 46.4 / 73.8
#   before one owner per slot        small 27.5 / 27 / 52.0 / 23.2 / 30.3
#   (the ZTL's and SIT's bitmaps)    closed_fill 27.5 / 27 / 54.0 / 23.3 / 30.3
#   now                              small 24.5 / 27 / 49.0 / 23.2 / 27.3
#                                    closed_fill 24.5 / 27 / 51.0 / 23.3 / 27.3
MAX_FRAMES_PER_ROTATING_SET = {
    "small": {
        "Region-Cache": 25,
        "Zone-Cache": 27,
        "File-Cache": 50,
        "Block-Cache": 24,
        "Z-Cache": 28,
    },
    "closed_fill": {
        "Region-Cache": 25,
        "Zone-Cache": 27,
        "File-Cache": 52,
        "Block-Cache": 24,
        "Z-Cache": 28,
    },
}

# Mean frames per ``_seal_and_rotate`` on a warm stack (eviction and the
# backend's reclaim both running), rounded up.  Before the one-pass
# rotation, same harness, Region / Zone / File / Block / Z-Cache:
#   closed_fill  89.4 / 310 / 134.2 / 85.6 / 112.9
#   serving     243.2 / 100 / 144.1 / 82.6 / 163.6
# and before one owner per slot (the ZTL's and SIT's bitmaps):
#   closed_fill  43.8 / 41 / 63.0 / 31.7 / 52.0
#   serving     126.5 / 41 / 67.9 / 33.9 / 81.1
MAX_FRAMES_PER_WARM_SEAL = {
    "closed_fill": {
        "Region-Cache": 37,
        "Zone-Cache": 41,
        "File-Cache": 59,
        "Block-Cache": 32,
        "Z-Cache": 43,
    },
    "serving": {
        "Region-Cache": 94,
        "Zone-Cache": 41,
        "File-Cache": 64,
        "Block-Cache": 34,
        "Z-Cache": 66,
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
            frames = python_calls(lambda: cache.set(key, value))
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


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_frames_per_sealed_delete(scheme):
    geometry = _GEOMETRIES["small"]
    cache = _stack(scheme, geometry).cache
    value = b"v" * geometry.value_bytes
    keys = [b"key-%06d" % index for index in range(geometry.sets)]
    for key in keys:
        cache.set(key, value)
    cache.flush()
    sealed = [key for key in keys if key in cache.index]
    assert len(sealed) > 100
    gc.disable()
    try:
        frames = [len(python_calls(lambda: cache.delete(key))) for key in sealed]
    finally:
        gc.enable()
    assert not any(key in cache.index or key in cache.ram for key in sealed)
    assert max(frames) <= MAX_FRAMES_PER_SEALED_DELETE, sorted(set(frames))


# --- warm rotation -------------------------------------------------------------


class _WarmRun(NamedTuple):
    build: Callable[[str], object]
    keys: int  # keyspace ~3x the entries the cache holds: constant eviction
    value_bytes: int
    warm_ops: int  # past the first eviction and the first reclaim victim
    measured_ops: int


def _closed_fill_stack(scheme: str):
    return _stack(scheme, _GEOMETRIES["closed_fill"])


def _serving_stack(scheme: str):
    """One shard of a serving fleet: 10 zones of SERVING_SCALE, the
    scheme's provisioning rule and the ``qos`` reclaim watermarks."""
    kwargs = provision(scheme, SERVING_SCALE, 10, 6, 16)
    media = kwargs.pop("media_bytes")
    cache_bytes = kwargs.pop("cache_bytes")
    file_media = kwargs.pop("file_media_bytes", None)
    kwargs.update(reclaim_overrides("qos", scheme))
    return build_scheme(
        scheme, SimClock(), SERVING_SCALE, media, cache_bytes,
        file_media_bytes=file_media, **kwargs,
    )


_WARM_RUNS = {
    "closed_fill": _WarmRun(_closed_fill_stack, 72_000, 3500, 40_000, 3_000),
    "serving": _WarmRun(_serving_stack, 3_000, 1200, 6_000, 2_000),
}


def _frames_per_warm_seal(scheme: str, run: _WarmRun):
    """Frames of every seal in a measured window of a warm stack, and
    the regions evicted and reclaim victims taken in that window."""
    stack = run.build(scheme)
    cache = stack.cache
    rng = random.Random(7)
    value = b"v" * run.value_bytes

    def drive(ops: int) -> None:
        for _ in range(ops):
            key = b"key-%07d" % rng.randrange(run.keys)
            if rng.random() < 0.05:
                cache.delete(key)
            else:
                cache.set(key, value)

    drive(run.warm_ops)
    _, engine = stack.reclaim_engine()
    victims = engine.stats.victims_reclaimed if engine is not None else 0
    assert cache.regions.regions_evicted > 0 and (engine is None or victims > 0)
    evicted = cache.regions.regions_evicted
    frames = []
    seal = cache._seal_and_rotate
    cache._seal_and_rotate = lambda: frames.append(len(python_calls(seal)))
    gc.disable()
    try:
        drive(run.measured_ops)
    finally:
        gc.enable()
    if engine is not None:
        victims = engine.stats.victims_reclaimed - victims
    return frames, cache.regions.regions_evicted - evicted, victims


@pytest.mark.parametrize("run", list(_WARM_RUNS))
@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_frames_per_warm_seal(scheme, run):
    frames, evicted, victims = _frames_per_warm_seal(scheme, _WARM_RUNS[run])
    # Every seal of the window evicted a region, and reclaim ran in it.
    assert evicted == len(frames) > 0
    assert victims > 0 or scheme == "Zone-Cache"
    mean = sum(frames) / len(frames)
    assert mean <= MAX_FRAMES_PER_WARM_SEAL[run][scheme], (mean, len(frames))
