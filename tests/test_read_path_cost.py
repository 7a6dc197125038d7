"""Structural guard for the cost of a flash hit, and for the trace stream
the read path emits.

A flash hit does one aligned-window copy out of the page store, one
header unpack and one value slice; everything else a ``get`` runs on the
way down and back up is host overhead that no simulated number shows.
Two things pin it, on any machine:

* the Python frames one flash-hit ``get`` enters, counted with
  ``sys.setprofile`` over flash-resident keys of each scheme — a new
  wrapper, property or helper on the path shows up as a frame;
* a sha256 over every field of every record of a traced run on each of
  the five schemes and on a ``DbBenchDriver`` (HDD) run, taken on the
  last commit whose ``BlockSsd`` / ``NullBlkDevice`` / ``HddDevice``
  built an ``IoRequest`` per data command and emitted their records from
  ``IoTracer.on_completion`` — so a device may change how it charges a
  command but never what the stream says about it (ids, parents,
  layer/op strings, timestamps, channel).
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.sim import SimClock
from repro.units import KIB, MIB
from repro.workloads.dbbench import DbBenchConfig, DbBenchDriver
from tests.helpers import full_field_digest, python_calls

# Frames per flash-hit get, measured on this tree: ``get`` is one frame
# (an enabled tracer's span is opened by hand around the same body); it
# looks the DRAM tier up in line, calls ``store.read`` itself (the retry
# loop runs only after an error), takes the salt from the sealed map,
# skips the FIFO no-op ``touch``, and ``ZnsSsd.read`` checks a common
# read in line; the ZTL's region map is a plain dict, read in line.
# Before that 13 / 11 / 24 / 13 / 13, before the in-line get 19 / 17 /
# 30 / 18 / 19, before the one-frame get 20 / 18 / 31 / 19 / 20, and
# before the one-pass read 36 / 32 / 63 / 43 / 36.
MAX_FRAMES_PER_FLASH_HIT = {
    "Region-Cache": 12,
    "Zone-Cache": 11,
    "File-Cache": 24,
    "Block-Cache": 13,
    "Z-Cache": 12,
}

# A get the DRAM tier answers is ``get`` alone (before: 2, with
# ``RamCache.get``).
MAX_FRAMES_PER_RAM_HIT = 1

# (records, sha256 over all 13 fields of every record, one per line).
PARENT_STREAM_DIGESTS = {
    "Region-Cache": (
        12221,
        "c1f3dc268741656b472cf239b83b79b223a3a1830757ddffeaede85d4cb68c2c",
    ),
    "Zone-Cache": (
        8543,
        "897e9d0cbc23ec676118027d5804ae722c8e3bdbd462a27d8dd0a8116ac90a61",
    ),
    "File-Cache": (
        14278,
        "5c7092ee70c1a178f660e32e9d9d7a277a4636c4dfe1564f46d09b92ef953f94",
    ),
    "Block-Cache": (
        10202,
        "b21a7b3da7a6577f70dc7ca4282c95caeae290d313f5806f8a312b1d5a9c0894",
    ),
    "Z-Cache": (
        12932,
        "f850ebccb6e674145d23da1b1501e1c1108e0922d28792f85456cfccf2dfbe1d",
    ),
    "db_bench": (
        228,
        "b5c5c7689608a430521b33988185b533608ef85e6bca20ce00268d66d87f0672",
    ),
}


def _stack(scheme: str, ram_bytes: int):
    scale = SchemeScale(
        zone_size=1 * MIB, region_size=16 * KIB, pages_per_block=64,
        ram_bytes=ram_bytes,
    )
    if scheme == "Zone-Cache":
        return build_scheme(scheme, SimClock(), scale, 8 * MIB)
    return build_scheme(
        scheme, SimClock(), scale, 8 * MIB, 4 * MIB, file_media_bytes=12 * MIB
    )


def _flash_resident_keys(cache, count: int) -> list:
    """Set keys until ``count`` of them sit in sealed regions on flash
    (the stack has no DRAM tier, so every hit on them is a flash hit)."""
    keys = [b"key-%05d" % i for i in range(4 * count)]
    for key in keys:
        cache.set(key, key * 24)
    cache.flush()
    open_region = cache._buffer.region_id
    resident = [
        key for key in keys
        if key in cache.index and cache.index.get(key).region_id != open_region
    ]
    assert len(resident) >= count
    return resident[:count]


def _frames_without_collections(body) -> list:
    """``python_calls(body)`` with the cyclic collector off: a
    collection inside the window would count the frames of whatever
    ``gc.callbacks`` the test session has installed (hypothesis times
    collections that way)."""
    gc.disable()
    try:
        return python_calls(body)
    finally:
        gc.enable()


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_frames_per_flash_hit_get(scheme):
    cache = _stack(scheme, ram_bytes=0).cache
    keys = _flash_resident_keys(cache, 200)
    for key in keys:
        cache.get(key)  # service-time memos and the like are warm
    hits_before = cache.stats.flash_lookups.hits

    def get_all():
        for key in keys:
            cache.get(key)

    frames = _frames_without_collections(get_all)
    assert cache.stats.flash_lookups.hits - hits_before == len(keys)
    per_get = len(frames) / len(keys)
    assert per_get <= MAX_FRAMES_PER_FLASH_HIT[scheme], sorted(set(frames))


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_frames_per_ram_hit_get(scheme):
    cache = _stack(scheme, ram_bytes=1 * MIB).cache
    keys = [b"key-%05d" % i for i in range(200)]
    for key in keys:
        cache.set(key, key * 24)
    hits_before = cache.stats.ram_lookups.hits

    def get_all():
        for key in keys:
            cache.get(key)

    frames = _frames_without_collections(get_all)
    assert cache.stats.ram_lookups.hits - hits_before == len(keys)
    assert len(frames) / len(keys) <= MAX_FRAMES_PER_RAM_HIT, sorted(set(frames))


def _traced_scheme_run(scheme: str):
    """6,000 mixed ops on one traced stack with a small DRAM tier: region
    flushes, evictions, reclaim below the cache, flash hits, buffer hits,
    misses and deletes."""
    stack = _stack(scheme, ram_bytes=32 * KIB)
    tracer = stack.cache.store.tracer.enable()
    rng = random.Random(23)
    for i in range(6000):
        key = b"key%04d" % rng.randrange(1200)
        draw = rng.random()
        if draw < 0.45:
            stack.cache.set(key, b"v%d" % i * rng.randrange(200, 1500))
        elif draw < 0.95:
            stack.cache.get(key)
        else:
            stack.cache.delete(key)
    return [tracer]


def _traced_db_bench_run():
    """db_bench on the HDD with Block-Cache as secondary cache: HDD reads
    (readrandom) and HDD writes (a traced memtable flush)."""
    driver = DbBenchDriver(
        DbBenchConfig(num_keys=3000, num_reads=300, scheme="Block-Cache")
    )
    driver.setup()
    hdd_tracer = driver.db.device.tracer.enable()
    flash_tracer = driver.stack.cache.store.tracer.enable()
    driver.run()
    for index in range(3000, 3400):
        driver.db.put(driver.key_bytes(index), driver.value_bytes(index))
    driver.db.flush_memtable()
    return [hdd_tracer, flash_tracer]


@pytest.mark.parametrize("name", list(PARENT_STREAM_DIGESTS))
def test_trace_stream_equals_parent_digest(name):
    tracers = (
        _traced_db_bench_run() if name == "db_bench" else _traced_scheme_run(name)
    )
    assert full_field_digest(tracers) == PARENT_STREAM_DIGESTS[name]
