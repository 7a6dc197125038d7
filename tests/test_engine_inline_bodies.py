"""The bodies ``HybridCache`` runs in line equal the helpers they copy.

``get``, ``set`` and ``delete`` run their common case in one frame, so
the DRAM tier's LRU bodies (``RamCache.get`` / ``put`` / ``remove``)
and the liveness ledger's ``note_dead`` are copied into them.  The
helpers stay, for the paths that still call them (a flash hit promotes
its value with ``RamCache.put``; TTL purges and evictions report through
``note_dead``).  This property drives a cache and, beside it, a
``RamCache`` and a ``LivenessLedger`` fed through the helpers with the
same random sequence, and checks after every op that the tier's order,
bytes and evictions and the ledger's counts are the same.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.cache import RamCache
from repro.cache.lifecycle import LivenessLedger
from repro.sim import SimClock
from repro.units import KIB, MIB

SCALE = SchemeScale(
    zone_size=1 * MIB, region_size=16 * KIB, pages_per_block=64, ram_bytes=6 * KIB
)

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["set", "set", "get", "delete"]),
        st.integers(0, 60),
        st.integers(1, 9000),  # up to past the whole DRAM tier
    ),
    min_size=1,
    max_size=400,
)


def _stack(scheme: str, policy: str):
    if scheme == "Zone-Cache":
        return build_scheme(scheme, SimClock(), SCALE, 8 * MIB, eviction_policy=policy)
    return build_scheme(
        scheme, SimClock(), SCALE, 8 * MIB, 1 * MIB,
        file_media_bytes=12 * MIB, eviction_policy=policy,
    )


def _live_bytes(cache, key: bytes):
    """The entry size the cache still counts live for ``key``'s flash
    copy, or None (no copy, or one already accounted dead)."""
    location = cache.index.get(key)
    if location is None:
        return None
    if location.region_id == cache._buffer.region_id:
        return cache._open_entries.get(key)
    meta = cache.regions.meta(location.region_id)
    return None if meta is None else meta.keys.get(key)


@settings(max_examples=40, deadline=None)
@given(
    ops=ops_strategy,
    scheme=st.sampled_from(ALL_SCHEME_NAMES),
    policy=st.sampled_from(["fifo", "lru"]),
)
def test_inline_bodies_equal_the_helpers(ops, scheme, policy):
    cache = _stack(scheme, policy).cache
    ram = RamCache(cache.ram.capacity_bytes)
    ledger = LivenessLedger()
    for op, key_index, size in ops:
        key = b"key-%03d" % key_index
        live = _live_bytes(cache, key)
        location = cache.index.get(key)
        if op == "set":
            value = (b"%03d" % key_index) * (size // 3 + 1)
            value = value[:size]
            sealed = None if location is None else cache.regions.meta(location.region_id)
            cache.set(key, value)
            ram.put(key, value)
            # The old copy dies as an overwrite unless the rotation this
            # set ran evicted its region first.
            if live is not None and (
                sealed is None or cache.regions.meta(location.region_id) is sealed
            ):
                ledger.note_dead(live, "overwritten")
        elif op == "delete":
            in_ram = ram.remove(key)
            assert cache.delete(key) == (in_ram or location is not None)
            if live is not None:
                ledger.note_dead(live, "deleted")
        else:
            expected = ram.get(key)
            got = cache.get(key)
            if expected is not None:
                assert got == expected
            elif got is not None:
                ram.put(key, got)  # a flash hit promotes into DRAM
        assert list(cache.ram._items.items()) == list(ram._items.items())
        assert (cache.ram.used_bytes, cache.ram.evictions) == (ram.used_bytes, ram.evictions)
        assert cache.regions.ledger.dead_bytes == ledger.dead_bytes
        assert cache.regions.ledger.dead_items == ledger.dead_items
