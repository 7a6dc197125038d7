"""Property-based tests on the cache engine and LSM invariants.

* Region buffer: whatever ``HybridCache.set`` packs in place into the
  open region is byte for byte what the reference encoder
  ``EntryCodec.encode`` returns, checksummed or not, in a fresh or a
  recycled buffer, and an entry that does not fit seals the region and
  opens the next one with it.
* Cache: after an arbitrary set/get/delete sequence, the cache agrees
  with a model dict on every key the cache still holds (a cache may
  forget — it must never return a *wrong* value), and WAF >= 1.
* LSM: after arbitrary puts/deletes with interleaved flushes, the DB
  agrees exactly with a model dict (a database must never forget).
* ZTL: mapping stays consistent under arbitrary write/invalidate churn.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.bench.schemes import SchemeScale, build_region_cache, build_zone_cache
from repro.cache import EntryCodec, EntryLocation
from repro.cache.item import DecodedEntry
from repro.flash import HddConfig, HddDevice
from repro.lsm import Db, DbConfig
from repro.lsm.compaction import CompactionConfig
from repro.sim import SimClock
from repro.units import KIB, MIB

SCALE = SchemeScale(
    zone_size=128 * KIB, region_size=16 * KIB, pages_per_block=8,
    ram_bytes=8 * KIB,
)

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["set", "get", "delete"]),
        st.integers(0, 40),
        st.integers(1, 200),
    ),
    max_size=120,
)


def _value(key_index: int, size: int) -> bytes:
    return (f"V{key_index:03d}".encode() * (size // 4 + 1))[:size]


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=40),
            st.binary(max_size=3000),
            st.sampled_from([None, 1e-6, 0.5, 3600.0]),
        ),
        max_size=12,
    ),
    checksums=st.booleans(),
    recycled=st.booleans(),
)
def test_set_packs_the_reference_encoding(entries, checksums, recycled):
    stack = build_region_cache(
        SimClock(), SCALE, 8 * 128 * KIB, 6 * 128 * KIB, checksums=checksums
    )
    cache = stack.cache
    if recycled:
        # A flushed predecessor full of other bytes: every one of them
        # must be overwritten by a set or zeroed at finalize().
        while cache._buffer.used < cache.config.region_size - 200:
            cache.set(b"stale-%05d" % cache._buffer.used, b"\xa5" * 95)
        cache.flush()
    placed = []
    for key, value, ttl in entries:
        flushes = cache.stats.flushes
        cache.set(key, value, ttl)
        buffer = cache._buffer
        if cache.stats.flushes != flushes:
            placed = []  # it did not fit: it opened the next region
        expiry_ns = cache.lifecycle.expiry.get(key, 0)
        blob = EntryCodec.encode(
            key, value, expiry_ns, checksum=checksums, salt=buffer.salt
        )
        location = cache.index[key]
        assert location == EntryLocation(
            buffer.region_id, buffer.used - len(blob), len(blob)
        )
        assert buffer.read(location.offset, location.length) == blob
        decoded = EntryCodec.decode_entry(blob, salt=buffer.salt)
        assert decoded == DecodedEntry(key, value, expiry_ns)
        assert decoded.key == key and decoded.is_expired(expiry_ns) == (expiry_ns != 0)
        placed.append((location.offset, location.length, decoded))
    buffer = cache._buffer
    payload = bytes(buffer.finalize())
    assert len(payload) == cache.config.region_size and not any(payload[buffer.used :])
    assert EntryCodec.scan_region(payload, salt=buffer.salt) == (placed, False)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_cache_never_returns_wrong_value(ops):
    stack = build_region_cache(SimClock(), SCALE, 8 * 128 * KIB, 6 * 128 * KIB)
    cache = stack.cache
    model = {}
    for op, key_index, size in ops:
        key = f"key{key_index:03d}".encode()
        if op == "set":
            value = _value(key_index, size)
            cache.set(key, value)
            model[key] = value
        elif op == "delete":
            cache.delete(key)
            model.pop(key, None)
        else:
            got = cache.get(key)
            if got is not None:
                assert got == model.get(key), (
                    f"cache returned stale/wrong data for {key!r}"
                )
    waf = cache.waf()
    assert waf.app >= 1.0 and waf.device >= 1.0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_zone_cache_same_property_and_zero_wa(ops):
    stack = build_zone_cache(SimClock(), SCALE, 6 * 128 * KIB)
    cache = stack.cache
    model = {}
    for op, key_index, size in ops:
        key = f"key{key_index:03d}".encode()
        if op == "set":
            value = _value(key_index, size)
            cache.set(key, value)
            model[key] = value
        elif op == "delete":
            cache.delete(key)
            model.pop(key, None)
        else:
            got = cache.get(key)
            if got is not None:
                assert got == model.get(key)
    assert cache.waf().total == 1.0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "flush"]),
            st.integers(0, 60),
            st.integers(1, 100),
        ),
        max_size=100,
    )
)
def test_lsm_agrees_with_model(ops):
    clock = SimClock()
    db = Db(
        clock,
        HddDevice(clock, HddConfig(capacity_bytes=16 * MIB)),
        DbConfig(
            memtable_bytes=2 * KIB,
            block_cache_bytes=8 * KIB,
            wal_bytes=64 * KIB,
            compaction=CompactionConfig(
                l0_trigger=2, l1_target_bytes=32 * KIB, max_table_bytes=16 * KIB
            ),
        ),
    )
    model = {}
    for op, key_index, size in ops:
        key = f"user{key_index:04d}".encode()
        if op == "put":
            value = _value(key_index, size)
            db.put(key, value)
            model[key] = value
        elif op == "delete":
            db.delete(key)
            model.pop(key, None)
        else:
            db.flush_memtable()
    for key_index in range(61):
        key = f"user{key_index:04d}".encode()
        assert db.get(key) == model.get(key), key
