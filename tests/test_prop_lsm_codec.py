"""Property tests for the LSM tier's serialized-block decoders, the
one-pass table build and ``Version``'s pinned fences.

``DataBlock`` (full decode + binary search) is the reference the pinned
entry index of ``index_entries`` is compared against; the per-key ``add``
loop is the reference for ``BloomFilter.for_keys``; a linear scan over
``Version.levels`` is the reference for the fence bisect ``Db.get`` runs.
"""

from __future__ import annotations

import bisect
import hashlib
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.flash import HddConfig, HddDevice, NullBlkDevice
from repro.lsm import (
    BloomFilter,
    DataBlock,
    DataBlockBuilder,
    Db,
    DbConfig,
    SSTableBuilder,
    TableSpace,
    Version,
    WriteAheadLog,
)
from repro.lsm.block import index_entries, iter_block
from repro.lsm.bloom import CHUNK_KEYS, bloom_hashes
from repro.lsm.compaction import TOMBSTONE, CompactionConfig
from repro.lsm.wal import WalFullError
from repro.sim import SimClock
from repro.units import KIB, MIB

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Short keys over a 3-letter alphabet: prefixes of each other, 1-byte keys
# and neighbours one byte apart all turn up; one max-length key rides along.
short_keys = st.binary(min_size=0, max_size=4).map(
    lambda raw: bytes(b"abc"[byte % 3] for byte in raw)
)
entry_sets = st.dictionaries(
    st.one_of(short_keys, st.binary(min_size=1, max_size=24)),
    st.binary(max_size=48),
    min_size=1,
    max_size=50,
)


def _neighbours(key: bytes):
    """Probes just below and just above ``key`` in byte order."""
    yield key + b"\x00"
    yield key[:-1]
    if key and key[-1] > 0:
        yield key[:-1] + bytes([key[-1] - 1]) + b"\xff"


@PROPERTY
@given(
    entries=entry_sets,
    with_max_key=st.booleans(),
    padding=st.sampled_from([0, 1, 5, 6, 7, 300]),
    wrap=st.sampled_from([bytes, bytearray, memoryview]),
)
def test_block_decoders_agree_with_full_decode(entries, with_max_key, padding, wrap):
    entries = {k: v for k, v in entries.items() if k or v}  # sentinel is rejected
    if with_max_key:
        entries[b"\xff" * 65_535] = b"tail"
    if not entries:
        entries[b"k"] = b""
    ordered = sorted(entries.items())
    builder = DataBlockBuilder(target_size=1 << 20)
    for key, value in ordered:
        builder.add(key, value)
    blob = wrap(builder.finish() + b"\x00" * padding)
    reference = DataBlock(blob)

    assert reference.entries() == ordered
    assert list(iter_block(blob)) == ordered
    keys, starts, ends = index_entries(blob)
    assert keys == [key for key, _ in ordered]
    assert all(type(key) is bytes for key in keys)
    probes = {b"", b"\xff" * 65_536}  # below the first, above the last
    for key, _ in ordered:
        probes.add(key)
        probes.update(_neighbours(key))  # between neighbours
    for probe in probes:
        # Db.get's in-block lookup: one bisect, one slice of the blob.
        slot = bisect.bisect_left(keys, probe)
        found = None
        if slot < len(keys) and keys[slot] == probe:
            found = blob[starts[slot] : ends[slot]]
        assert found == reference.get(probe) == entries.get(probe)


@PROPERTY
@given(
    keys=st.lists(st.binary(max_size=32), max_size=150, unique=True),
    bits_per_key=st.sampled_from([1, 4, 10, 20]),
    probes=st.lists(st.binary(max_size=8), max_size=30),
)
def test_bloom_bulk_build_matches_per_key_adds(keys, bits_per_key, probes):
    bulk = BloomFilter.for_keys(iter(keys), bits_per_key)
    one_by_one = BloomFilter(bulk.num_bits, bulk.num_hashes)
    for key in keys:
        one_by_one.add(key)
    assert bulk.to_bytes() == one_by_one.to_bytes()
    for key in keys + probes:
        assert bulk.may_contain(key, bloom_hashes(key)) == bulk.may_contain(key)
    assert all(bulk.may_contain(key) for key in keys)


@pytest.mark.parametrize("bits_per_key", [1, 10, 20])
@pytest.mark.parametrize(
    "count", [0, 1, CHUNK_KEYS - 1, CHUNK_KEYS, CHUNK_KEYS + 1, 3 * CHUNK_KEYS + 5]
)
def test_bloom_bulk_build_matches_per_key_adds_at_chunk_bounds(count, bits_per_key):
    """The bulk build hashes ``CHUNK_KEYS`` keys per step; on either side
    of every chunk boundary it sets exactly the per-key ``add`` bits."""
    keys = [b"%d" % (i * 7919) * (1 + i % 3) for i in range(count)]
    if keys:
        keys[0] = b""  # the empty key is a key too
    bulk = BloomFilter.for_keys(keys, bits_per_key)
    one_by_one = BloomFilter(bulk.num_bits, bulk.num_hashes)
    for key in keys:
        one_by_one.add(key)
    assert bulk.to_bytes() == one_by_one.to_bytes()
    assert bulk.num_bits == max(64, count * bits_per_key)

def test_sstable_extent_is_byte_identical_to_pr13():
    """sha256 of a pinned table's whole extent (data blocks, meta blob,
    footer) and of its filter, taken at the parent of the one-pass build."""
    device = NullBlkDevice(SimClock(), capacity_bytes=4 * MIB)
    space = TableSpace(device)
    space.allocate(8192)  # a non-zero extent offset
    builder = SSTableBuilder(7, space)
    for i in range(3000):
        builder.add(b"user%012d" % (i * 7), b"\x01" + b"val%09d" % i * (1 + i % 6))
    table = builder.finish()
    extent = device.read(table.extent_offset, table.extent_size).data
    assert (table.extent_size, len(table.index_keys), table.num_entries) == (
        212_992, 49, 3000,
    )
    assert hashlib.sha256(table.bloom.to_bytes()).hexdigest() == (
        "a780bbca2cbf2e1dfa92bdbaf101fbff9d31dab2b027f2e0c00171c9633d2270"
    )
    assert hashlib.sha256(extent).hexdigest() == (
        "edfb71d1cf0128fb15154a8c835ada3a1ef4434a43e1cf8ab3a8747cb4ee4233"
    )


wal_ops = st.lists(
    st.one_of(
        st.integers(1, 9000),  # append a record of this many bytes
        st.integers(4084, 4088),  # ... one that leaves a 0-4 byte sync pad
        st.just("sync"),
        st.just("reset"),
    ),
    max_size=40,
)


@PROPERTY
@given(ops=wal_ops)
def test_wal_refuses_exactly_what_its_blocks_cannot_hold(ops):
    """``WriteAheadLog.append`` keeps a running count of the payload bytes
    left in the epoch; it refuses a record exactly when the block count
    of the pending tail, the record and a short pad's zero block would
    run past the extent — and replay returns every synced record."""
    wal = WriteAheadLog(NullBlkDevice(SimClock(), capacity_bytes=1 * MIB), 0, 16 * KIB)
    payload = wal.payload_per_block
    synced, pending = [], []
    for i, op in enumerate(ops):
        if op == "sync":
            wal.sync()
            synced += pending
            pending = []
        elif op == "reset":
            wal.reset()
            synced, pending = [], []
        else:
            record = bytes([i % 251 + 1]) * op
            blocks = -(-(len(wal._pending) + 4 + op) // payload) + wal._short_pad
            fits = wal._cursor + blocks * wal.device.block_size <= wal.size
            try:
                wal.append(record)
            except WalFullError:
                assert not fits
            else:
                assert fits
                pending.append(record)
    wal.sync()
    assert list(wal.replay(wal.epoch)) == synced + pending

FILL_KEYS = 30_000


def _whole_fill():
    """A small-``DbConfig`` fill with deletes: flushes, L0 -> L1 merges
    and L1 -> L2 merges into the last level, where tombstones drop.
    Returns the clock, the database and a dict model of its contents."""
    clock = SimClock()
    config = DbConfig(
        memtable_bytes=64 * KIB,
        wal_bytes=128 * KIB,
        manifest_bytes=16 * KIB,
        num_levels=3,
        compaction=CompactionConfig(
            l0_trigger=3,
            l1_target_bytes=256 * KIB,
            level_multiplier=8,
            max_table_bytes=64 * KIB,
        ),
    )
    db = Db(clock, HddDevice(clock, HddConfig(capacity_bytes=64 * MIB)), config)
    model = {}
    for i in range(FILL_KEYS):
        k = i * 7919 % FILL_KEYS
        key, value = b"user%012d" % k, b"val%09d" % k * (1 + k % 5)
        db.put(key, value)
        model[key] = value
        if i % 4 == 3:
            gone = b"user%012d" % (i * 104_729 % FILL_KEYS)
            db.delete(gone)
            model.pop(gone, None)
    db.flush_memtable()
    return clock, db, model


def test_whole_fill_is_byte_identical_to_its_pins():
    """sha256 of every live table extent, of the manifest and of the WAL
    extent, and the clock, after a fill that flushes, merges and drops
    tombstones in the last level; pinned before the one-loop write path."""
    clock, db, model = _whole_fill()
    filled_at = clock.now  # before the reads below move the clock
    device = db.device
    tables = hashlib.sha256()
    for level, level_tables in enumerate(db.version.levels):
        for table in level_tables:
            tables.update(b"%d:%d:" % (level, table.table_id))
            tables.update(device.read(table.extent_offset, table.extent_size).data)
    manifest = device.read(db.manifest.offset, db.manifest.size).data
    wal = device.read(db.wal.offset, db.wal.size).data
    assert (filled_at, [len(level) for level in db.version.levels]) == (
        1_812_956_452, [0, 3, 20],
    )
    assert tables.hexdigest() == (
        "b3e019f04b49a9642d1d0e1cf15c39c74d411f44ec5b4eb6bece00d4b9d5d062"
    )
    assert hashlib.sha256(manifest).hexdigest() == (
        "f76f1c62ccef6cf069cba1be0318b3ab307c9bb3487f793119d60ab24c9c681b"
    )
    assert hashlib.sha256(wal).hexdigest() == (
        "129d022ebb5e04dc6b1131d1c9f11e6547f30710f4016b0132ae83432fd582ef"
    )
    # Tombstones reached the last level and were dropped there: some key
    # whose last operation was a delete is in no table at all.
    stored = {
        key
        for level in db.version.levels
        for table in level
        for key, _ in table.iter_entries(db.device)
    }
    last = [
        value for t in db.version.levels[-1] for _, value in t.iter_entries(db.device)
    ]
    assert TOMBSTONE not in last
    assert any(b"user%012d" % k not in stored for k in range(FILL_KEYS)
               if b"user%012d" % k not in model)
    assert dict(db.items()) == model


# --- Version: every mutation keeps the fences in step with the levels ------

KEYSPACE = 40  # tables cover ranges of two-digit keys b"00".."39"


def _key(i: int) -> bytes:
    return b"%02d" % i


def _table(table_id: int, lo: int, hi: int) -> SimpleNamespace:
    return SimpleNamespace(table_id=table_id, smallest=_key(lo), largest=_key(hi))


def _linear_candidates(version: Version, key: bytes) -> list:
    return [
        t for level in version.levels for t in level
        if t.smallest <= key <= t.largest
    ]


def _fenced_candidates(version: Version, key: bytes) -> list:
    """The tables ``Db.get`` visits for ``key``, in its order: L0 by range
    check, then one fence bisect per deeper level."""
    found = [t for t in version.levels[0] if t.smallest <= key <= t.largest]
    for level in range(1, version.num_levels):
        i = bisect.bisect_right(version.fences[level], key)
        if i and key <= version.levels[level][i - 1].largest:
            found.append(version.levels[level][i - 1])
    return found


range_strategy = st.tuples(
    st.integers(0, KEYSPACE - 1), st.integers(0, KEYSPACE - 1)
).map(sorted)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add_l0"), range_strategy),
        st.tuples(st.just("clear_l0")),
        st.tuples(
            st.just("install"),
            st.integers(1, 3),
            # cut points: consecutive pairs become disjoint table ranges
            st.lists(st.integers(0, KEYSPACE - 1), max_size=8, unique=True),
        ),
        st.tuples(st.just("remove"), st.integers(0, 3), st.integers(0, 7)),
    ),
    max_size=25,
)


@PROPERTY
@given(ops=mutations)
def test_version_fences_track_every_mutation(ops):
    version = Version(num_levels=4)
    next_id = 0
    for op in ops:
        if op[0] == "add_l0":
            next_id += 1
            version.add_l0(_table(next_id, *op[1]))
        elif op[0] == "clear_l0":
            version.clear_l0()
        elif op[0] == "install":
            cuts = sorted(op[2])
            tables = []
            for lo, hi in zip(cuts[0::2], cuts[1::2]):
                next_id += 1
                tables.append(_table(next_id, lo, hi))
            version.install_level(op[1], list(reversed(tables)))
        elif version.levels[op[1]]:
            level = version.levels[op[1]]
            version.remove(op[1], level[op[2] % len(level)])
        assert version.fences[0] == []
        for level in range(1, version.num_levels):
            assert version.fences[level] == [
                t.smallest for t in version.levels[level]
            ]
        # Every two-digit key plus probes below, between and above them all.
        for probe in [b"", b"0", b"99"] + [_key(i) for i in range(KEYSPACE)] + [
            _key(i) + b"+" for i in range(KEYSPACE)
        ]:
            assert _fenced_candidates(version, probe) == _linear_candidates(
                version, probe
            )
