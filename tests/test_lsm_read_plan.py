"""Read plans: ``Db.get`` follows the steps a ``Version`` keeps per key.

A plan is a pure function of the key and the levels, so it must be
dropped by every level change.  These tests do not assume that: a
hypothesis run interleaves puts, deletes, gets, memtable flushes (and the
compactions and level installs they trigger) and crash + reopen, and
checks every get against a dict model and every get's block-cache
fetches, in order, against the fence-and-filter walk kept here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import DbClosedError, LsmError, LsmTypeError
from repro.flash import NullBlkDevice
from repro.lsm import Db, DbConfig, Version
from repro.lsm.bloom import BloomFilter, bloom_hashes
from repro.lsm.compaction import CompactionConfig
from repro.lsm.version import PLAN_KEYS
from repro.sim import SimClock
from repro.units import KIB, MIB

KEYS = 16
# A tiny tree that compacts often: three L0 tables trigger an L1 merge,
# 64 B data blocks give every table several blocks, and small level
# targets push tables down to L2 and L3.
CONFIG = DbConfig(
    memtable_bytes=1024,
    block_cache_bytes=512,
    wal_bytes=16 * KIB,
    manifest_bytes=8 * KIB,
    num_levels=4,
    compaction=CompactionConfig(
        l0_trigger=3,
        l1_target_bytes=24 * KIB,
        level_multiplier=2,
        max_table_bytes=256,
        block_size=64,
    ),
)


def _key(i: int) -> bytes:
    return b"key%03d" % i


def _reference_fetches(db: Db, key: bytes, holds) -> list:
    """The block-cache keys a get of ``key`` fetches, in order, by the
    walk ``Db.get`` ran before read plans: every L0 table whose range
    covers the key (newest first), then each deeper level's fenced table,
    each probed with ``BloomFilter.may_contain``, stopping at the first
    table that holds the key."""
    if db.memtable.get(key) is not None:
        return []
    hashes = bloom_hashes(key)
    version, fetched = db.version, []
    for level, tables in enumerate(version.levels):
        if level:
            i = bisect_right(version.fences[level], key)
            if not i:
                continue
            tables = tables[i - 1 : i]
        for table in tables:
            if not table.smallest <= key <= table.largest:
                continue
            if not BloomFilter.may_contain(table.bloom, key, hashes):
                continue
            block = bisect_right(table.index_keys, key) - 1
            fetched.append((table.table_id, table.index_handles[block].offset))
            if key in holds(table):
                return fetched
    return fetched


def _recording(db: Db) -> list:
    """Every key ``db``'s block cache is asked for, from now on."""
    fetched = []
    real = db.block_cache.get

    def get(block_key):
        fetched.append(block_key)
        return real(block_key)

    db.block_cache.get = get
    return fetched


_put = st.tuples(st.just("put"), st.integers(0, KEYS - 1), st.integers(1, 40))
_get = st.tuples(st.just("get"), st.integers(0, KEYS - 1))
ops = st.lists(
    st.one_of(
        _put, _put, _put,
        st.tuples(st.just("delete"), st.integers(0, KEYS - 1)),
        _get, _get, _get,
        st.tuples(st.just("flush")),
        st.tuples(st.just("crash")),
    ),
    min_size=30,
    max_size=160,
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops)
def test_gets_match_a_dict_model_and_the_reference_walk(ops):
    clock = SimClock()
    device = NullBlkDevice(clock, capacity_bytes=8 * MIB)
    db = Db(clock, device, CONFIG)
    fetched = _recording(db)
    model = {}
    keys_of = {}  # table id -> the keys the table holds (tables never change)

    def holds(table):
        if table.table_id not in keys_of:
            keys_of[table.table_id] = {
                key for key, _ in table.iter_entries(db.device)
            }
        return keys_of[table.table_id]

    def check(key):
        want = _reference_fetches(db, key, holds)
        fetched.clear()
        assert db.get(key) == model.get(key)
        assert fetched == want

    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "put":
            key, value = _key(op[1]), b"%d." % step * op[2]
            db.put(key, value)
            model[key] = value
        elif kind == "delete":
            db.delete(_key(op[1]))
            model.pop(_key(op[1]), None)
        elif kind == "get":
            check(_key(op[1]))
        else:
            if kind == "flush":
                db.flush_memtable()
            else:
                db.sync_wal()  # every acknowledged write survives the crash
                db.simulate_crash()
                db = Db.reopen(clock, device, CONFIG)
                assert not db.version.plans
                fetched = _recording(db)
            # Every key, so each has a plan the next level change must drop.
            for i in range(KEYS):
                check(_key(i))
    for i in range(KEYS):  # and the tree as the ops left it
        check(_key(i))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda v, t: v.add_l0(t),
        lambda v, t: v.clear_l0(),
        lambda v, t: v.install_level(2, [t]),
        lambda v, t: v.remove(1, v.levels[1][0]),
    ],
    ids=["add_l0", "clear_l0", "install_level", "remove"],
)
def test_each_version_mutator_drops_every_plan(mutate):
    clock = SimClock()
    config = replace(CONFIG, compaction=replace(CONFIG.compaction, l1_target_bytes=MIB))
    db = Db(clock, NullBlkDevice(clock, capacity_bytes=8 * MIB), config)
    for i in range(KEYS):
        db.put(_key(i), b"v%d" % i)
    for i in (1, 2, 3):  # the third flush merges L0 into L1
        db.flush_memtable()
        db.put(_key(i), b"newer")
    db.flush_memtable()  # one table in L0 over several in L1
    version = db.version
    assert version.levels[0] and version.levels[1]
    for i in range(KEYS):
        db.get(_key(i))
    assert len(version.plans) == KEYS
    mutate(version, SimpleNamespace(table_id=999, smallest=b"zz0", largest=b"zz9"))
    assert not version.plans
    assert not version._block_plans


def test_plans_are_bounded_least_recently_used_first():
    version = Version(2)
    first = b"%06d" % 0
    for i in range(PLAN_KEYS):
        version.read_plan(b"%06d" % i)
    version.plans.move_to_end(first)  # what a planned get does on a hit
    version.read_plan(b"new")
    assert len(version.plans) == PLAN_KEYS
    assert first in version.plans and b"%06d" % 1 not in version.plans


class TestDbRefusesWhatIsNotBytes:
    """A non-``bytes`` key or value is refused with ``LsmTypeError``
    before any effect: it used to charge ``cpu_get_ns`` / ``cpu_put_ns`` and
    count the op, and only then raise a bare ``TypeError`` from the
    digest or the WAL record."""

    @pytest.fixture
    def db(self):
        clock = SimClock()
        db = Db(clock, NullBlkDevice(clock, capacity_bytes=8 * MIB), CONFIG)
        db.put(b"user1", b"v")
        return db

    def _state(self, db):
        stats = db.stats
        return (
            db._clock.now, stats.gets, stats.puts, stats.deletes,
            stats.found.total, stats.get_latency.count, len(db.version.plans),
            dict(db.memtable._items), db.wal.epoch,
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda db: db.get("user1"),
            lambda db: db.get(bytearray(b"user1")),
            lambda db: db.get([1, 2]),
            lambda db: db.put("user1", b"v"),
            lambda db: db.put(b"user1", "v"),
            lambda db: db.put(b"user1", [1, 2]),
            lambda db: db.put(memoryview(b"user1"), b"v"),
            lambda db: db.delete("user1"),
            lambda db: db.delete(7),
        ],
    )
    def test_refused_before_any_effect(self, db, call):
        before = self._state(db)
        with pytest.raises(LsmTypeError, match="bytes") as caught:
            call(db)
        assert isinstance(caught.value, LsmError)
        assert isinstance(caught.value, TypeError)
        assert self._state(db) == before
        assert db.get(b"user1") == b"v"

    def test_closed_db_still_says_closed(self, db):
        db.close()
        with pytest.raises(DbClosedError):
            db.get(b"user1")
