"""Integration tests for the LSM database, compaction, and the
secondary-cache coupling."""

import random

import pytest

from repro.bench.schemes import SchemeScale, build_region_cache, build_zone_cache
from repro.errors import DbClosedError, LsmError
from repro.flash import HddConfig, HddDevice
from repro.lsm import CacheLibSecondaryCache, Db, DbConfig, SSTable
from repro.lsm.compaction import CompactionConfig
from repro.sim import SimClock
from repro.units import KIB, MIB


def make_db(clock=None, secondary=None, memtable_kib=64, block_cache_kib=32):
    clock = clock or SimClock()
    hdd = HddDevice(clock, HddConfig(capacity_bytes=64 * MIB))
    config = DbConfig(
        memtable_bytes=memtable_kib * KIB,
        block_cache_bytes=block_cache_kib * KIB,
        wal_bytes=256 * KIB,
        compaction=CompactionConfig(
            l0_trigger=3, l1_target_bytes=512 * KIB, max_table_bytes=128 * KIB
        ),
    )
    return Db(clock, hdd, config, secondary_cache=secondary), clock


def key(i: int) -> bytes:
    return f"user{i:010d}".encode()


class TestDbBasics:
    def test_put_get(self):
        db, _ = make_db()
        db.put(key(1), b"value1")
        assert db.get(key(1)) == b"value1"

    def test_get_missing(self):
        db, _ = make_db()
        assert db.get(key(404)) is None

    def test_overwrite(self):
        db, _ = make_db()
        db.put(key(1), b"old")
        db.put(key(1), b"new")
        assert db.get(key(1)) == b"new"

    def test_delete_shadows(self):
        db, _ = make_db()
        db.put(key(1), b"v")
        db.flush_memtable()
        db.delete(key(1))
        assert db.get(key(1)) is None
        db.flush_memtable()
        assert db.get(key(1)) is None

    def test_get_after_flush(self):
        db, _ = make_db()
        for i in range(100):
            db.put(key(i), f"value{i}".encode())
        db.flush_memtable()
        for i in range(100):
            assert db.get(key(i)) == f"value{i}".encode()

    def test_closed_db_rejects_ops(self):
        db, _ = make_db()
        db.put(key(1), b"v")
        db.close()
        with pytest.raises(DbClosedError):
            db.get(key(1))
        with pytest.raises(DbClosedError):
            db.put(key(2), b"v")

    @pytest.mark.parametrize("op", ["put", "delete"])
    def test_oversized_key_rejected_before_any_effect(self, op):
        # Was a bare OverflowError from the WAL record framing, raised
        # after the op's CPU time had been charged to the clock.
        db, clock = make_db()
        db.put(key(1), b"v")
        before = (clock.now, db.wal.records_appended, len(db.memtable), db.stats.puts)
        with pytest.raises(LsmError, match="65535"):
            if op == "put":
                db.put(b"x" * 70_000, b"v")
            else:
                db.delete(b"x" * 70_000)
        assert before == (
            clock.now, db.wal.records_appended, len(db.memtable), db.stats.puts
        )
        assert db.stats.deletes == 0
        db.put(b"x" * 65_535, b"v")  # the limit itself is accepted
        assert db.get(b"x" * 65_535) == b"v"

    def test_oversized_value_rejected_before_any_effect(self, monkeypatch):
        # The real limit is 4 GiB; lower it rather than allocate that.
        monkeypatch.setattr("repro.lsm.db.MAX_VALUE_LEN", 1000)
        db, clock = make_db()
        with pytest.raises(LsmError):
            db.put(key(1), b"v" * 1000)
        assert (clock.now, db.wal.records_appended, len(db.memtable)) == (0, 0, 0)
        db.put(key(1), b"v" * 999)  # 999 B + the 1-byte type tag fits
        assert db.get(key(1)) == b"v" * 999

    @pytest.mark.parametrize("op", ["put", "delete"])
    def test_record_no_wal_epoch_holds_is_refused_before_any_effect(self, op):
        # Was charged to the clock and flushed the memtable (an SSTable
        # written, 21.9 ms of HDD time) before the WAL raised WalFullError.
        clock = SimClock()
        hdd = HddDevice(clock, HddConfig(capacity_bytes=64 * MIB))
        wal_bytes = 2 * MIB if op == "put" else 4 * KIB
        db = Db(clock, hdd, DbConfig(wal_bytes=wal_bytes))
        db.put(key(1), b"v")

        def state():
            return (
                clock.now, repr(db.stats), dict(db.memtable.sorted_entries()),
                db.memtable.size_bytes, hdd.stats.host_write_bytes,
                hdd.stats.write_latency.count, db.wal.records_appended,
                db.stats.memtable_flushes,
            )

        before = state()
        with pytest.raises(LsmError, match="WAL epoch"):
            if op == "put":
                db.put(b"big", b"x" * 3 * MIB)
            else:
                db.delete(b"k" * 5000)
        assert state() == before
        # The longest record an empty epoch holds is still accepted.
        fits = db.wal.max_record_bytes - 3
        if op == "put":
            db.put(b"big", b"x" * (fits - 3))
            assert db.get(b"big") == b"x" * (fits - 3)
        else:
            db.delete(b"k" * fits)
            assert db.get(b"k" * fits) is None

    def test_clock_advances(self):
        db, clock = make_db()
        before = clock.now
        db.put(key(1), b"v")
        db.get(key(1))
        assert clock.now > before


class TestDbCompaction:
    def fill(self, db, count=4000, value_size=64, seed=3):
        rng = random.Random(seed)
        order = list(range(count))
        rng.shuffle(order)
        expected = {}
        for i in order:
            value = f"val{i:06d}".encode() * (value_size // 9 + 1)
            db.put(key(i), value[:value_size])
            expected[i] = value[:value_size]
        db.flush_memtable()
        return expected

    def test_compaction_triggered(self):
        db, _ = make_db()
        self.fill(db)
        assert db.compactor.compactions_run > 0
        # L0 kept under control.
        assert len(db.version.levels[0]) < db.config.compaction.l0_trigger

    def test_all_keys_survive_compaction(self):
        db, _ = make_db()
        expected = self.fill(db)
        for i, value in list(expected.items())[::7]:
            assert db.get(key(i)) == value, i

    def test_overwrites_resolve_to_newest(self):
        db, _ = make_db()
        self.fill(db, count=2000)
        for i in range(0, 2000, 3):
            db.put(key(i), b"NEWEST" + key(i))
        db.flush_memtable()
        db.compactor.maybe_compact()
        for i in range(0, 2000, 37):
            expected = b"NEWEST" + key(i) if i % 3 == 0 else None
            if expected is not None:
                assert db.get(key(i)) == expected

    def test_deletes_survive_compaction(self):
        db, _ = make_db()
        self.fill(db, count=2000)
        for i in range(0, 2000, 5):
            db.delete(key(i))
        db.flush_memtable()
        db.compactor.maybe_compact()
        for i in range(0, 2000, 35):
            if i % 5 == 0:
                assert db.get(key(i)) is None

    def test_extents_released(self):
        db, _ = make_db()
        self.fill(db)
        live_tables = db.version.table_count()
        # Allocated extents = live tables + the WAL and manifest extents.
        assert db.space.allocated_extents == live_tables + 2


class TestSecondaryCacheCoupling:
    SCALE = SchemeScale(
        zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
        ram_bytes=16 * KIB,
    )

    def make_with_secondary(self):
        clock = SimClock()
        stack = build_region_cache(
            clock, self.SCALE, 8 * 256 * KIB, 6 * 256 * KIB
        )
        secondary = CacheLibSecondaryCache(stack.cache)
        db, _ = make_db(clock=clock, secondary=secondary, block_cache_kib=16)
        return db, secondary, stack

    def test_spill_and_fill(self):
        db, secondary, _ = self.make_with_secondary()
        rng = random.Random(5)
        for i in range(3000):
            db.put(key(i), f"value{i}".encode())
        db.flush_memtable()
        for _ in range(800):
            db.get(key(rng.randrange(3000)))
        assert secondary.inserts > 0
        assert secondary.lookups > 0
        # Repeated reads of the same keys eventually hit the flash tier.
        assert db.block_cache.secondary_lookups.hits > 0

    def test_secondary_hits_faster_than_hdd(self):
        db, secondary, stack = self.make_with_secondary()
        for i in range(3000):
            db.put(key(i), f"value{i}".encode())
        db.flush_memtable()
        rng = random.Random(7)
        for _ in range(2000):
            db.get(key(rng.randrange(3000)))
        db.stats.get_latency.reset()
        # A hot key served from flash must be far cheaper than ~ms HDD.
        hot = key(100)
        db.get(hot)
        db.block_cache._items.clear()  # force out of DRAM
        db.get(hot)
        assert db.stats.get_latency.max() < 2_000_000  # < 2 ms

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_a_dict_model_from_every_tier(self, seed, monkeypatch):
        """Random put/delete/flush/get and one crash + reopen against a
        dict, with a 4 KiB DRAM block cache over a flash secondary cache:
        gets are served from the memtable, DRAM, flash and the HDD, and
        entry indexes are built from flash and HDD bytes, each (table,
        block) at most once per open."""
        builds = []
        real_index_block = SSTable.index_block

        def index_block(table, block, blob):
            assert table.entry_indexes[block] is None
            builds.append((opens, table.table_id, block))
            return real_index_block(table, block, blob)

        monkeypatch.setattr(SSTable, "index_block", index_block)
        opens = 1
        clock = SimClock()
        stack = build_region_cache(clock, self.SCALE, 8 * 256 * KIB, 6 * 256 * KIB)
        secondary = CacheLibSecondaryCache(stack.cache)
        db, _ = make_db(
            clock=clock, secondary=secondary, memtable_kib=16, block_cache_kib=4
        )
        hdd = db.device

        def tiers():
            cache = db.block_cache
            return (
                cache.dram_lookups.hits,
                cache.secondary_lookups.hits,
                hdd.stats.read_latency.count,
            )

        rng = random.Random(seed)
        model = {}
        served = [0, 0, 0]  # gets that moved the DRAM / flash / HDD counter
        built_from = set()
        for step in range(4000):
            i = rng.randrange(600)
            draw = rng.random()
            if draw < 0.35:
                value = rng.randbytes(rng.randrange(0, 120))
                db.put(key(i), value)
                model[i] = value
            elif draw < 0.42:
                db.delete(key(i))
                model.pop(i, None)
            elif draw < 0.425:
                db.flush_memtable()
            else:
                before, built = tiers(), len(builds)
                assert db.get(key(i)) == model.get(i), (step, i)
                moved = [b - a for a, b in zip(before, tiers())]
                for tier, delta in enumerate(moved):
                    served[tier] += delta > 0
                if len(builds) > built:
                    built_from.add("hdd" if moved[2] else "flash")
            if step == 2000:
                db.sync_wal()
                db.simulate_crash()
                opens += 1
                db = Db.reopen(clock, hdd, db.config, secondary)
        for i in range(600):
            assert db.get(key(i)) == model.get(i), i
        assert all(served), served
        assert built_from == {"hdd", "flash"}
        assert len(builds) == len(set(builds))

    def test_zone_cache_also_works_as_secondary(self):
        clock = SimClock()
        stack = build_zone_cache(clock, self.SCALE, 6 * 256 * KIB)
        secondary = CacheLibSecondaryCache(stack.cache)
        db, _ = make_db(clock=clock, secondary=secondary, block_cache_kib=16)
        for i in range(2000):
            db.put(key(i), f"value{i}".encode())
        db.flush_memtable()
        rng = random.Random(9)
        for _ in range(600):
            assert db.get(key(rng.randrange(2000))) is not None
        assert stack.cache.waf().total == 1.0
