"""Unit tests for the db_bench driver (small configurations)."""

import copy
import gc
import io
import math
import pickle
import statistics

import pytest

from repro.bench.experiments import run_sweep
from repro.bench.schemes import SchemeScale
from repro.errors import ConfigError
from repro.flash.device import BlockDevice
from repro.lsm.table_space import TableSpace
from repro.sim import SimClock
from repro.units import KIB, MIB
from repro.workloads import dbbench
from repro.workloads.dbbench import DbBenchConfig, DbBenchDriver
from repro.workloads.distributions import ExpRangeSampler
from tests.helpers import python_calls

TINY_SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
    ram_bytes=16 * KIB, parallelism=4,
)


def tiny_config(**kwargs):
    defaults = dict(
        num_keys=4000,
        num_reads=400,
        warmup_reads=400,
        exp_range=25.0,
        cache_zones=3,
        hdd_bytes=64 * MIB,
        dram_block_cache_bytes=32 * KIB,
    )
    defaults.update(kwargs)
    return DbBenchConfig(**defaults)


class TestDbBenchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_keys": 0},
            {"num_reads": 0},
            {"key_size": 4},
            {"value_size": 0},
            {"cache_zones": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Accepted before, then a bare TypeError from setup() / run()
            # once the HDD and the Db existed.
            {"num_keys": 1000.0},
            {"num_reads": 10.5},
            {"warmup_reads": 5.0},
            {"hdd_bytes": float(64 * MIB)},
            {"seed": 7.0},
            # A bare TypeError from __post_init__ before.
            {"value_size": "64"},
            {"cache_zones": "4"},
            {"exp_range": "25"},
            {"key_size": None},
            # Bools are not counts; nor is a NaN or infinite size a number.
            {"op_zones": True},
            {"dram_block_cache_bytes": False},
            {"cache_zones": math.nan},
            {"exp_range": math.inf},
            # Bounds no check covered before.
            {"warmup_reads": -2},
            {"op_zones": -1},
            {"exp_range": -1.0},
            {"hdd_bytes": 0},
            {"dram_block_cache_bytes": -1},
        ],
        ids=lambda kwargs: "%s=%r" % next(iter(kwargs.items())),
    )
    def test_bad_type_or_bound_is_a_config_error(self, kwargs):
        """Refused when the config is built, naming the field: before
        any HDD, Db or fill exists."""
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            tiny_config(**kwargs)

    def test_int_numbers_and_bounds_are_accepted(self):
        config = tiny_config(
            cache_zones=1, exp_range=0, warmup_reads=-1, op_zones=0, seed=-3,
            dram_block_cache_bytes=0,
        )
        assert (config.cache_zones, config.exp_range) == (1, 0)

    def test_key_value_shapes(self):
        driver = DbBenchDriver(tiny_config(), TINY_SCALE)
        assert len(driver.key_bytes(7)) == 16
        assert len(driver.value_bytes(7)) == 64

    @pytest.mark.parametrize("value_size", [1, 11, 12, 13, 64, 100])
    def test_a_value_is_its_unit_repeated_to_value_size(self, value_size):
        driver = DbBenchDriver(tiny_config(value_size=value_size), TINY_SCALE)
        for index in (0, 7, 999_999_999, 10**9, 12_345_678_901):
            unit = b"val%09d" % index
            assert driver.value_bytes(index) == (unit * value_size)[:value_size]


class TestDbBenchDriver:
    @pytest.mark.parametrize("scheme", ["Region-Cache", "Zone-Cache", "Block-Cache"])
    def test_run_produces_sane_result(self, scheme):
        driver = DbBenchDriver(tiny_config(scheme=scheme), TINY_SCALE)
        result = driver.run()
        assert result.scheme == scheme
        assert result.reads == 400
        assert result.ops_per_sec > 0
        assert 0.0 <= result.cache_hit_ratio <= 1.0
        assert result.found_ratio == 1.0  # every sampled key was inserted
        assert result.p99_ns >= result.p50_ns

    def test_deterministic(self):
        a = DbBenchDriver(tiny_config(), TINY_SCALE).run()
        b = DbBenchDriver(tiny_config(), TINY_SCALE).run()
        assert a.ops_per_sec == b.ops_per_sec
        assert a.cache_hit_ratio == b.cache_hit_ratio

    def test_skew_improves_hit_ratio(self):
        # The cache must be smaller than the working set for skew to
        # matter at all.
        flat = DbBenchDriver(
            tiny_config(exp_range=0.0, num_keys=16_000), TINY_SCALE
        ).run()
        skewed = DbBenchDriver(
            tiny_config(exp_range=25.0, num_keys=16_000), TINY_SCALE
        ).run()
        assert skewed.cache_hit_ratio > flat.cache_hit_ratio

    def test_bigger_cache_bigger_hit(self):
        small = DbBenchDriver(
            tiny_config(cache_zones=2, num_keys=8000), TINY_SCALE
        ).run()
        large = DbBenchDriver(
            tiny_config(cache_zones=6, num_keys=8000), TINY_SCALE
        ).run()
        assert large.cache_hit_ratio > small.cache_hit_ratio

    def test_zone_cache_floors_to_whole_zones(self):
        config = tiny_config(scheme="Zone-Cache", cache_zones=3.5)
        driver = DbBenchDriver(config, TINY_SCALE)
        driver.setup()
        assert driver.stack.cache.config.flash_bytes == 3 * TINY_SCALE.zone_size


# --- the fill snapshot ---------------------------------------------------------

FIG5_SCHEMES = ("Block-Cache", "File-Cache", "Zone-Cache", "Region-Cache")
# Two fills: the tiny default, and one whose every fill input differs.
FILLS = {
    "default": {},
    "other": dict(
        num_keys=3000, key_size=20, value_size=100, hdd_bytes=32 * MIB,
        dram_block_cache_bytes=16 * KIB, seed=11,
    ),
}


@pytest.fixture
def fills(monkeypatch):
    """Clears the process's fill snapshot and counts the fills run."""
    monkeypatch.setattr(dbbench, "_filled", None)
    count = []
    fill = DbBenchDriver._fillrandom

    def counted(driver):
        count.append(driver.config)
        fill(driver)

    monkeypatch.setattr(DbBenchDriver, "_fillrandom", counted)
    return count


class _StatePickler(pickle.Pickler):
    """Pickles an object graph, sharing included, with ``token`` standing
    for one object of it."""

    def __init__(self, buffer, token):
        super().__init__(buffer)
        self.token = token

    def persistent_id(self, obj):
        return "token" if obj is self.token and obj is not None else None


def full_state(db, clock=None) -> bytes:
    """``db``'s whole state without the block cache's secondary tier (the
    scheme stack), and without ``clock`` (the one the HDD and the DB
    share) when it is given."""
    buffer = io.BytesIO()
    secondary, db.block_cache.secondary = db.block_cache.secondary, None
    try:
        _StatePickler(buffer, clock).dump(db)
    finally:
        db.block_cache.secondary = secondary
    return buffer.getvalue()


def hdd_bytes(driver) -> bytes:
    return media_bytes(driver.db.device.media)


def media_bytes(media) -> bytes:
    return b"".join(bytes(media._chunks[index]) for index in sorted(media._chunks))


class TestFillSnapshot:
    @pytest.mark.parametrize("fill", list(FILLS))
    @pytest.mark.parametrize("scheme", FIG5_SCHEMES)
    def test_copy_equals_a_fresh_fill(self, scheme, fill, fills):
        config = tiny_config(scheme=scheme, **FILLS[fill])
        copied = DbBenchDriver(config, TINY_SCALE)
        copied.setup()
        assert fills == [config]
        # The snapshot is the fill as it ran; nothing has read from it.
        clock, db = dbbench._filled[1]
        hdd, fresh_hdd = copied.db.device, db.device
        # Everything below hangs off the copy's own clock.
        assert copied.db._clock is hdd._clock is hdd.pipeline.clock is copied.clock
        assert copied.clock is not clock and copied.db is not db
        assert copied.clock.now > clock.now  # plus the stack's build
        assert hdd_bytes(copied) == media_bytes(fresh_hdd.media)
        for name in ("busy_until", "total_busy_ns", "total_wait_ns", "commands"):
            assert getattr(hdd.pipeline, name) == getattr(fresh_hdd.pipeline, name)
        assert hdd._head_pos == fresh_hdd._head_pos
        assert hdd._rng.getstate() == fresh_hdd._rng.getstate()
        assert [[t.table_id for t in level] for level in copied.db.version.levels] == [
            [t.table_id for t in level] for level in db.version.levels
        ]
        assert copied.db.stats.puts == db.stats.puts == config.num_keys
        # The whole graph: tables, WAL, manifest, stats, the rest.
        assert full_state(copied.db, copied.clock) == full_state(db, clock)
        # A second copy, and a driver whose fill ran again from scratch,
        # start exactly alike, clock included, and read alike.
        again = DbBenchDriver(config, TINY_SCALE)
        again.setup()
        dbbench._filled = None
        refilled = DbBenchDriver(config, TINY_SCALE)
        refilled.setup()
        assert len(fills) == 2
        assert refilled.clock.now == again.clock.now == copied.clock.now
        assert full_state(refilled.db) == full_state(again.db) == full_state(copied.db)
        assert copied.run() == again.run() == refilled.run()

    def test_copies_are_isolated(self, fills):
        config = tiny_config()
        first = DbBenchDriver(config, TINY_SCALE)
        first.setup()
        second = DbBenchDriver(config, TINY_SCALE)
        second.setup()
        third = DbBenchDriver(config, TINY_SCALE)
        third.setup()
        assert len(fills) == 1
        snapshot_media = dbbench._filled[1][1].device.media
        media = [d.db.device.media for d in (first, second, third)]
        # The filled bytes are held once: every copy shares the frozen chunks.
        for index, chunk in snapshot_media._chunks.items():
            assert type(chunk) is bytes
            assert all(m._chunks[index] is chunk for m in media)
        before = [hdd_bytes(d) for d in (first, third)]
        snapshot_before = media_bytes(snapshot_media)
        hdd = second.db.device
        block, chunk = hdd.block_size, snapshot_media.chunk_size
        hdd.write(0, b"\xee" * block)  # part of a shared chunk
        hdd.write(chunk, b"\xdd" * chunk)  # a whole shared chunk
        hdd.write(3 * chunk - block, b"\xcc" * 2 * block)  # across two
        assert hdd.read(0, block).data == b"\xee" * block
        assert hdd.read(chunk, chunk).data == b"\xdd" * chunk
        assert hdd.read(3 * chunk - block, 2 * block).data == b"\xcc" * 2 * block
        assert [hdd_bytes(d) for d in (first, third)] == before
        assert media_bytes(snapshot_media) == snapshot_before
        # A driver set up after the write still starts from the fill.
        fourth = DbBenchDriver(config, TINY_SCALE)
        fourth.setup()
        assert hdd_bytes(fourth) == before[0]
        assert len(fills) == 1

    def test_read_side_fields_share_one_fill(self, fills):
        for scheme in FIG5_SCHEMES:
            DbBenchDriver(
                tiny_config(
                    scheme=scheme, cache_zones=4, op_zones=2, exp_range=15.0,
                    num_reads=50, warmup_reads=0,
                ),
                TINY_SCALE,
            ).setup()
        assert len(fills) == 1
        # Any fill input is a new fill, and the snapshot holds one entry.
        DbBenchDriver(tiny_config(seed=8), TINY_SCALE).setup()
        DbBenchDriver(tiny_config(), TINY_SCALE).setup()
        assert len(fills) == 3

        class Subclass(DbBenchDriver):
            pass

        Subclass(tiny_config(), TINY_SCALE).setup()
        assert len(fills) == 4

    def test_fig5_and_table2_fill_once(self, fills):
        run_sweep("fig5", size="smoke")
        run_sweep("table2", size="smoke")
        assert len(fills) == 1


# --- copies share what never changes -----------------------------------------

# Python calls of one deep copy of the tiny fill's Db (HDD, WAL, manifest,
# block cache, stats, level lists): 4,202 when every table handle and the
# plan cache were copied too.  The ceiling of the measured mean.
MAX_CALLS_PER_TINY_COPY = 2089
# Three schemes whose copies read side by side.
SIDE_BY_SIDE = ("Block-Cache", "Zone-Cache", "Region-Cache")


def sampled_keys(driver, count, seed=3):
    sampler = ExpRangeSampler(driver.config.num_keys, 25.0, seed)
    return [driver.key_bytes(sampler.sample()) for _ in range(count)]


def charged(driver) -> tuple:
    """What ``driver``'s reads charged: its clock, HDD head and rng, HDD
    pipeline counters and latencies, DB and block cache counters, and its
    scheme's hit ratio."""
    db, hdd = driver.db, driver.db.device
    pipeline = hdd.pipeline
    return (
        driver.clock.now, hdd._head_pos, hdd._rng.getstate(),
        pipeline.busy_until, pipeline.total_busy_ns, pipeline.total_wait_ns,
        pipeline.commands, hdd.stats.host_read_bytes,
        list(hdd.stats.read_latency._samples), list(db.stats.get_latency._samples),
        db.stats.found.hits, db.block_cache.dram_lookups.hits,
        db.block_cache.secondary_lookups.hits, driver.stack.cache.stats.hit_ratio,
    )


def tables_of(db) -> list:
    return [table for level in db.version.levels for table in level]


class TestSharedCopies:
    def test_a_copy_shares_tables_and_plans(self, fills):
        driver = DbBenchDriver(tiny_config(), TINY_SCALE)
        driver.setup()
        driver.db.get(driver.key_bytes(7))  # a plan, and an entry index
        clock, db = dbbench._filled[1]
        copied = copy.deepcopy(db, {id(clock): SimClock()})
        tables = tables_of(db)
        assert tables and len(tables_of(copied)) == len(tables)
        assert all(a is b for a, b in zip(tables_of(copied), tables))
        assert all(a is b for a, b in zip(tables_of(driver.db), tables))
        for version in (copied.version, driver.db.version):
            assert vars(version).keys() == vars(db.version).keys()
            assert version.plans is db.version.plans and version.plans
            assert version._block_plans is db.version._block_plans
            assert version.levels is not db.version.levels
            assert all(a is not b for a, b in zip(version.levels, db.version.levels))
            assert all(a is not b for a, b in zip(version.fences, db.version.fences))
        # A handle holds nothing a copy owns: each reads through its own.
        assert copied.device is not db.device and copied.space is not db.space
        for table in tables:
            assert not any(
                isinstance(value, (BlockDevice, TableSpace))
                for value in vars(table).values()
            )
        calls = []
        for _ in range(3):
            gc.collect()  # no garbage generator closes inside the copy
            calls.append(
                len(python_calls(lambda: copy.deepcopy(db, {id(clock): SimClock()})))
            )
        assert math.ceil(statistics.mean(calls)) <= MAX_CALLS_PER_TINY_COPY, calls

    def test_interleaved_copies_read_as_if_alone(self, fills):
        """Copies read side by side through one plan cache and one set of
        table handles, each a plan another copy built; each charges only
        its own clock, HDD and counters, exactly as a driver whose fill
        ran for it alone."""
        configs = [tiny_config(scheme=scheme) for scheme in SIDE_BY_SIDE]
        keys = sampled_keys(DbBenchDriver(configs[0], TINY_SCALE), 600)
        alone = []
        for config in configs:
            dbbench._filled = None  # nothing shared with any other driver
            driver = DbBenchDriver(config, TINY_SCALE)
            driver.setup()
            alone.append(([driver.db.get(key) for key in keys], charged(driver)))
        dbbench._filled = None
        drivers = [DbBenchDriver(config, TINY_SCALE) for config in configs]
        for driver in drivers:
            driver.setup()
        assert len(fills) == len(configs) + 1
        plans = drivers[0].db.version.plans
        assert all(d.db.version.plans is plans for d in drivers)
        clock, snapshot = dbbench._filled[1]
        fill = (clock.now, snapshot.device.pipeline.commands)
        hdd_reads = [d.db.device.stats.read_latency.count for d in drivers]
        values = [[] for _ in drivers]
        for key in keys:
            for driver, got in zip(drivers, values):
                got.append(driver.db.get(key))
        assert [(got, charged(d)) for got, d in zip(values, drivers)] == alone
        # Every block that missed both cache tiers was read from the copy's
        # own HDD, and none from the fill's.
        assert (clock.now, snapshot.device.pipeline.commands) == fill
        for driver, before in zip(drivers, hdd_reads):
            cache = driver.db.block_cache
            misses = (
                cache.dram_lookups.total - cache.dram_lookups.hits
                - cache.secondary_lookups.hits
            )
            read = driver.db.device.stats.read_latency.count - before
            assert misses > 0 and read == misses
        assert all(got == alone[0][0] for got, _ in alone)
        assert None not in alone[0][0]

    @staticmethod
    def _beside_a_writer(write: bool):
        """Two readers and a writer copied from one fill: the readers read,
        the writer writes or not, the readers read again."""
        dbbench._filled = None
        config = tiny_config()
        first, writer, second = (DbBenchDriver(config, TINY_SCALE) for _ in range(3))
        for driver in (first, writer, second):
            driver.setup()
        keys = sampled_keys(first, 320)
        before = [[d.db.get(key) for key in keys] for d in (first, writer, second)]
        plans = first.db.version.plans
        assert writer.db.version.plans is plans is second.db.version.plans
        kept = list(plans.items())
        levels = [list(level) for level in first.db.version.levels]
        extents = dict(first.db.space._allocated)
        media = hdd_bytes(first)
        if write:
            db = writer.db
            compactions = db.compactor.compactions_run
            written = {}
            for i, key in enumerate(keys):
                written[key] = b"new%d" % i
                db.put(key, written[key])
                if i % 50 == 49:
                    db.flush_memtable()
            assert db.compactor.compactions_run > compactions
            assert len(db.memtable) and db.version.plans is not plans
            # It reads its own writes (memtable and new tables alike).
            assert [db.get(key) for key in keys] == [written[key] for key in keys]
        for reader in (first, second):
            version = reader.db.version
            assert version.plans is plans and list(plans.items()) == kept
            assert version.levels == levels  # tables compare by identity
            assert reader.db.space._allocated == extents
            assert hdd_bytes(reader) == media
        after = [[d.db.get(key) for key in keys] for d in (first, second)]
        return before, after, charged(first), charged(second)

    def test_a_copy_that_writes_leaves_the_others_alone(self, fills):
        """A copy that writes through a memtable flush and a compaction
        leaves the other copies' plans, tables, extents and bytes as they
        were, and their reads exactly as beside a copy that did not write."""
        assert self._beside_a_writer(True) == self._beside_a_writer(False)
        assert len(fills) == 2
