"""Unit tests for the db_bench driver (small configurations)."""

import io
import pickle

import pytest

from repro.bench.experiments import run_sweep
from repro.bench.schemes import SchemeScale
from repro.units import KIB, MIB
from repro.workloads import dbbench
from repro.workloads.dbbench import DbBenchConfig, DbBenchDriver

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

    def test_key_value_shapes(self):
        driver = DbBenchDriver(tiny_config(), TINY_SCALE)
        assert len(driver.key_bytes(7)) == 16
        assert len(driver.value_bytes(7)) == 64


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
