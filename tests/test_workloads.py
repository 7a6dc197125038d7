"""Tests for workload generators: distributions and drivers."""

import bisect
import math

import pytest

from repro.bench.schemes import SchemeScale, build_block_cache
from repro.sim import SimClock, make_rng
from repro.units import KIB
from repro.workloads import (
    CacheBenchConfig,
    CacheBenchDriver,
    ExpRangeSampler,
    UniformSampler,
    ValueSizeSampler,
    ZipfSampler,
)


class TestUniformSampler:
    def test_range(self):
        sampler = UniformSampler(100, seed=1)
        samples = [sampler.sample() for _ in range(1000)]
        assert all(0 <= s < 100 for s in samples)
        assert len(set(samples)) > 50

    def test_invalid(self):
        with pytest.raises(ValueError):
            UniformSampler(0)


class TestZipfSampler:
    def test_skew_increases_with_theta(self):
        def top_fraction(theta):
            sampler = ZipfSampler(10_000, theta, seed=2)
            hot = {sampler.key_of_rank(r) for r in range(100)}
            hits = sum(sampler.sample() in hot for _ in range(5000))
            return hits / 5000

        assert top_fraction(1.2) > top_fraction(0.6)

    def test_rank_zero_is_hottest(self):
        sampler = ZipfSampler(1000, 1.0, seed=3)
        hottest = sampler.key_of_rank(0)
        counts = {}
        for _ in range(20000):
            k = sampler.sample()
            counts[k] = counts.get(k, 0) + 1
        assert counts.get(hottest, 0) == max(counts.values())

    def test_deterministic(self):
        a = ZipfSampler(1000, 0.9, seed=5)
        b = ZipfSampler(1000, 0.9, seed=5)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_rank_bounds(self):
        sampler = ZipfSampler(10, 1.0)
        with pytest.raises(IndexError):
            sampler.key_of_rank(10)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, theta=-1)

    @staticmethod
    def reference_draws(num_keys, theta, seed, n):
        """The per-sampler construction the shared tables replaced."""
        weights = [1.0 / (rank ** theta) for rank in range(1, num_keys + 1)]
        total = math.fsum(weights)
        cdf, cumulative = [], 0.0
        for weight in weights:
            cumulative += weight / total
            cdf.append(cumulative)
        rank_to_key = list(range(num_keys))
        make_rng(seed, "zipf.shuffle").shuffle(rank_to_key)
        rng = make_rng(seed, "zipf")
        return [
            rank_to_key[min(bisect.bisect_left(cdf, rng.random()), num_keys - 1)]
            for _ in range(n)
        ]

    @pytest.mark.parametrize(
        "num_keys,theta,seed", [(1, 0.9, 1), (5000, 0.9, 7), (5000, 1.2, 7), (777, 1, 53)]
    )
    def test_shared_tables_draw_as_before(self, num_keys, theta, seed):
        a = ZipfSampler(num_keys, theta, seed)
        b = ZipfSampler(num_keys, theta, seed)
        # One table per (num_keys, theta, seed), each sampler its own rng.
        assert a._cdf is b._cdf and a._rank_to_key is b._rank_to_key
        assert a._rng is not b._rng
        reference = self.reference_draws(num_keys, theta, seed, 3000)
        assert [a.sample() for _ in range(1000)] == reference[:1000]
        assert a.sample_many(2000) == reference[1000:]
        assert b.sample_many(1500) + [b.sample() for _ in range(1500)] == reference
        c = ZipfSampler(num_keys, theta, seed + 1)
        assert c._rank_to_key is not a._rank_to_key

    def test_cachebench_drivers_share_the_tables(self):
        config = CacheBenchConfig(num_keys=4000)
        drivers = [CacheBenchDriver(config) for _ in range(5)]
        assert len({id(d._keys._cdf) for d in drivers}) == 1
        assert len({tuple(d.next_ops(500)[1]) for d in drivers}) == 1


class TestExpRangeSampler:
    def test_range(self):
        sampler = ExpRangeSampler(1000, 15.0, seed=1)
        samples = [sampler.sample() for _ in range(2000)]
        assert all(0 <= s < 1000 for s in samples)

    def test_larger_exp_range_is_more_skewed(self):
        def distinct(exp_range):
            sampler = ExpRangeSampler(100_000, exp_range, seed=2)
            return len({sampler.sample() for _ in range(5000)})

        # More skew → fewer distinct keys touched ("larger ER value means
        # more skewed data", §4.2).
        assert distinct(25.0) < distinct(15.0) < distinct(0.0)

    def test_zero_range_is_uniform(self):
        sampler = ExpRangeSampler(1000, 0.0, seed=3)
        samples = [sampler.sample() for _ in range(5000)]
        assert len(set(samples)) > 900

    def test_invalid(self):
        with pytest.raises(ValueError):
            ExpRangeSampler(0, 15.0)
        with pytest.raises(ValueError):
            ExpRangeSampler(10, -1.0)


class TestValueSizeSampler:
    def test_single_size(self):
        sampler = ValueSizeSampler([100])
        assert all(sampler.sample() == 100 for _ in range(10))

    def test_weights_respected(self):
        sampler = ValueSizeSampler([10, 1000], weights=[99.0, 1.0], seed=4)
        samples = [sampler.sample() for _ in range(2000)]
        assert samples.count(10) > 1800

    # The CacheBench ``bc`` default (the serving fleets' tenants use it
    # too), ``closed_fill``'s 1-8 KiB table, and two edge shapes.
    SIZE_TABLES = [
        ((512, 1024, 2048, 4096), (2.0, 4.0, 3.0, 1.0)),
        ((1024, 2048, 4096, 8192), (2.0, 4.0, 3.0, 1.0)),
        ((100,), ()),
        ((10, 20, 30), (1e-9, 1.0, 1e-9)),
    ]

    @pytest.mark.parametrize("vectorized", [True, False], ids=["numpy", "bisect"])
    @pytest.mark.parametrize("sizes,weights", SIZE_TABLES)
    @pytest.mark.parametrize("seed", [1, 7, 53])
    def test_bulk_draws_equal_one_random_per_sample(self, sizes, weights, seed, vectorized):
        sampler = ValueSizeSampler(sizes, weights, seed=seed)
        if not vectorized:
            sampler._cdf_array = None  # the refill without numpy
        assert CacheBenchConfig().value_sizes == self.SIZE_TABLES[0][0]
        reference = make_rng(seed, "valuesize")
        last = len(sizes) - 1

        def scalar() -> int:
            return sizes[min(bisect.bisect_left(sampler._cdf, reference.random()), last)]

        # Drawn in bulk: the sampler never asks its generator for one
        # uniform at a time.
        def one_at_a_time():
            raise AssertionError("a value size drawn by a scalar random()")

        sampler._rng.random = one_at_a_time
        n = 2 * ValueSizeSampler.REFILL + 5000  # across two refill boundaries
        assert [sampler.sample() for _ in range(n)] == [scalar() for _ in range(n)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ValueSizeSampler([])
        with pytest.raises(ValueError):
            ValueSizeSampler([0])
        with pytest.raises(ValueError):
            ValueSizeSampler([10], weights=[1.0, 2.0])


class TestCacheBenchDriver:
    SCALE = SchemeScale(
        zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
        ram_bytes=32 * KIB,
    )

    def make_stack(self):
        media = 16 * self.SCALE.zone_size
        return build_block_cache(SimClock(), self.SCALE, media, 12 * self.SCALE.zone_size)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CacheBenchConfig(get_ratio=0.5, set_ratio=0.5, delete_ratio=0.2)

    def test_run_produces_result(self):
        config = CacheBenchConfig(
            num_ops=2000, num_keys=500, value_sizes=(256, 512), value_weights=(1, 1)
        )
        driver = CacheBenchDriver(config)
        result = driver.run(self.make_stack().cache)
        assert result.operations > 0
        assert result.sim_seconds > 0
        assert result.throughput_ops_per_sec > 0
        assert 0.0 <= result.hit_ratio <= 1.0
        assert result.waf_total >= 1.0

    def test_deterministic_across_runs(self):
        config = CacheBenchConfig(num_ops=1500, num_keys=400)
        r1 = CacheBenchDriver(config).run(self.make_stack().cache)
        r2 = CacheBenchDriver(config).run(self.make_stack().cache)
        assert r1.hit_ratio == r2.hit_ratio
        assert r1.throughput_ops_per_sec == r2.throughput_ops_per_sec

    def test_warmup_excluded_from_stats(self):
        config = CacheBenchConfig(num_ops=500, num_keys=200, warmup_ops=500)
        stack = self.make_stack()
        result = CacheBenchDriver(config).run(stack.cache)
        # Only the measured ops are counted.
        assert result.operations <= 500 * 2  # set_on_miss may add sets

    def test_set_on_miss_refills(self):
        config = CacheBenchConfig(
            num_ops=3000, num_keys=100, set_on_miss=True, delete_ratio=0.0,
            get_ratio=0.8, set_ratio=0.2,
        )
        stack = self.make_stack()
        result = CacheBenchDriver(config).run(stack.cache)
        assert result.hit_ratio > 0.8  # tiny keyspace fully refilled

    def test_key_bytes_fixed_width(self):
        driver = CacheBenchDriver(CacheBenchConfig(num_ops=1, num_keys=10))
        assert len(driver.key_bytes(3)) == driver.config.key_size
        assert len(driver.value_bytes(3, 100)) == 100

    def test_ops_per_minute_conversion(self):
        config = CacheBenchConfig(num_ops=1000, num_keys=100)
        result = CacheBenchDriver(config).run(self.make_stack().cache)
        assert result.ops_per_minute_m == pytest.approx(
            result.throughput_ops_per_sec * 60 / 1e6
        )
