"""TTL (expiry) behaviour of the hybrid cache."""

import pytest

from repro.bench.schemes import SchemeScale, build_region_cache
from repro.cache.item import MAX_EXPIRY_NS
from repro.errors import InvalidTtlError
from repro.sim import SimClock
from repro.units import KIB

SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=16 * KIB, pages_per_block=16,
    ram_bytes=32 * KIB,
)


@pytest.fixture
def stack():
    return build_region_cache(SimClock(), SCALE, 16 * 256 * KIB, 12 * 256 * KIB)


class TestTtl:
    def test_item_readable_before_expiry(self, stack):
        stack.cache.set(b"k", b"v", ttl_seconds=10.0)
        assert stack.cache.get(b"k") == b"v"

    def test_item_expires_from_ram(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v", ttl_seconds=0.5)
        stack.clock.advance(int(1e9))  # 1 simulated second
        assert cache.get(b"k") is None

    def test_item_expires_from_flash(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v", ttl_seconds=0.5)
        cache.flush()
        cache.ram.clear()
        cache._expiry.clear()  # simulate a restart losing RAM metadata
        stack.clock.advance(int(1e9))
        # Expiry travels in the on-flash header, so it still expires.
        assert cache.get(b"k") is None
        assert cache.stats.expired_reads == 1

    def test_expired_item_purged_on_access(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v", ttl_seconds=0.1)
        stack.clock.advance(int(1e9))
        cache.get(b"k")
        assert not cache.contains(b"k")

    def test_reset_ttl_on_overwrite(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v1", ttl_seconds=0.1)
        cache.set(b"k", b"v2")  # no TTL this time
        stack.clock.advance(int(1e9))
        assert cache.get(b"k") == b"v2"

    def test_invalid_ttl_rejected(self, stack):
        with pytest.raises(ValueError):
            stack.cache.set(b"k", b"v", ttl_seconds=0)

    @pytest.mark.parametrize("ttl", [2e10, float("inf"), 1e300, float("nan"), -1.0])
    def test_unrepresentable_ttl_refused_before_any_effect(self, stack, ttl):
        """A TTL whose expiry overflows the entry header's u64 (or is not
        finite) is refused as a typed error while clock, stats, DRAM
        tier and TTL ledger are still as they were; nothing reads back."""
        cache = stack.cache
        cache.set(b"other", b"o")
        before = (
            stack.clock.now, cache.stats.sets, cache.stats.sets_admitted,
            len(cache.stats.set_latency._samples), cache.ram.used_bytes,
        )
        with pytest.raises(InvalidTtlError):
            cache.set(b"k", b"v", ttl_seconds=ttl)
        assert before == (
            stack.clock.now, cache.stats.sets, cache.stats.sets_admitted,
            len(cache.stats.set_latency._samples), cache.ram.used_bytes,
        )
        assert b"k" not in cache.ram and b"k" not in cache.lifecycle.expiry
        assert cache.get(b"k") is None

    def test_largest_representable_expiry_is_accepted(self, stack):
        cache = stack.cache
        now = stack.clock.now + cache.config.cpu.set_per_item_ns
        ttl = (MAX_EXPIRY_NS - now) // 10**9
        assert cache.set(b"k", b"v", ttl_seconds=ttl)
        cache.flush()
        cache.ram.clear()
        assert cache.get(b"k") == b"v"

    def test_delete_clears_expiry(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v", ttl_seconds=5.0)
        cache.delete(b"k")
        assert b"k" not in cache._expiry

    def test_hit_ratio_counts_expired_as_miss(self, stack):
        cache = stack.cache
        cache.set(b"k", b"v", ttl_seconds=0.1)
        stack.clock.advance(int(1e9))
        cache.get(b"k")
        assert cache.stats.lookups.misses == 1

    def test_expiry_routes_through_liveness_ledger(self, stack):
        # Expired flash bytes report to the region ledger under the
        # "expired" reason — same account the eviction order and the
        # invalidation sweep read (no more ad-hoc expiry counters).
        cache = stack.cache
        cache.set(b"k", b"v" * 64, ttl_seconds=0.1)
        cache.flush()
        stack.clock.advance(int(1e9))
        cache.get(b"k")
        assert cache.regions.ledger.dead_bytes["expired"] > 0
        assert cache.regions.ledger.dead_items["expired"] == 1
