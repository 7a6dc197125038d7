"""The engine's whole state after a seeded op stream, pinned as a digest.

The benchmark's ``sim_digest`` sees only checksums-off FIFO stacks
(``serve_hints`` adds versioning and dead-first eviction), so a change
to the engine's hot paths could move what those stacks never run —
checksummed packing, LRU promotion, dead-first victims, unadmitted
sets, TTL expiry, namespace bumps, DRAM-tier eviction — without any
benchmark noticing.  Each case below drives one stack through a seeded
20,000-op stream of sets (some with a TTL, some too large for the DRAM
tier), gets, deletes, overwrites and namespace bumps, then takes a
sha256 over everything the engine keeps:

* the seal journal and the liveness ledger's snapshot,
* the index, the open region's key map and its buffered bytes,
* the DRAM tier's key order, byte count and eviction count,
* every sealed region's keys, live and dead bytes,
* the ``CacheStats`` counters and latency samples,
* every page store of the stack (each device's media, chunk by chunk).

The digests were taken on the tree before the engine ran its ops in
one frame; a host-speed change must leave every one of them as it is.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import fields

import pytest

from repro.bench.schemes import SchemeScale, build_scheme
from repro.cache import TinyLfuAdmission
from repro.cache.lifecycle import LifecycleConfig
from repro.cache.stats import CacheStats
from repro.sim import SimClock
from repro.units import KIB, MIB

SCALE = SchemeScale(
    zone_size=1 * MIB, region_size=64 * KIB, pages_per_block=64, ram_bytes=32 * KIB
)
OPS = 20_000
KEYS = 1_500
TENANTS = (b"ta", b"tb", b"tc")

# (scheme, checksums, eviction policy, dead-first, namespace versioning,
#  TinyLFU admission at threshold 2 installed over the scheme's own).
# Region-Cache runs with every switch on and with every switch off; the
# other schemes mix them so each switch is seen both ways below a ZTL,
# F2FS, an FTL and raw zones.  Z-Cache brings its own admission
# (threshold 1).
CASES = {
    "Region-Cache-on": ("Region-Cache", True, "lru", True, True, True),
    "Region-Cache-off": ("Region-Cache", False, "fifo", False, False, False),
    "Zone-Cache": ("Zone-Cache", True, "fifo", False, True, False),
    "File-Cache": ("File-Cache", False, "lru", True, True, True),
    "Block-Cache": ("Block-Cache", True, "fifo", True, False, False),
    "Z-Cache": ("Z-Cache", False, "lru", True, True, False),
}

PARENT_DIGESTS = {
    "Region-Cache-on": "42169630265277560862ab28c4b001ae7d863c9c09ff825d0b39cf4ce32fed38",
    "Region-Cache-off": "b2de7f350e131921d63a96be0f77da1b462c58846214a4f767cfae6797aa7556",
    "Zone-Cache": "dc39989e36cab7483818bd2165e2970e2f165df15a2334d785b3ae4ec73f2942",
    "File-Cache": "59860fb15bc3515d81f6821b8e90e33fe8fc1d8d0d8d2eabacb44b12182d1da3",
    "Block-Cache": "835ceca20be644b4477c1ab2c2081a2b732d78cc20da89b0b511040e5b2cd146",
    "Z-Cache": "49e9abbfcbec813755faa88be3369d1b423bead0677d09418cffa1a883979e8b",
}


def _build(scheme, checksums, policy, dead_first, versioning, tiny_lfu):
    overrides = dict(
        checksums=checksums,
        eviction_policy=policy,
        lifecycle=LifecycleConfig(versioning=versioning, dead_first_eviction=dead_first),
    )
    if scheme == "Zone-Cache":
        stack = build_scheme(scheme, SimClock(), SCALE, 8 * MIB, **overrides)
    else:
        stack = build_scheme(
            scheme, SimClock(), SCALE, 8 * MIB, 4 * MIB,
            file_media_bytes=12 * MIB, reclaim_window=8, **overrides,
        )
    if tiny_lfu:
        stack.cache.admission = TinyLfuAdmission(threshold=2, decay_ops=2_000)
    return stack


def _drive(cache, versioning: bool, seed: int = 38) -> None:
    rng = random.Random(seed)
    generations = {tenant: 0 for tenant in TENANTS}

    def key_of(index: int) -> bytes:
        if not versioning or index % 3 == 0:
            return b"key-%05d" % index
        tenant = TENANTS[index % len(TENANTS)]
        generation = generations[tenant]
        if generation and rng.random() < 0.1:
            generation -= 1  # a reader still naming the previous generation
        return b"%s:%d:key-%05d" % (tenant, generation, index)

    for step in range(OPS):
        index = rng.randrange(KEYS)
        draw = rng.random()
        if draw < 0.45:
            size = rng.randrange(40, 2_500)
            if rng.random() < 0.01:
                size = 40 * KIB  # fits a region, not the 32 KiB DRAM tier
            value = (b"%05d." % step) * (size // 6 + 1)
            ttl = None
            if rng.random() < 0.08:
                ttl = rng.choice((1e-4, 1e-3, 5e-3, 20.0))
            cache.set(key_of(index), value[:size], ttl)
        elif draw < 0.90:
            cache.get(key_of(index))
        elif draw < 0.985:
            cache.delete(key_of(index))
        elif versioning:
            tenant = TENANTS[index % len(TENANTS)]
            generations[tenant] = cache.invalidate_namespace(tenant)


def state_digest(stack) -> str:
    """sha256 over the engine's state and the stack's page stores."""
    cache = stack.cache
    digest = hashlib.sha256()

    def put(*parts) -> None:
        digest.update(repr(parts).encode())

    put("journal", cache.seal_journal)
    put("ledger", sorted(cache.regions.ledger.snapshot().items()))
    put("index", list(cache.index.items()))
    buffer = cache._buffer
    put("open", buffer.region_id, buffer.used, buffer.salt, list(cache._open_entries.items()))
    if buffer.used:
        digest.update(buffer.read(0, buffer.used))
    ram = cache.ram
    put("ram", list(ram._items), ram.used_bytes, ram.evictions)
    regions = cache.regions
    for region_id in range(cache.config.num_regions):
        meta = regions.meta(region_id)
        if meta is not None:
            put("region", region_id, list(meta.keys.items()), meta.live_bytes, meta.dead_bytes)
    stats = cache.stats
    for field in fields(CacheStats):
        value = getattr(stats, field.name)
        if hasattr(value, "hits"):
            put(field.name, value.hits, value.total)
        elif hasattr(value, "_samples"):
            put(field.name, value._samples.tobytes())
        else:
            put(field.name, value)
    for name in sorted(stack.substrate):
        media = getattr(stack.substrate[name], "media", None)
        if media is not None:
            for chunk in sorted(media._chunks):
                put(name, chunk)
                digest.update(media._chunks[chunk])
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_engine_state_equals_parent_digest(case):
    scheme, checksums, policy, dead_first, versioning, tiny_lfu = CASES[case]
    stack = _build(scheme, checksums, policy, dead_first, versioning, tiny_lfu)
    _drive(stack.cache, versioning)
    stats = stack.cache.stats
    # The stream reached every path it names.
    assert stats.flushes > 0 and stack.cache.regions.regions_evicted > 0
    assert stack.cache.ram.evictions > 0
    assert stack.cache.regions.ledger.dead_items["deleted"] > 0
    assert stack.cache.regions.ledger.dead_items["overwritten"] > 0
    assert state_digest(stack) == PARENT_DIGESTS[case]
