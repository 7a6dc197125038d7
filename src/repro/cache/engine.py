"""The hybrid cache engine (CacheLib stand-in).

``HybridCache`` composes the DRAM tier, the key → location index, the region
manager and a scheme backend into the get/set/delete API the paper's
workloads drive.  The data path mirrors CacheLib's log-structured
engine:

* **set** — the entry is packed into the open region's in-memory buffer;
  when the buffer cannot fit the next entry it is flushed to the backend
  and a fresh region is allocated, *evicting an entire sealed region*
  (LRU by default) if the pool is exhausted.  Evicting a region tears
  down one index entry per live item, charged at
  ``cpu.evict_index_per_item_ns`` each — with zone-sized regions this is
  the lock-contention stall of Figure 3(a).
* **get** — DRAM first, then the open buffer (read-from-buffer), then a
  ranged backend read; flash hits promote the region in the LRU.
* **delete** — drops the index entry; space is reclaimed lazily when the
  region is eventually evicted (log-structured semantics).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.admission import AdmissionPolicy, build_admission
from repro.cache.backends.base import RegionStore, WafBreakdown
from repro.cache.config import CacheConfig
from repro.cache.item import EntryCodec, EntryLocation
from repro.cache.lifecycle import ItemLifecycle, tenant_token
from repro.cache.ram_cache import RamCache
from repro.cache.region import RegionBuffer, RegionMeta
from repro.cache.region_manager import RegionManager
from repro.cache.stats import CacheStats
from repro.errors import (
    CacheConfigError,
    DeviceError,
    EntryCorruptError,
    FatalDeviceError,
    InvalidTtlError,
    ObjectTooLargeError,
    PowerCutError,
    RetryableError,
    TranslationError,
)
from repro.sim.clock import SimClock

# One seal-journal record: (event, region_id, seq, salt).  The journal is
# the region lifecycle log crash recovery replays: "flush" marks a region
# flush starting, "seal" that it completed, "invalidate" that the region
# was evicted, "quarantine" that its media died, "nsbump" that a tenant
# namespace generation advanced (the region-id slot carries the tenant
# token, the salt slot the new generation).  In a real deployment this
# is the tiny metadata log navy persists; here it lives in memory and
# the crash harness hands it to :meth:`HybridCache.crash_recover`.
JournalEntry = Tuple[str, int, int, int]


class HybridCache:
    """DRAM + log-structured flash cache over one scheme backend."""

    def __init__(
        self,
        clock: SimClock,
        store: RegionStore,
        config: CacheConfig,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        if config.region_size != store.region_size:
            raise CacheConfigError(
                f"config region_size {config.region_size} != backend region "
                f"size {store.region_size}"
            )
        if config.num_regions > store.num_regions:
            raise CacheConfigError(
                f"config num_regions {config.num_regions} exceeds backend's "
                f"{store.num_regions}"
            )
        self._clock = clock
        self.store = store
        self.config = config
        # Hot-path caches: the tracer object is stable for the lifetime
        # of the stack (subscribing mutates it in place), and the CPU
        # cost model is fixed at construction.  get/set/delete read
        # these instead of chasing config/property chains per op.
        self.tracer = store.tracer
        self._get_ns = config.cpu.get_ns
        self._set_ns = config.cpu.set_per_item_ns
        self._delete_ns = config.cpu.delete_ns
        self._copy_ns_per_kib = config.cpu.buffer_copy_ns_per_kib
        self._region_size = config.region_size
        self._entry_overhead = EntryCodec.entry_size(
            b"", b"", checksum=config.checksums
        )
        self.admission = (
            admission if admission is not None else build_admission(config.admission)
        )
        self.ram = RamCache(config.ram_bytes)
        # key -> where its newest admitted entry lives.  One flat dict:
        # the eviction cost model charges by item count
        # (``CpuCosts.eviction_teardown_ns``), never by shard.
        self.index: Dict[bytes, EntryLocation] = {}
        # The reclaim window may not exceed an eighth of the region pool:
        # wider windows randomize reuse order enough that zone-level
        # garbage never concentrates and backend GC degenerates.
        effective_window = max(1, min(config.reclaim_window, config.num_regions // 8))
        self.regions = RegionManager(
            config.num_regions,
            config.eviction_policy,
            effective_window,
            dead_first=config.lifecycle.dead_first_eviction,
        )
        self.stats = CacheStats(started_at_ns=clock.now)
        self._waf_window_start = store.waf_raw()
        # Tenant item-lifecycle layer: TTL bookkeeping (the expiry dict
        # below is the lifecycle's, shared by reference for the hot-path
        # emptiness check) and per-tenant namespace generations.
        self.lifecycle = ItemLifecycle(config.lifecycle)
        self._versioning = config.lifecycle.versioning
        # Region generation counter: each opened buffer gets a fresh
        # generation, used as the checksum salt (see item.py).
        self._generation = 0
        self._journal_seq = 0
        self.seal_journal: List[JournalEntry] = []
        self._buffer: RegionBuffer = self._open_fresh_region()
        # The open region's live keys -> on-flash entry bytes, in append
        # order; it becomes ``RegionMeta.keys`` at seal (handed over, not
        # copied), so a region has one key map from first append to
        # eviction.
        self._open_entries: Dict[bytes, int] = {}
        # TTL bookkeeping for items whose set() carried an expiry; the
        # authoritative copy also travels in the on-flash entry header.
        self._expiry: dict = self.lifecycle.expiry

    # --- public API -----------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Look up a key across DRAM, the open buffer, and flash.

        Expired items (TTL) read as misses and are purged on access.
        """
        start_ns = self._clock.now
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("engine", "get"):
                return self._get_impl(key, start_ns)
        return self._get_impl(key, start_ns)

    def _get_impl(self, key: bytes, start_ns: int) -> Optional[bytes]:
        clock = self._clock
        clock.now = start_ns + self._get_ns
        stats = self.stats
        if self._expiry:
            expiry = self._expiry.get(key)
            if expiry is not None and clock.now >= expiry:
                self._purge_expired(key)
                stats.ram_lookups.record(False)
                self._finish_lookup(start_ns, hit=False)
                return None
        if self._versioning and not self.lifecycle.namespaces.is_current(key):
            # The key's namespace generation was bumped past: the item
            # is dead regardless of which tier still holds bytes for it.
            # Purging here keeps the guarantee that no read — including
            # replica fallbacks and crash-recovered indexes — ever
            # serves a pre-bump generation.
            self._discard_stale(key)
            stats.ram_lookups.record(False)
            self._finish_lookup(start_ns, hit=False)
            return None
        value = self.ram.get(key)
        if value is not None:
            ram_lookups = stats.ram_lookups
            ram_lookups.total += 1
            ram_lookups.hits += 1
            lookups = stats.lookups
            lookups.total += 1
            lookups.hits += 1
            recorder = stats.get_latency
            recorder._samples.append(clock.now - start_ns)
            recorder._sorted = None
            stats.finished_at_ns = clock.now
            return value
        stats.ram_lookups.total += 1
        location = self.index.get(key)
        if location is not None:
            value = self._read_entry(key, location)
            flash_lookups = stats.flash_lookups
            flash_lookups.total += 1
            if value is not None:
                flash_lookups.hits += 1
                stats.lookups.hits += 1
                self.regions.touch(location.region_id)
                self.ram.put(key, value)
        stats.lookups.total += 1
        recorder = stats.get_latency
        recorder._samples.append(clock.now - start_ns)
        recorder._sorted = None
        stats.finished_at_ns = clock.now
        return value

    def set(self, key: bytes, value: bytes, ttl_seconds: Optional[float] = None) -> bool:
        """Insert/replace an item; returns True if it reached flash.

        ``ttl_seconds`` sets an expiry relative to the simulated clock;
        expired items read as misses.
        """
        start_ns = self._clock.now
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("engine", "set"):
                return self._set_impl(key, value, ttl_seconds, start_ns)
        return self._set_impl(key, value, ttl_seconds, start_ns)

    def _set_impl(
        self,
        key: bytes,
        value: bytes,
        ttl_seconds: Optional[float],
        start_ns: int,
    ) -> bool:
        # Reject before charging anything: a refused set must leave the
        # clock, stats and every tier exactly as it found them.
        entry_size = self._entry_overhead + len(key) + len(value)
        if entry_size > self._region_size:
            raise ObjectTooLargeError(
                f"entry of {entry_size}B exceeds region size {self._region_size}"
            )
        if ttl_seconds is not None and not ttl_seconds > 0:
            raise InvalidTtlError(f"ttl_seconds must be positive, got {ttl_seconds}")
        clock = self._clock
        clock.now = start_ns + self._set_ns
        stats = self.stats
        stats.sets += 1
        expiry_ns = 0
        if ttl_seconds is not None:
            expiry_ns = clock.now + int(ttl_seconds * 1e9)
            self.lifecycle.note_ttl(key, expiry_ns)
        elif self._expiry:
            self.lifecycle.clear_ttl(key)
        self.ram.put(key, value)
        if not self.admission.admit(key, value):
            self._drop_flash_copy(key)
            self._finish_mutation(start_ns, stats.set_latency)
            return False
        buffer = self._buffer
        if entry_size > buffer.capacity - buffer.used:
            self._seal_and_rotate()
            buffer = self._buffer
        clock.now += self._copy_ns_per_kib * (entry_size // 1024)
        location = buffer.append(key, value, expiry_ns)
        index = self.index
        old = index.get(key)
        index[key] = location
        if old is not None:
            if old.region_id != location.region_id:
                self.regions.note_key_removed(old.region_id, key, "overwritten")
            else:
                # Superseded within the open buffer: its bytes die in place.
                self.regions.ledger.note_dead(old.length, "overwritten")
        self._open_entries[key] = location.length
        stats.sets_admitted += 1
        recorder = stats.set_latency
        recorder._samples.append(clock.now - start_ns)
        recorder._sorted = None
        stats.finished_at_ns = clock.now
        return True

    def delete(self, key: bytes) -> bool:
        """Remove a key from every tier; returns True if it existed."""
        clock = self._clock
        start_ns = clock.now
        clock.now = start_ns + self._delete_ns
        stats = self.stats
        stats.deletes += 1
        if self._expiry:
            self.lifecycle.clear_ttl(key)
        in_ram = self.ram.remove(key)
        location = self.index.pop(key, None)
        if location is not None:
            self._note_removed(location, key, "deleted")
        recorder = stats.delete_latency
        recorder._samples.append(clock.now - start_ns)
        recorder._sorted = None
        stats.finished_at_ns = clock.now
        return in_ram or location is not None

    def contains(self, key: bytes) -> bool:
        """Index/DRAM membership probe without touching the device."""
        return key in self.ram or key in self.index

    def flush(self) -> None:
        """Force-seal the open region (tests and shutdown paths)."""
        if self._buffer.used > 0:
            self._seal_and_rotate()

    def waf(self) -> WafBreakdown:
        """Cumulative scheme write-amplification breakdown."""
        return self.store.waf()

    def waf_window(self) -> WafBreakdown:
        """WAF since the last :meth:`reset_stats` (Table 1's metric is a
        steady-state quantity, so the population transient is excluded)."""
        return self._waf_window_start.window_to(self.store.waf_raw())

    def item_count(self) -> int:
        """Distinct keys reachable via flash index (DRAM may add more)."""
        return len(self.index)

    def reset_stats(self) -> None:
        """Start a fresh measurement window (e.g. after warm-up)."""
        self.stats = CacheStats(started_at_ns=self._clock.now)
        self._waf_window_start = self.store.waf_raw()

    # --- tenant lifecycle -----------------------------------------------------------

    def invalidate_namespace(
        self, tenant_id: bytes, generation: Optional[int] = None
    ) -> int:
        """Bump a tenant's namespace generation in O(1); returns it.

        Nothing is scanned: keys of older generations simply classify as
        dead from here on — reads refuse them, eviction and GC account
        their bytes as "invalidated" when the region is reclaimed.  The
        bump is journaled so it survives :meth:`crash_recover`.
        """
        gen = self.lifecycle.namespaces.bump(tenant_id, generation)
        self._journal("nsbump", tenant_token(tenant_id), gen)
        return gen

    def migration_worth(self, region_id: int) -> bool:
        """§3.4 co-design hint for backend GC: copy this region?

        False drops the region instead of migrating it.  A region is not
        worth copying when the cache no longer tracks it, when every key
        in it already died (deletes/TTL sweep), when all surviving keys
        belong to dead namespace generations, or when it sits below the
        configured eviction-position threshold (about to be reclaimed
        anyway).  Wired as ``layer.gc.migration_hint`` by the scheme
        builders when ``lifecycle.gc_hints`` is set.
        """
        regions = self.regions
        meta = regions.meta(region_id)
        if meta is None:
            return False  # evicted or purged: the cache is done with it
        if not meta.keys:
            return False  # fully dead already
        if self._versioning:
            ns = self.lifecycle.namespaces
            if all(not ns.is_current(key) for key in meta.keys):
                return False  # whole region belongs to dead generations
        threshold = self.config.lifecycle.hint_drop_position
        if threshold > 0.0:
            position = regions.eviction_position(region_id)
            # <= so threshold=1.0 covers the whole documented [0, 1]
            # range: eviction_position is a fraction in [0, 1] and the
            # most-recently-sealed region sits exactly at 1.0.
            if position is not None and position <= threshold:
                return False
        return True

    def on_region_dropped(self, region_id: int) -> None:
        """Backend GC dropped a region the hint refused to migrate:
        purge its index entries and account each key's bytes by cause
        (dead generations as "invalidated", the rest as "dropped").
        Wired as ``layer.gc.on_drop`` next to :meth:`migration_worth`."""
        meta = self.regions.meta(region_id)
        if meta is None:
            return
        ns = self.lifecycle.namespaces
        ledger = self.regions.ledger
        dead_generation = bool(meta.keys)
        for key in list(meta.keys):
            location = self.index.get(key)
            if location is not None and location.region_id == region_id:
                del self.index[key]
                self.stats.dropped_items += 1
            if self._versioning and not ns.is_current(key):
                reason = "invalidated"
            else:
                reason = "dropped"
                dead_generation = False
            self.regions.note_key_removed(region_id, key, reason)
        if dead_generation and self._versioning:
            ledger.dead_generation_regions += 1

    # --- warm restart -------------------------------------------------------------

    def shutdown(self) -> dict:
        """Clean shutdown: flush the open buffer and snapshot the state a
        warm restart needs (index, region metadata, eviction order).

        CacheLib's navy engine persists exactly this so flash contents
        survive process restarts; the cached *data* already lives on the
        (persistent) backend device.
        """
        self.flush()
        sealed = []
        # sealed_seq preserves the eviction order across the restart.
        for rid, meta in sorted(
            self.regions._sealed.items(), key=lambda kv: kv[1].sealed_seq
        ):
            sealed.append(
                {
                    "region_id": rid,
                    "sealed_seq": meta.sealed_seq,
                    "keys": sorted(meta.keys),
                    "salt": meta.salt,
                }
            )
        index = {key: tuple(location) for key, location in self.index.items()}
        return {
            "config": {
                "region_size": self.config.region_size,
                "num_regions": self.config.num_regions,
            },
            "sealed": sealed,
            "free": list(self.regions._free),
            "quarantined": sorted(self.regions._quarantined),
            "generation": self._generation,
            "index": index,
            "expiry": dict(self._expiry),
            "namespaces": self.lifecycle.namespaces.snapshot(),
            "open_region_id": self._buffer.region_id,
        }

    @classmethod
    def warm_restart(
        cls,
        clock: SimClock,
        store: RegionStore,
        config: CacheConfig,
        state: dict,
        admission: Optional[AdmissionPolicy] = None,
    ) -> "HybridCache":
        """Rebuild a cache over the same (persistent) backend.

        DRAM contents are gone (it was a restart); the flash index and
        region metadata come back, so flash hits resume immediately.
        """
        if state["config"]["region_size"] != config.region_size:
            raise CacheConfigError("warm restart with a different region size")
        if state["config"]["num_regions"] != config.num_regions:
            raise CacheConfigError("warm restart with a different region count")
        cache = cls(clock, store, config, admission)
        # Discard the constructor's fresh region and rebuild exactly the
        # persisted layout.
        cache.regions = RegionManager(
            config.num_regions, config.eviction_policy,
            max(1, min(config.reclaim_window, config.num_regions // 8)),
            dead_first=config.lifecycle.dead_first_eviction,
        )
        cache.regions._free = deque(
            rid for rid in state["free"] if rid != state["open_region_id"]
        )
        for rid in state.get("quarantined", []):
            cache.regions.quarantine(rid)
            cache.stats.quarantined_regions += 1
        for entry in state["sealed"]:
            meta = RegionMeta(
                entry["region_id"],
                keys=dict.fromkeys(entry["keys"], 0),
                salt=entry.get("salt", 0),
            )
            cache.regions.seal(meta)
        # Generations keep counting up across the restart so the new open
        # buffer's checksum salt never collides with on-flash entries.
        cache._generation = max(state.get("generation", 0), cache._generation) + 1
        cache._buffer = RegionBuffer(
            state["open_region_id"],
            config.region_size,
            clock.now,
            checksums=config.checksums,
            salt=cache._generation,
        )
        cache._open_entries = {}
        for key, (region_id, offset, length) in state["index"].items():
            cache.index[key] = EntryLocation(region_id, offset, length)
            meta = cache.regions.meta(region_id)
            if meta is not None and key in meta.keys:
                meta.keys[key] = length
                meta.live_bytes += length
        for key, expiry_ns in state["expiry"].items():
            cache.lifecycle.note_ttl(key, expiry_ns)
        cache.lifecycle.namespaces.restore_snapshot(state.get("namespaces", {}))
        return cache

    @classmethod
    def crash_recover(
        cls,
        clock: SimClock,
        store: RegionStore,
        config: CacheConfig,
        journal: Iterable[JournalEntry],
        admission: Optional[AdmissionPolicy] = None,
    ) -> "HybridCache":
        """Rebuild a cache after a power cut from the seal journal.

        Unlike :meth:`warm_restart` there is no trusted shutdown snapshot:
        only the (tiny, persisted) region lifecycle journal and whatever
        bytes actually reached the media survive.  Recovery replays the
        journal's last event per region:

        * ``quarantine`` — the media was dead before the cut; stays dead.
        * ``invalidate`` — the region was evicted; nothing to recover.
        * ``seal`` / ``flush`` — scan the on-media region payload and
          re-insert every entry that decodes cleanly.  With per-item
          checksums (``config.checksums``) a torn flush recovers its
          intact prefix and drops the torn tail; without them an
          unsealed flush cannot be distinguished from a torn one, so
          only fully sealed regions are replayed.

        The invariant tests assert: a recovered get never serves a torn
        entry, and never serves a value older than the newest one that
        was fully persisted for that key.
        """
        start_ns = clock.now
        cache = cls(clock, store, config, admission)
        effective_window = max(1, min(config.reclaim_window, config.num_regions // 8))
        cache.regions = RegionManager(
            config.num_regions,
            config.eviction_policy,
            effective_window,
            dead_first=config.lifecycle.dead_first_eviction,
        )
        cache.index = {}
        cache.seal_journal = []
        cache._journal_seq = 0
        # Journal entries arrive in seq order; the last event per region
        # decides its fate (later events supersede earlier lifecycle).
        # Namespace bumps are not region events: every one replays (the
        # counters only move forward), so no recovered read can serve a
        # pre-bump generation.
        last: Dict[int, JournalEntry] = {}
        for record in journal:
            if record[0] == "nsbump":
                cache.lifecycle.namespaces.restore(record[1], record[3])
                continue
            last[record[1]] = record
        key_region: Dict[bytes, int] = {}
        replayed: List[Tuple[int, int]] = []  # (region_id, salt) sealed again
        quarantined: List[int] = []
        for event, rid, _seq, salt in sorted(last.values(), key=lambda r: r[2]):
            if event == "quarantine":
                cache.regions.quarantine(rid)
                cache.stats.quarantined_regions += 1
                quarantined.append(rid)
                continue
            if event == "invalidate":
                continue
            if event == "flush" and not config.checksums:
                # Mid-flush at the cut and no way to verify what landed.
                continue
            try:
                payload = store.read(rid, 0, config.region_size)
            except (DeviceError, TranslationError):
                cache.regions.quarantine(rid)
                cache.stats.quarantined_regions += 1
                quarantined.append(rid)
                continue
            entries, torn = EntryCodec.scan_region(
                payload, salt=salt, require_checksum=config.checksums
            )
            if torn:
                cache.stats.torn_items_dropped += 1
            keys: Dict[bytes, int] = {}
            for offset, length, entry in entries:
                previous_rid = key_region.get(entry.key)
                if previous_rid is not None and previous_rid != rid:
                    cache.regions.note_key_removed(
                        previous_rid, entry.key, "overwritten"
                    )
                cache.index[entry.key] = EntryLocation(rid, offset, length)
                key_region[entry.key] = rid
                keys[entry.key] = length
                if entry.expiry_ns:
                    cache.lifecycle.note_ttl(entry.key, entry.expiry_ns)
                cache.stats.recovered_items += 1
            meta = RegionMeta(
                rid, keys=keys, salt=salt, live_bytes=sum(keys.values())
            )
            cache.regions.seal(meta)
            replayed.append((rid, salt))
        in_use = {rid for rid, _ in replayed} | set(quarantined)
        cache.regions._free = deque(
            rid for rid in range(config.num_regions) if rid not in in_use
        )
        # Rebuild the journal to describe the recovered layout,
        # including the namespace generations (so a second crash still
        # refuses pre-bump reads).
        for rid, salt in replayed:
            cache._journal("seal", rid, salt)
        for rid in quarantined:
            cache._journal("quarantine", rid)
        for token, gen in cache.lifecycle.namespaces.tokens():
            cache._journal("nsbump", token, gen)
        cache._generation = max(
            [salt for _, salt in replayed] + [cache._generation]
        )
        cache._buffer = cache._open_fresh_region()
        cache._open_entries = {}
        cache.stats.recovery_ns = clock.now - start_ns
        return cache

    # --- internals -----------------------------------------------------------------------

    def _open_fresh_region(
        self, recycle: Optional[RegionBuffer] = None
    ) -> RegionBuffer:
        # The new buffer's fill window opens *before* the eviction work so
        # that index-teardown stalls show up in region fill times — the
        # Figure 3(a) jump "caused by eviction operations in other threads".
        opened_at = self._clock.now
        while True:
            region_id, evicted = self.regions.allocate()
            self._clock.advance(
                self.config.cpu.region_alloc_ns
                + self.config.cpu.buffer_alloc_ns_per_mib
                * self.config.region_size
                // (1024 * 1024)
            )
            if evicted:
                self._evict_keys(region_id, evicted)
            # Invalidation may have discovered the region's media is dead
            # (e.g. the zone refused its reset) — take another one.
            if not self.regions.is_quarantined(region_id):
                break
        self._generation += 1
        return RegionBuffer(
            region_id,
            self.config.region_size,
            opened_at,
            checksums=self.config.checksums,
            salt=self._generation,
            recycle=recycle,
        )

    def _seal_and_rotate(self) -> None:
        self._purge_due()
        buffer = self._buffer
        fill_ns = self._clock.now - buffer.opened_at_ns
        self.stats.region_fill_durations_ns.append(fill_ns)
        self._journal("flush", buffer.region_id, buffer.salt)
        # The flush borrows the buffer's own bytes (read-only view, no
        # copy); the backend has copied them to media by the time it
        # returns, and only then is the storage handed to the successor.
        region_id = self._flush_payload(buffer.region_id, buffer.finalize())
        self.stats.flushes += 1
        # The open region's key map becomes the sealed region's: hand it
        # over and start a fresh one rather than copying.
        entries = self._open_entries
        meta = RegionMeta(
            region_id,
            keys=entries,
            fill_duration_ns=fill_ns,
            salt=buffer.salt,
            live_bytes=sum(entries.values()),
        )
        self.regions.seal(meta)
        self._journal("seal", region_id, buffer.salt)
        self._open_entries = {}
        self._buffer = self._open_fresh_region(recycle=buffer)

    def _purge_due(self) -> None:
        """Lazy TTL sweep at region rotation.

        An expired item nobody re-reads is purged here — index entry,
        region key map and live bytes — so eviction ordering sees TTL
        decay without waiting for an access.  Rotation is a natural
        epoch — frequent under write pressure, free when no TTLs are in
        use.
        """
        if not self._expiry:
            return
        due = list(self.lifecycle.due(self._clock.now))
        for key in due:
            self._purge_expired(key)

    def _flush_payload(self, region_id: int, payload: memoryview) -> int:
        """Write a sealed region with retries; returns where it landed.

        Transient errors back off and retry per ``config.retry``.  When
        the target region's media is gone (fatal error, or transient
        errors past the budget) the region is quarantined and the
        in-flight flush re-routes to a freshly allocated region — the
        graceful-degradation path: the cache shrinks, it does not crash.
        """
        last_error: Optional[BaseException] = None
        for _ in range(4):
            try:
                self._write_region_with_retries(region_id, payload)
                return region_id
            except PowerCutError:
                raise
            except (FatalDeviceError, RetryableError) as error:
                last_error = error
                region_id = self._reroute_flush(region_id)
        assert last_error is not None
        raise last_error

    def _write_region_with_retries(
        self, region_id: int, payload: memoryview
    ) -> None:
        policy = self.config.retry
        attempt = 0
        while True:
            try:
                self.store.write_region(region_id, payload)
                return
            except PowerCutError:
                raise
            except FatalDeviceError:
                self.stats.io_errors += 1
                raise
            except RetryableError:
                attempt += 1
                self.stats.retries += 1
                if attempt >= policy.max_attempts:
                    self.stats.io_errors += 1
                    raise
                self._clock.advance(policy.backoff_for(attempt - 1))

    def _reroute_flush(self, dead_region_id: int) -> int:
        """Quarantine a dead flush target and point the open keys at a
        fresh region id so the retried flush lands somewhere healthy."""
        self._quarantine_region(dead_region_id)
        while True:
            new_region_id, evicted = self.regions.allocate()
            if evicted:
                self._evict_keys(new_region_id, evicted)
            if not self.regions.is_quarantined(new_region_id):
                break
        for key in self._open_entries:
            location = self.index.get(key)
            if location is not None and location.region_id == dead_region_id:
                self.index[key] = EntryLocation(
                    new_region_id, location.offset, location.length
                )
        self.store.tracer.emit_event(
            "engine.fault", "reroute_flush", offset=new_region_id
        )
        return new_region_id

    def _quarantine_region(self, region_id: int) -> None:
        """Permanently retire a region whose media died; drop its items."""
        if self.regions.is_quarantined(region_id):
            return
        meta = self.regions.meta(region_id)
        if meta is not None:
            for key in list(meta.keys):
                location = self.index.get(key)
                if location is not None and location.region_id == region_id:
                    del self.index[key]
                    self.stats.dropped_items += 1
        self.regions.quarantine(region_id)
        self.stats.quarantined_regions += 1
        self._journal("quarantine", region_id)
        self.store.tracer.emit_event("engine.fault", "quarantine", offset=region_id)

    def _purge_region(self, region_id: int) -> None:
        """Forget a region's items after the backend lost its mapping
        (e.g. its zone died under GC).  Unlike quarantine, the region id
        itself stays usable — the store can write it again later."""
        meta = self.regions.meta(region_id)
        if meta is None:
            return
        ns = self.lifecycle.namespaces
        for key in list(meta.keys):
            location = self.index.get(key)
            if location is not None and location.region_id == region_id:
                del self.index[key]
                self.stats.dropped_items += 1
            reason = (
                "invalidated"
                if self._versioning and not ns.is_current(key)
                else "dropped"
            )
            self.regions.note_key_removed(region_id, key, reason)

    def _evict_keys(self, region_id: int, evicted: Dict[bytes, int]) -> None:
        """Tear down index entries of a reclaimed region (lock-convoy model)."""
        self.store.tracer.emit_event(
            "reclaim.cache", "evict", offset=region_id, length=len(evicted)
        )
        self._clock.advance(self.config.cpu.eviction_teardown_ns(len(evicted)))
        ns = self.lifecycle.namespaces if self._versioning else None
        ledger = self.regions.ledger
        for key in evicted:
            location = self.index.get(key)
            if location is not None and location.region_id == region_id:
                del self.index[key]
                if ns is not None and not ns.is_current(key):
                    # Dead-generation bytes discovered at eviction: the
                    # bump never scanned, so this is where they are
                    # finally accounted.
                    ledger.note_dead(location.length, "invalidated")
        self._journal("invalidate", region_id)
        try:
            self.store.invalidate_region(region_id)
        except PowerCutError:
            raise
        except RetryableError:
            # Invalidation is advisory (the region will be overwritten
            # anyway); skip it this round rather than stall the reclaim.
            self.stats.retries += 1
        except FatalDeviceError:
            self._quarantine_region(region_id)

    def _read_entry(self, key: bytes, location: EntryLocation) -> Optional[bytes]:
        """The value the index says lives at ``location``, or None.

        The open region is served from its buffer; a sealed one by a
        ranged backend read with retry/degradation.  The entry is decoded
        where it lies and checked — truncation, salted CRC, key match,
        expiry — and whatever fails reads as a miss.
        """
        region_id, offset, length = location
        buffer = self._buffer
        if region_id == buffer.region_id:
            blob = buffer.read(offset, length)
            salt = buffer.salt
        else:
            blob = self._read_location(region_id, offset, length)
            if blob is None:
                return None
            meta = self.regions.meta(region_id)
            salt = meta.salt if meta is not None else 0
        try:
            stored_key, value, expiry_ns = EntryCodec.read_entry(blob, salt)
        except (ValueError, EntryCorruptError):
            # Torn or corrupt on-flash bytes: drop the item, serve a miss.
            self.stats.corrupt_reads += 1
            self._drop_flash_copy(key)
            return None
        if stored_key != key:
            # Stale index entry (should not happen; counted defensively).
            self.stats.stale_index_reads += 1
            self.index.pop(key, None)
            return None
        if expiry_ns and self._clock.now >= expiry_ns:
            self.stats.expired_reads += 1
            self._purge_expired(key)
            return None
        return value

    def _read_location(
        self, region_id: int, offset: int, length: int
    ) -> Optional[bytes]:
        """Ranged backend read with retry/degradation; None means miss."""
        policy = self.config.retry
        attempt = 0
        while True:
            try:
                return self.store.read(region_id, offset, length)
            except PowerCutError:
                raise
            except RetryableError:
                attempt += 1
                self.stats.retries += 1
                if attempt >= policy.max_attempts:
                    # Past the budget: degrade to a miss but keep the
                    # mapping — a transient fault may yet heal.
                    self.stats.io_errors += 1
                    self.stats.degraded_misses += 1
                    return None
                self._clock.advance(policy.backoff_for(attempt - 1))
            except FatalDeviceError:
                self.stats.io_errors += 1
                self.stats.degraded_misses += 1
                self._quarantine_region(region_id)
                return None
            except TranslationError:
                # The middle layer dropped the region (its zone died
                # under GC): purge the stale mappings, count misses.
                self.stats.io_errors += 1
                self.stats.degraded_misses += 1
                self._purge_region(region_id)
                return None

    def _journal(self, event: str, region_id: int, salt: int = 0) -> None:
        self._journal_seq += 1
        self.seal_journal.append((event, region_id, self._journal_seq, salt))

    def _is_expired(self, key: bytes) -> bool:
        expiry = self._expiry.get(key)
        return expiry is not None and self._clock.now >= expiry

    def _note_removed(self, location: EntryLocation, key: bytes, reason: str) -> None:
        """Shared removal accounting: open-buffer keys leave the open
        region's key map, sealed keys report to the region's liveness
        ledger."""
        if location.region_id == self._buffer.region_id:
            if self._open_entries.pop(key, None) is not None:
                self.regions.ledger.note_dead(location.length, reason)
        else:
            self.regions.note_key_removed(location.region_id, key, reason)

    def _purge_expired(self, key: bytes) -> None:
        self.lifecycle.clear_ttl(key)
        self.ram.remove(key)
        location = self.index.pop(key, None)
        if location is not None:
            self._note_removed(location, key, "expired")

    def _discard_stale(self, key: bytes) -> None:
        """Purge a key whose namespace generation was bumped past."""
        self.lifecycle.clear_ttl(key)
        self.ram.remove(key)
        location = self.index.pop(key, None)
        if location is not None:
            self._note_removed(location, key, "invalidated")

    def _drop_flash_copy(self, key: bytes) -> None:
        """An unadmitted overwrite supersedes any flash copy."""
        location = self.index.pop(key, None)
        if location is not None:
            self._note_removed(location, key, "overwritten")

    def _finish_lookup(self, start_ns: int, hit: bool) -> None:
        self.stats.lookups.record(hit)
        self.stats.get_latency.record(self._clock.now - start_ns)
        self.stats.finished_at_ns = self._clock.now

    def _finish_mutation(self, start_ns: int, recorder) -> None:
        recorder.record(self._clock.now - start_ns)
        self.stats.finished_at_ns = self._clock.now

    def __repr__(self) -> str:
        return (
            f"HybridCache({self.store.scheme_name}, regions="
            f"{self.config.num_regions}×{self.config.region_size}B, "
            f"items={len(self.index)})"
        )
