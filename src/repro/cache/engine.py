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
* **delete** — drops the index entry and journals the copy dead; space
  is reclaimed lazily when the region is eventually evicted
  (log-structured semantics).
* **restart** — :meth:`HybridCache.crash_recover` rebuilds the index from
  the seal journal and the media, after a power cut or a clean
  ``flush()``.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cache.admission import AdmissionPolicy, AdmitAll
from repro.cache.backends.base import RegionStore, WafBreakdown
from repro.cache.config import CacheConfig
from repro.cache.eviction import FifoRegionPolicy
from repro.cache.item import MAX_EXPIRY_NS, EntryCodec, EntryLocation, location_of
from repro.cache.lifecycle import ItemLifecycle, tenant_token
from repro.cache.ram_cache import RamCache
from repro.cache.region import RegionBuffer, RegionMeta
from repro.cache.region_manager import RegionManager
from repro.cache.stats import CacheStats
from repro.errors import (
    CacheConfigError,
    CacheTypeError,
    DeviceError,
    EntryCorruptError,
    FatalDeviceError,
    InvalidKeyError,
    InvalidTtlError,
    ObjectTooLargeError,
    PowerCutError,
    RetryableError,
    TranslationError,
)
from repro.sim.clock import SimClock

_HEADER_SIZE = EntryCodec.HEADER_SIZE
_pack_header_into = EntryCodec.pack_header_into
_encode = EntryCodec.encode

# One seal-journal record: (event, region_id, seq, arg).  The journal is
# the log crash recovery replays.  Region lifecycle: "flush" marks a
# region flush starting, "seal" that it completed, "invalidate" that the
# region was evicted, "quarantine" that its media died (``arg`` is the
# region's checksum salt, or 0).  "dead" names a copy that stopped being
# its key's newest state — deleted, overwritten, expired, purged with a
# stale namespace generation or superseded by an unadmitted set — by its
# byte offset ``arg`` in the region, sealed or still open; the region's
# next "invalidate" (or "quarantine") retires it.  "nsbump" records a
# tenant namespace generation advancing (the region-id slot carries the
# tenant token, ``arg`` the new generation).  In a real deployment this
# is the tiny metadata log navy persists; here it lives in memory, with
# no durability cost charged, and the crash harness hands it to
# :meth:`HybridCache.crash_recover`.
JournalEntry = Tuple[str, int, int, int]
JOURNAL_EVENTS = ("flush", "seal", "invalidate", "quarantine", "dead", "nsbump")


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
        # What taking a region for filling costs: fixed per config.
        self._region_alloc_ns = (
            config.cpu.region_alloc_ns
            + config.cpu.buffer_alloc_ns_per_mib * config.region_size // (1024 * 1024)
        )
        self._entry_overhead = EntryCodec.entry_size(
            b"", b"", checksum=config.checksums
        )
        self.admission = admission if admission is not None else AdmitAll()
        self.ram = RamCache(config.ram_bytes)
        # The DRAM tier's LRU map: get, set and delete run its bodies in
        # line on it (``RamCache`` keeps the same bodies as methods, and
        # tests/test_engine_inline_bodies.py holds the two together).
        self._ram_items = self.ram._items
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
        # Bound once for the hot paths: the sealed-region map lookup
        # (what ``regions.meta`` answers), the liveness ledger, and the
        # eviction policy's hit promotion — None under FIFO, where a hit
        # reorders nothing.  ``regions`` is never replaced afterwards
        # (``crash_recover`` keeps the manager built here).
        self._sealed_meta = self.regions._sealed.get
        self._ledger = self.regions.ledger
        policy = self.regions._policy
        self._touch = None if type(policy) is FifoRegionPolicy else policy.touch
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
        # The seal journal: lifecycle and nsbump records in seq order,
        # and each region's live "dead" records as {seq: offset}, so the
        # region's invalidate retires them in one pop.
        self._log: List[JournalEntry] = []
        self._dead: Dict[int, Dict[int, int]] = {}
        self._buffer: RegionBuffer = self._open_fresh_region()
        # The open region's live keys -> on-flash entry bytes, in append
        # order; it becomes ``RegionMeta.keys`` at seal (handed over, not
        # copied), so a region has one key map from first append to
        # eviction.
        self._open_entries: Dict[bytes, int] = {}
        # TTL bookkeeping for items whose set() carried an expiry; the
        # authoritative copy also travels in the on-flash entry header.
        self._expiry: dict = self.lifecycle.expiry

    @property
    def admission(self) -> AdmissionPolicy:
        """The flash admission policy (settable)."""
        return self._admission

    @admission.setter
    def admission(self, policy: AdmissionPolicy) -> None:
        self._admission = policy
        # ``set`` calls ``_admit`` per op; admit-all costs it no call.
        self._admit = None if type(policy) is AdmitAll else policy.admit

    @property
    def seal_journal(self) -> List[JournalEntry]:
        """The seal journal's live records in seq order (a copy): what
        survives a power cut for :meth:`crash_recover` to replay."""
        records = self._log + [
            ("dead", region_id, seq, offset)
            for region_id, copies in self._dead.items()
            for seq, offset in copies.items()
        ]
        records.sort(key=itemgetter(2))
        return records

    # --- public API -----------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Look up a key across DRAM, the open buffer, and flash.

        Expired items (TTL) read as misses and are purged on access.
        """
        clock = self._clock
        start_ns = clock.now
        tracer = self.tracer
        # One body, traced or not: an enabled tracer's span is opened and
        # closed around it by hand rather than by a second call.
        span = tracer.span("engine", "get") if tracer.enabled else None
        if span is not None:
            span.__enter__()
        try:
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
            ram_items = self._ram_items
            value = ram_items.get(key)
            if value is not None:
                ram_items.move_to_end(key)
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
                    touch = self._touch
                    if touch is not None:
                        touch(location[0])
                    self.ram.put(key, value)
            stats.lookups.total += 1
            recorder = stats.get_latency
            recorder._samples.append(clock.now - start_ns)
            recorder._sorted = None
            stats.finished_at_ns = clock.now
            return value
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def set(self, key: bytes, value: bytes, ttl_seconds: Optional[float] = None) -> bool:
        """Insert/replace an item; returns True if it reached flash.

        ``ttl_seconds`` sets an expiry relative to the simulated clock;
        expired items read as misses.  A key or value that is not
        ``bytes``, an empty key, an oversized entry and a TTL that is not
        positive, is not finite or does not fit the entry header's u64
        expiry are refused with a typed error before anything — clock,
        stats, DRAM tier, TTL ledger, admission sketch — is touched.
        """
        clock = self._clock
        start_ns = clock.now
        tracer = self.tracer
        span = tracer.span("engine", "set") if tracer.enabled else None
        if span is not None:
            span.__enter__()
        try:
            if type(key) is not bytes or type(value) is not bytes:
                raise CacheTypeError(
                    f"a cache key and value must be bytes, got "
                    f"{type(key).__name__} and {type(value).__name__}"
                )
            key_len = len(key)
            value_len = len(value)
            entry_size = self._entry_overhead + key_len + value_len
            if entry_size > self._region_size:
                raise ObjectTooLargeError(
                    f"entry of {entry_size}B exceeds region size {self._region_size}"
                )
            if not key:
                # An empty key packs the all-zero header that marks the
                # end of a region's entries (item.py): recovery and the
                # flush-time key scan would stop at it.
                raise InvalidKeyError("a cache key must not be empty")
            expiry_ns = 0
            if ttl_seconds is not None:
                expiry_ns = self._ttl_expiry(ttl_seconds, start_ns + self._set_ns)
            clock.now = start_ns + self._set_ns
            stats = self.stats
            stats.sets += 1
            if ttl_seconds is not None:
                self.lifecycle.note_ttl(key, expiry_ns)
            elif self._expiry:
                self.lifecycle.clear_ttl(key)
            # The DRAM-tier insert (``RamCache.put`` in line): an item
            # larger than the whole tier is not kept, nor is the key's
            # previous value.
            ram = self.ram
            ram_items = self._ram_items
            ram_used = ram._used
            ram_old = ram_items.pop(key, None)
            if ram_old is not None:
                ram_used -= key_len + len(ram_old)
            ram_size = key_len + value_len
            ram_capacity = ram.capacity_bytes
            if ram_size <= ram_capacity:
                ram_items[key] = value
                ram_used += ram_size
                while ram_used > ram_capacity:
                    evicted_key, evicted_value = ram_items.popitem(last=False)
                    ram_used -= len(evicted_key) + len(evicted_value)
                    ram.evictions += 1
            ram._used = ram_used
            admit = self._admit
            if admit is not None and not admit(key, value):
                self._drop_flash_copy(key)
                self._finish_mutation(start_ns, stats.set_latency)
                return False
            # Pack the entry into the open region through its view: the
            # one capacity test is the one that decides rotation.
            buffer = self._buffer
            offset = buffer.used
            if entry_size > buffer.capacity - offset:
                self._seal_and_rotate()
                buffer = self._buffer
                offset = buffer.used
            clock.now += self._copy_ns_per_kib * (entry_size // 1024)
            end = offset + entry_size
            view = buffer.view
            if buffer.checksums:
                view[offset:end] = _encode(
                    key, value, expiry_ns, checksum=True, salt=buffer.salt
                )
            else:
                # Key and value first, the header last: see
                # ``EntryCodec.pack_header_into``.
                key_at = offset + _HEADER_SIZE
                value_at = key_at + key_len
                view[key_at:value_at] = key
                view[value_at:end] = value
                _pack_header_into(view, offset, key_len, value_len, expiry_ns)
            buffer.used = end
            region_id = buffer.region_id
            index = self.index
            old = index.get(key)
            index[key] = location_of((region_id, offset, entry_size))
            if old is not None:
                old_region, old_offset, old_length = old
                if old_region != region_id:
                    self.regions.note_key_removed(old_region, key, "overwritten")
                else:
                    # Superseded within the open buffer: its bytes die in
                    # place (``LivenessLedger.note_dead`` in line).
                    ledger = self._ledger
                    ledger.dead_bytes["overwritten"] += old_length
                    ledger.dead_items["overwritten"] += 1
                # The superseded copy is journaled dead (_journal_dead inline).
                self._journal_seq = seq = self._journal_seq + 1
                copies = self._dead.get(old_region)
                if copies is None:
                    self._dead[old_region] = {seq: old_offset}
                else:
                    copies[seq] = old_offset
            self._open_entries[key] = entry_size
            stats.sets_admitted += 1
            recorder = stats.set_latency
            recorder._samples.append(clock.now - start_ns)
            recorder._sorted = None
            stats.finished_at_ns = clock.now
            return True
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    @staticmethod
    def _ttl_expiry(ttl_seconds: float, now_ns: int) -> int:
        """The expiry a TTL set at ``now_ns`` stores, or
        :class:`InvalidTtlError` when there is none: the TTL is not a
        positive finite number, or the expiry overflows the entry
        header's unsigned 64-bit field."""
        if not ttl_seconds > 0:
            raise InvalidTtlError(f"ttl_seconds must be positive, got {ttl_seconds}")
        try:
            expiry_ns = now_ns + int(ttl_seconds * 1e9)
        except OverflowError:
            raise InvalidTtlError(f"ttl_seconds must be finite, got {ttl_seconds}") from None
        if expiry_ns > MAX_EXPIRY_NS:
            raise InvalidTtlError(
                f"ttl_seconds {ttl_seconds} puts the expiry past the "
                f"{MAX_EXPIRY_NS} ns the entry header can hold"
            )
        return expiry_ns

    def delete(self, key: bytes) -> bool:
        """Remove a key from every tier; returns True if it existed."""
        clock = self._clock
        start_ns = clock.now
        clock.now = start_ns + self._delete_ns
        stats = self.stats
        stats.deletes += 1
        if self._expiry:
            self.lifecycle.clear_ttl(key)
        # ``RamCache.remove`` and ``_note_removed`` in line.
        ram_value = self._ram_items.pop(key, None)
        if ram_value is not None:
            self.ram._used -= len(key) + len(ram_value)
        location = self.index.pop(key, None)
        if location is not None:
            region_id, offset, length = location
            self._journal_seq = seq = self._journal_seq + 1
            copies = self._dead.get(region_id)
            if copies is None:
                self._dead[region_id] = {seq: offset}
            else:
                copies[seq] = offset
            if region_id != self._buffer.region_id:
                self.regions.note_key_removed(region_id, key, "deleted")
            elif self._open_entries.pop(key, None) is not None:
                ledger = self._ledger
                ledger.dead_bytes["deleted"] += length
                ledger.dead_items["deleted"] += 1
        recorder = stats.delete_latency
        recorder._samples.append(clock.now - start_ns)
        recorder._sorted = None
        stats.finished_at_ns = clock.now
        return ram_value is not None or location is not None

    def contains(self, key: bytes) -> bool:
        """Index/DRAM membership probe without touching the device."""
        return key in self.ram or key in self.index

    def flush(self) -> None:
        """Force-seal the open region.  A clean restart is ``flush()``
        followed by :meth:`crash_recover` over the same store."""
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
        anyway).  Bound as ``GcHints.migration_worth`` through the
        store's ``bind_gc_hints`` by the scheme builders when
        ``lifecycle.gc_hints`` is set.
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
        """Backend GC dropped a region (a refusing hint, a dead zone) or
        a read found it unmapped: purge its index entries and account
        each key's bytes by cause (dead generations as "invalidated",
        the rest as "dropped").  The region id stays usable.  Bound as
        ``GcHints.on_drop`` next to :meth:`migration_worth`."""
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
                self._journal_dead(region_id, location.offset)
            if self._versioning and not ns.is_current(key):
                reason = "invalidated"
            else:
                reason = "dropped"
                dead_generation = False
            self.regions.note_key_removed(region_id, key, reason)
        if dead_generation and self._versioning:
            ledger.dead_generation_regions += 1

    # --- crash recovery ---------------------------------------------------------------

    @classmethod
    def crash_recover(
        cls,
        clock: SimClock,
        store: RegionStore,
        config: CacheConfig,
        journal: Iterable[JournalEntry],
        admission: Optional[AdmissionPolicy] = None,
    ) -> "HybridCache":
        """Rebuild a cache over the same store from its seal journal.

        This is the one restart path: after a power cut, and after a
        clean stop (``flush()`` first, so the open buffer is sealed).
        DRAM is gone; only the (tiny, persisted) journal and whatever
        bytes reached the media survive.  Recovery replays the journal's
        last lifecycle event per region, in sequence order:

        * ``quarantine`` — the media was dead before the cut; stays dead.
        * ``invalidate`` — the region was evicted; nothing to recover.
        * ``seal`` / ``flush`` — scan the on-media region payload and
          re-insert every entry that decodes cleanly, except the copies
          the region's ``dead`` records name.  With per-item checksums
          (``config.checksums``) a torn flush recovers its intact prefix
          and drops the torn tail; without them an unsealed flush cannot
          be distinguished from a torn one, so only fully sealed regions
          are replayed.

        Every ``nsbump`` replays.  The invariant tests assert: a
        recovered get is a miss or the key's newest persisted state — a
        delete, an overwrite or an eviction of the newest copy is never
        undone, and no torn entry is served.  The scan is charged to the
        clock and reported as ``stats.recovery_ns``.

        A journal with a record that is not ``(event, int, int, int)``
        over a known event, or that names a region outside
        ``config.num_regions`` (one written under a larger
        configuration), is refused with :class:`CacheConfigError` before
        anything is built or read.
        """
        journal = list(journal)
        for record in journal:
            try:
                event, rid, seq, arg = record
            except (TypeError, ValueError):
                event = None
            if event not in JOURNAL_EVENTS or not all(
                isinstance(field, int) for field in (rid, seq, arg)
            ):
                raise CacheConfigError(f"malformed journal record {record!r}")
            if event != "nsbump" and not 0 <= rid < config.num_regions:
                raise CacheConfigError(
                    f"journaled region {rid} outside [0, "
                    f"{config.num_regions}) of this configuration"
                )
        start_ns = clock.now
        cache = cls(clock, store, config, admission)
        # Journal entries arrive in seq order; the last lifecycle event
        # per region decides its fate.  Dead copies are collected per
        # region (its invalidate retired any from an earlier life).
        # Namespace bumps are not region events: every one replays (the
        # counters only move forward), so no recovered read can serve a
        # pre-bump generation.
        last: Dict[int, JournalEntry] = {}
        dead: Dict[int, Set[int]] = {}
        for record in journal:
            event = record[0]
            if event == "nsbump":
                cache.lifecycle.namespaces.restore(record[1], record[3])
            elif event == "dead":
                dead.setdefault(record[1], set()).add(record[3])
            else:
                last[record[1]] = record
        replayed: List[Tuple[int, int]] = []  # (region_id, salt) sealed again
        # Per replayed region, the offsets of the dead copies it holds:
        # the journaled ones and any a later copy of its key superseded.
        killed: Dict[int, List[int]] = {}
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
            except TranslationError:
                continue  # the backend unmapped it (a GC drop): it holds nothing
            except DeviceError:
                cache.regions.quarantine(rid)
                cache.stats.quarantined_regions += 1
                quarantined.append(rid)
                continue
            entries, torn = EntryCodec.scan_region(
                payload, salt=salt, require_checksum=config.checksums
            )
            if torn:
                cache.stats.torn_items_dropped += 1
            dead_here = dead.get(rid, ())
            killed[rid] = []
            keys: Dict[bytes, int] = {}
            for offset, length, entry in entries:
                if offset in dead_here:
                    killed[rid].append(offset)
                    continue
                previous = cache.index.get(entry.key)
                if previous is not None:
                    # Two live copies: the journal missed a death, and
                    # replay order (seq, then offset) decides.
                    if previous.region_id != rid:
                        cache.regions.note_key_removed(
                            previous.region_id, entry.key, "overwritten"
                        )
                    killed[previous.region_id].append(previous.offset)
                cache.index[entry.key] = EntryLocation(rid, offset, length)
                keys[entry.key] = length
                if entry.expiry_ns:
                    cache.lifecycle.note_ttl(entry.key, entry.expiry_ns)
                cache.stats.recovered_items += 1
            meta = RegionMeta(rid, keys=keys, salt=salt, live_bytes=sum(keys.values()))
            cache.regions.seal(meta)
            replayed.append((rid, salt))
        in_use = {rid for rid, _ in replayed} | set(quarantined)
        cache.regions._free = deque(
            rid for rid in range(config.num_regions) if rid not in in_use
        )
        # Rebuild the journal to describe the recovered layout: each
        # replayed region with the dead copies it still holds, and the
        # namespace generations, so a second crash recovers the same.
        for rid, salt in replayed:
            cache._journal("seal", rid, salt)
            for offset in killed[rid]:
                cache._journal_dead(rid, offset)
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
        clock = self._clock
        opened_at = clock.now
        while True:
            region_id, evicted = self.regions.allocate()
            clock.now += self._region_alloc_ns
            # Invalidation may discover the region's media is dead (e.g.
            # the zone refused its reset) — then take another one.
            if evicted is None or self._evict_keys(region_id, evicted):
                break
        self._generation += 1
        return RegionBuffer(
            region_id,
            self._region_size,
            opened_at,
            checksums=self.config.checksums,
            salt=self._generation,
            recycle=recycle,
        )

    def _seal_and_rotate(self) -> None:
        """Flush the open region, seal it and open the next one: one
        pass, journal records appended in place."""
        if self._expiry:
            self._purge_due()
        buffer = self._buffer
        clock = self._clock
        stats = self.stats
        fill_ns = clock.now - buffer.opened_at_ns
        stats.region_fill_durations_ns.append(fill_ns)
        log = self._log
        salt = buffer.salt
        region_id = buffer.region_id
        self._journal_seq = seq = self._journal_seq + 1
        log.append(("flush", region_id, seq, salt))
        # The flush borrows the buffer's own bytes (read-only view, no
        # copy); the backend has copied them to media by the time it
        # returns, and only then is the storage handed to the successor.
        payload = buffer.finalize()
        try:
            self.store.write_region(region_id, payload)
        except PowerCutError:
            raise
        except (FatalDeviceError, RetryableError) as error:
            region_id = self._retry_flush(region_id, payload, error)
        stats.flushes += 1
        # The open region's key map becomes the sealed region's: hand it
        # over and start a fresh one rather than copying.
        entries = self._open_entries
        self.regions.seal(
            RegionMeta(
                region_id,
                keys=entries,
                fill_duration_ns=fill_ns,
                salt=salt,
                live_bytes=sum(entries.values()),
            )
        )
        self._journal_seq = seq = self._journal_seq + 1
        log.append(("seal", region_id, seq, salt))
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
        due = list(self.lifecycle.due(self._clock.now))
        for key in due:
            self._purge_expired(key)

    def _retry_flush(
        self, region_id: int, payload: memoryview, error: BaseException
    ) -> int:
        """A region write raised ``error``: retry it; returns where the
        flush finally landed.

        Transient errors back off and retry per ``config.retry``.  When
        the target region's media is gone (fatal error, or transient
        errors past the budget) the region is quarantined and the
        in-flight flush re-routes to a freshly allocated region — the
        graceful-degradation path: the cache shrinks, it does not crash.
        After four dead targets the last error propagates.
        """
        policy = self.config.retry
        stats = self.stats
        attempt = 0
        targets = 0
        while True:
            if isinstance(error, FatalDeviceError):
                stats.io_errors += 1
                gone = True
            else:
                attempt += 1
                stats.retries += 1
                gone = attempt >= policy.max_attempts
                if gone:
                    stats.io_errors += 1
                else:
                    self._clock.advance(policy.backoff_for(attempt - 1))
            if gone:
                targets += 1
                region_id = self._reroute_flush(region_id)
                if targets == 4:
                    raise error
                attempt = 0
            try:
                self.store.write_region(region_id, payload)
                return region_id
            except PowerCutError:
                raise
            except (FatalDeviceError, RetryableError) as next_error:
                error = next_error

    def _reroute_flush(self, dead_region_id: int) -> int:
        """Quarantine a dead flush target and point the open keys at a
        fresh region id so the retried flush lands somewhere healthy."""
        # The buffer's dead copies keep their offsets in the new region.
        dead = self._dead.pop(dead_region_id, {})
        self._quarantine_region(dead_region_id)
        while True:
            new_region_id, evicted = self.regions.allocate()
            if evicted is None or self._evict_keys(new_region_id, evicted):
                break
        for offset in dead.values():
            self._journal_dead(new_region_id, offset)
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
        self._dead.pop(region_id, None)
        self.store.tracer.emit_event("engine.fault", "quarantine", offset=region_id)

    def _evict_keys(self, region_id: int, evicted: Dict[bytes, int]) -> bool:
        """Journal a reclaimed region's invalidation and tear down its
        index entries (lock-convoy model); False when invalidating it
        found its media dead (the region is quarantined and must not be
        filled).  A victim with no live key costs nothing and reaches no
        device — the write that refills it supersedes its bytes — but is
        journaled all the same, retiring its dead records."""
        self._journal_seq = seq = self._journal_seq + 1
        self._log.append(("invalidate", region_id, seq, 0))
        self._dead.pop(region_id, None)
        if not evicted:
            return True
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit_event(
                "reclaim.cache", "evict", offset=region_id, length=len(evicted)
            )
        self._clock.now += self.config.cpu.eviction_teardown_ns(len(evicted))
        index = self.index
        if self._versioning:
            ns = self.lifecycle.namespaces
            ledger = self.regions.ledger
            for key in evicted:
                location = index.get(key)
                if location is not None and location.region_id == region_id:
                    del index[key]
                    if not ns.is_current(key):
                        # Dead-generation bytes discovered at eviction: the
                        # bump never scanned, so this is where they are
                        # finally accounted.
                        ledger.note_dead(location.length, "invalidated")
        else:
            for key in evicted:
                location = index.get(key)
                if location is not None and location.region_id == region_id:
                    del index[key]
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
            return False
        return True

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
            try:
                blob = self.store.read(region_id, offset, length)
            except (RetryableError, FatalDeviceError, TranslationError) as error:
                blob = self._read_location(region_id, offset, length, error)
                if blob is None:
                    return None
            meta = self._sealed_meta(region_id)
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
        self, region_id: int, offset: int, length: int, error: BaseException
    ) -> Optional[bytes]:
        """A ranged backend read raised ``error``: retry or degrade;
        returns the bytes, or None for a miss.  (A power cut is not
        caught on the way here: it propagates.)"""
        policy = self.config.retry
        stats = self.stats
        attempt = 0
        while True:
            if isinstance(error, RetryableError):
                attempt += 1
                stats.retries += 1
                if attempt >= policy.max_attempts:
                    # Past the budget: degrade to a miss but keep the
                    # mapping — a transient fault may yet heal.
                    stats.io_errors += 1
                    stats.degraded_misses += 1
                    return None
                self._clock.advance(policy.backoff_for(attempt - 1))
            elif isinstance(error, FatalDeviceError):
                stats.io_errors += 1
                stats.degraded_misses += 1
                self._quarantine_region(region_id)
                return None
            else:
                # The middle layer dropped the region (its zone died
                # under GC): purge the stale mappings, count misses.
                stats.io_errors += 1
                stats.degraded_misses += 1
                self.on_region_dropped(region_id)
                return None
            try:
                return self.store.read(region_id, offset, length)
            except (RetryableError, FatalDeviceError, TranslationError) as next_error:
                error = next_error

    def _journal(self, event: str, region_id: int, salt: int = 0) -> None:
        self._journal_seq = seq = self._journal_seq + 1
        self._log.append((event, region_id, seq, salt))

    def _journal_dead(self, region_id: int, offset: int) -> None:
        """Record that the copy at ``offset`` in ``region_id`` is dead."""
        self._journal_seq = seq = self._journal_seq + 1
        copies = self._dead.get(region_id)
        if copies is None:
            self._dead[region_id] = {seq: offset}
        else:
            copies[seq] = offset

    def _note_removed(self, location: EntryLocation, key: bytes, reason: str) -> None:
        """Shared removal accounting: the copy is journaled dead;
        open-buffer keys leave the open region's key map, sealed keys
        report to the region's liveness ledger."""
        self._journal_dead(location.region_id, location.offset)
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
