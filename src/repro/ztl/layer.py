"""The region translation layer facade (Figure 1c).

``RegionTranslationLayer`` gives the cache a simple contract:

* ``write_region(region_id, data)`` — (re)write a fixed-size region;
  any previous copy of the same id becomes invalid.
* ``read_region(region_id, offset, length)`` — random read within a
  region ("compute the real physical address using the in-region offset
  and in-zone address").
* ``invalidate_region(region_id)`` — delete the mapping and clear the
  zone's bitmap bit, as happens "if CacheLib rewrites a region".

Internally it drives the ZNS device, keeps the region map and zone
bitmaps coherent, and runs the background GC check after each write.
Application-level write amplification — the metric of Table 1 — is
``(host + migrated region writes) / host region writes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import (
    ConfigError,
    OutOfRangeError,
    PowerCutError,
    RegionSizeError,
    ReproError,
    RetryableError,
    TranslationFullError,
    ZoneDeadError,
)
from repro.flash.znsssd import ZnsSsd
from repro.sim.io import IoCompletion
from repro.ztl.allocator import ZoneBook, ZoneRecord
from repro.ztl.gc import GcConfig, MigrationHint, ZoneGarbageCollector
from repro.ztl.mapping import RegionLocation, RegionMap


@dataclass(frozen=True)
class ZtlConfig:
    """Middle-layer configuration.

    ``region_size`` must divide the device zone size; ``usable_zones``
    optionally restricts the layer to the first N zones (the paper's
    experiments carve 25 or 220 zones out of the device).
    """

    region_size: int
    host_open_zones: int = 2
    # Lifetime groups for host writes: each group gets its own pool of
    # ``host_open_zones`` open zones, so regions with different expected
    # lifetimes never share a zone (Z-Cache's hot/cold separation).
    # 1 = the historical single-stream layout.
    host_groups: int = 1
    usable_zones: int = 0  # 0 → all zones
    # Use the ZNS Zone Append command instead of positioned writes: the
    # device picks the in-zone offset, so the host never races the write
    # pointer (the interface advantage §2.2 describes; see also
    # "Zone append: a new way of writing to zoned storage" [3]).
    use_zone_append: bool = False
    gc: GcConfig = GcConfig()


@dataclass
class ZtlStats:
    """Middle-layer counters; ``app_write_amplification`` is Table 1's WAF."""

    host_region_writes: int = 0
    migrated_region_writes: int = 0
    dropped_regions: int = 0
    gc_zone_resets: int = 0
    host_reads: int = 0
    # Fault handling: zones the device declared dead, and GC I/O retries
    # absorbed by the layer (transient device errors during migration).
    dead_zones: int = 0
    gc_retries: int = 0

    @property
    def app_write_amplification(self) -> float:
        if self.host_region_writes == 0:
            return 1.0
        return (
            self.host_region_writes + self.migrated_region_writes
        ) / self.host_region_writes


class RegionTranslationLayer:
    """Region interface over a :class:`~repro.flash.ZnsSsd`."""

    def __init__(
        self,
        device: ZnsSsd,
        config: ZtlConfig,
        migration_hint: Optional[MigrationHint] = None,
        on_drop: Optional[Callable[[int], None]] = None,
    ) -> None:
        if config.region_size <= 0 or device.zone_size % config.region_size != 0:
            raise ConfigError(
                f"region_size {config.region_size} must divide zone size "
                f"{device.zone_size}"
            )
        if config.region_size % device.block_size != 0:
            raise ConfigError(
                f"region_size {config.region_size} must be a multiple of the "
                f"device page size {device.block_size}"
            )
        num_zones = config.usable_zones or device.num_zones
        if not 2 <= num_zones <= device.num_zones:
            raise ConfigError(
                f"usable_zones {num_zones} must be in [2, {device.num_zones}]"
            )
        if config.host_groups < 1:
            raise ConfigError(f"host_groups must be >= 1, got {config.host_groups}")
        # Host streams + the GC stream must fit in the device's open budget.
        if config.host_open_zones * config.host_groups + 1 > device.config.max_open_zones:
            raise ConfigError(
                f"host_open_zones {config.host_open_zones} x host_groups "
                f"{config.host_groups} + 1 GC stream exceeds device "
                f"max_open_zones {device.config.max_open_zones}"
            )
        self.device = device
        # Plain attribute: shared with the underlying device, read per
        # operation by the backend above and by GC below.
        self.tracer = device.tracer
        self.config = config
        self._on_drop = on_drop
        self.region_size = config.region_size
        self.zone_size = device.zone_size
        self.slots_per_zone = device.zone_size // config.region_size
        self.num_zones = num_zones
        self.book = ZoneBook(
            num_zones,
            self.slots_per_zone,
            config.host_open_zones,
            num_groups=config.host_groups,
        )
        self.map = RegionMap()
        self.stats = ZtlStats()
        self.gc = ZoneGarbageCollector(
            self.book,
            config.gc,
            migrate=self._migrate_region,
            reset=self._reset_zone,
            migration_hint=migration_hint,
            on_drop=on_drop,
            migrate_many=self._migrate_regions,
            tracer=device.tracer,
            clock=device.pipeline.clock,
            unit_bytes=config.region_size,
        )
        self.gc.bind_lookup(self._region_at, self._drop_region)

    # --- capacity ------------------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self.num_zones * self.slots_per_zone

    @property
    def live_regions(self) -> int:
        return len(self.map)

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity managed by the layer (cache size + OP headroom)."""
        return self.total_slots * self.region_size

    # --- region interface ------------------------------------------------------------

    def write_region(
        self, region_id: int, data: bytes, group: int = 0
    ) -> IoCompletion:
        """(Re)write one region; returns the device write completion.

        ``group`` selects the lifetime group whose open-zone pool the
        region lands in (only meaningful with ``host_groups > 1``).
        """
        if len(data) != self.region_size:
            raise RegionSizeError(
                f"region write must be exactly {self.region_size}B, got {len(data)}"
            )
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("ztl", "write_region", length=len(data)):
                return self._write_region_impl(region_id, data, group)
        return self._write_region_impl(region_id, data, group)

    def _write_region_impl(
        self, region_id: int, data: bytes, group: int = 0
    ) -> IoCompletion:
        self.invalidate_region(region_id)
        last_error: Optional[ReproError] = None
        for _ in range(4):
            record = self._allocate_host_record(group)
            try:
                result = self._write_to_record(region_id, record, data)
                break
            except ZoneDeadError as error:
                # The open zone died under us: retire it and land the
                # region in another open zone.
                last_error = error
                zone = error.zone_index
                self._retire_zone(
                    zone if zone is not None else record.zone_index
                )
        else:
            assert last_error is not None
            raise last_error
        self.stats.host_region_writes += 1
        # Background thread check (paper: runs continuously; we piggyback).
        try:
            self.gc.maybe_collect()
        except PowerCutError:
            raise
        except RetryableError:
            # Transient device error on the GC stream: give up this
            # pace step, the next check resumes where it stopped.
            self.stats.gc_retries += 1
        return result

    def read_region(
        self, region_id: int, offset: int = 0, length: Optional[int] = None
    ) -> IoCompletion:
        """Read ``length`` bytes at ``offset`` within a live region."""
        zone_index, slot = self.map.lookup(region_id)
        region_size = self.region_size
        if length is None:
            length = region_size - offset
        if offset < 0 or offset + length > region_size:
            raise OutOfRangeError(
                f"read (offset={offset}, length={length}) exceeds region size "
                f"{region_size}"
            )
        device_offset = zone_index * self.zone_size + slot * region_size + offset
        self.stats.host_reads += 1
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("ztl", "read_region", offset=offset, length=length):
                return self.device.read(device_offset, length)
        return self.device.read(device_offset, length)

    def has_region(self, region_id: int) -> bool:
        return region_id in self.map

    def invalidate_region(self, region_id: int) -> bool:
        """Drop the mapping and clear the validity bit; True if it existed."""
        location = self.map.unbind(region_id)
        if location is None:
            return False
        self.book.record(location.zone_index).bitmap.clear(location.slot)
        return True

    # --- internals ----------------------------------------------------------------------

    def _allocate_host_record(self, group: int = 0) -> ZoneRecord:
        # Emergency foreground GC: the background thread fell behind.
        # Bounded retries: if repeated collections reclaim zones but the
        # pool never rises above the GC reserve, the layer is over-
        # committed (not enough OP for zone-granular garbage to
        # concentrate) and we fail loudly rather than livelock.
        for _ in range(4):
            try:
                return self.book.allocate_host_slot(group)
            except TranslationFullError:
                if self.gc.collect(max_zones=1) == 0:
                    raise
        raise TranslationFullError(
            "GC cannot free zones faster than the host consumes them; "
            "the layer needs more over-provisioning (see DESIGN.md)"
        )

    def _write_to_record(
        self, region_id: int, record: ZoneRecord, data: bytes, background: bool = False
    ) -> IoCompletion:
        if self.config.use_zone_append and not background:
            result = self.device.append(record.zone_index, data)
            slot = (result.offset % self.zone_size) // self.region_size
            location = RegionLocation(record.zone_index, slot)
        else:
            slot = record.next_slot
            location = RegionLocation(record.zone_index, slot)
            offset = location.byte_offset(self.zone_size, self.region_size)
            result = self.device.write(offset, data, background=background)
        record.bitmap.set(slot)
        self.map.bind(region_id, location)
        self.book.note_slot_written(record)
        return result

    def _migrate_region(self, region_id: int, target: ZoneRecord) -> None:
        """GC relocation on the background thread (§3.3): the device is
        kept busy — foreground I/O queues behind the migration — but the
        cache itself is not blocked."""
        old = self.map.lookup(region_id)
        offset = old.byte_offset(self.zone_size, self.region_size)
        data = self.device.read(offset, self.region_size, background=True).data
        assert data is not None
        self.book.record(old.zone_index).bitmap.clear(old.slot)
        self._write_to_record(region_id, target, data, background=True)
        self.stats.migrated_region_writes += 1

    def _migrate_regions(self, region_ids: List[int]) -> None:
        """Batched GC relocation: one device copy batch per pace step.

        The copy loop is the GC hot path, so the reads for every
        surviving region in a pace step are charged together (and
        likewise the rewrites) — with a multi-channel device pool the
        whole burst overlaps instead of serializing — and the bytes move
        inside the device (:meth:`ZnsSsd.copy_many`); a survivor never
        comes up the stack.  Mapping and slot bookkeeping stay strictly
        sequential, exactly as the one-region path, so allocation order
        (and therefore on-media layout) is unchanged.

        The batch is atomic per survivor: a target slot is allocated
        before anything is changed for that survivor, and when the GC
        stream runs out of zones mid-batch the survivors already rebound
        still land before the error propagates — book, map, bitmaps,
        write pointers and media agree, and nothing is charged for a
        survivor that did not move.

        With fault injection armed the batched path is unsafe (a fault
        mid-batch would leave mappings bound to slots whose data never
        landed), so migration falls back to a per-region loop that only
        rebinds a mapping after its write succeeded.
        """
        if self.device.pipeline.faults is not None:
            self._migrate_regions_resilient(region_ids)
            return
        region_size, zone_size = self.region_size, self.zone_size
        book, mapping = self.book, self.map
        records = book.records
        with self.tracer.span(
            "ztl.gc", "migrate", length=len(region_ids) * region_size
        ):
            pairs: List[Tuple[int, int]] = []
            try:
                for region_id in region_ids:
                    old = mapping.lookup(region_id)
                    target = book.allocate_gc_slot()
                    slot = target.next_slot
                    pairs.append(
                        (
                            old.zone_index * zone_size + old.slot * region_size,
                            target.zone_index * zone_size + slot * region_size,
                        )
                    )
                    records[old.zone_index].bitmap.clear(old.slot)
                    target.bitmap.set(slot)
                    mapping.bind(region_id, RegionLocation(target.zone_index, slot))
                    book.note_slot_written(target)
            finally:
                if pairs:
                    self.device.copy_many(pairs, region_size)
                    self.stats.migrated_region_writes += len(pairs)

    def _migrate_regions_resilient(self, region_ids: List[int]) -> None:
        with self.tracer.span(
            "ztl.gc", "migrate", length=len(region_ids) * self.region_size
        ):
            for region_id in region_ids:
                self._migrate_one_resilient(region_id)

    def _migrate_one_resilient(self, region_id: int) -> None:
        """Fault-tolerant single-region migration.

        Unreadable sources and unlandable rewrites *drop* the region (a
        cache can always re-fetch; stalling GC cannot be afforded); dead
        target zones are retired and the write retried elsewhere.
        """
        old = self.map.lookup(region_id)
        offset = old.byte_offset(self.zone_size, self.region_size)
        data: Optional[bytes] = None
        for _ in range(3):
            try:
                data = self.device.read(
                    offset, self.region_size, background=True
                ).data
                break
            except PowerCutError:
                raise
            except ZoneDeadError:
                break  # the source zone died: its bytes are gone
            except RetryableError:
                self.stats.gc_retries += 1
        self.book.record(old.zone_index).bitmap.clear(old.slot)
        if data is None:
            self._drop_region(region_id)
            if self._on_drop is not None:
                self._on_drop(region_id)
            return
        for _ in range(4):
            try:
                target = self.book.allocate_gc_slot()
            except TranslationFullError:
                break
            slot = target.next_slot
            location = RegionLocation(target.zone_index, slot)
            try:
                self.device.write(
                    location.byte_offset(self.zone_size, self.region_size),
                    data,
                    background=True,
                )
            except PowerCutError:
                raise
            except ZoneDeadError as error:
                zone = error.zone_index
                self._retire_zone(zone if zone is not None else target.zone_index)
                continue
            except RetryableError:
                self.stats.gc_retries += 1
                continue
            target.bitmap.set(slot)
            self.map.bind(region_id, location)
            self.book.note_slot_written(target)
            self.stats.migrated_region_writes += 1
            return
        # Nowhere to land the survivor: drop it rather than stall GC.
        self._drop_region(region_id)
        if self._on_drop is not None:
            self._on_drop(region_id)

    def _retire_zone(self, zone_index: int) -> None:
        """Take a dead zone out of service: drop its regions, tell the
        allocator, and abandon any in-progress GC on it."""
        record = self.book.record(zone_index)
        for slot in list(record.bitmap.valid_slots()):
            region_id = self._region_at(zone_index, slot)
            if region_id is not None:
                self._drop_region(region_id)
                if self._on_drop is not None:
                    self._on_drop(region_id)
        self.book.retire(zone_index)
        if self.gc._victim == zone_index:
            self.gc._victim = None
            self.gc._pending = []
        self.stats.dead_zones += 1
        self.tracer.emit_event("ztl.fault", "retire_zone", zone=zone_index)

    def _reset_zone(self, zone_index: int) -> None:
        try:
            self.device.reset_zone(zone_index)
        except ZoneDeadError:
            # The victim died before its reset: retire it instead of
            # returning it to the empty pool.
            self._retire_zone(zone_index)
            return
        self.stats.gc_zone_resets += 1

    def _region_at(self, zone_index: int, slot: int) -> Optional[int]:
        return self.map.region_at(RegionLocation(zone_index, slot))

    def _drop_region(self, region_id: int) -> None:
        self.map.unbind(region_id)
        self.stats.dropped_regions += 1

    # --- persistence (warm restart) -----------------------------------------------

    def to_state(self) -> dict:
        """Serializable snapshot of the mapping and zone bookkeeping.

        The data itself lives on the (persistent) ZNS device; this state
        is what a real middle layer would keep in a superblock so the
        region map survives restarts.
        """
        records = []
        for record in self.book.records:
            records.append(
                {
                    "zone": record.zone_index,
                    "use": record.use.value,
                    "next_slot": record.next_slot,
                    "valid_slots": list(record.bitmap.valid_slots()),
                    "group": record.group,
                }
            )
        mapping = {}
        for record in self.book.records:
            for slot in record.bitmap.valid_slots():
                region_id = self._region_at(record.zone_index, slot)
                if region_id is not None:
                    mapping[str(region_id)] = [record.zone_index, slot]
        return {
            "region_size": self.region_size,
            "num_zones": self.num_zones,
            "records": records,
            "mapping": mapping,
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild mapping/bookkeeping from :meth:`to_state` output.

        The device must be the same one (or hold identical contents).
        """
        from repro.ztl.allocator import ZoneUse

        if state["region_size"] != self.region_size or state["num_zones"] != self.num_zones:
            raise ValueError("state does not match this layer's geometry")
        self.book = ZoneBook(
            self.num_zones,
            self.slots_per_zone,
            self.config.host_open_zones,
            num_groups=self.config.host_groups,
        )
        self.map = RegionMap()
        # Rebuild per-zone records and pool membership.
        self.book._empty = []
        self.book._host_open = [[] for _ in range(self.book.num_groups)]
        self.book._finished = []
        self.book._gc_open = None
        for entry in state["records"]:
            record = self.book.records[entry["zone"]]
            record.next_slot = entry["next_slot"]
            record.use = ZoneUse(entry["use"])
            # Pre-group snapshots restore into group 0 (the only pool).
            record.group = min(
                entry.get("group", 0), self.book.num_groups - 1
            )
            record.bitmap.clear_all()
            for slot in entry["valid_slots"]:
                record.bitmap.set(slot)
            if record.use is ZoneUse.EMPTY:
                self.book._empty.append(record.zone_index)
            elif record.use is ZoneUse.HOST_OPEN:
                self.book._host_open[record.group].append(record.zone_index)
            elif record.use is ZoneUse.GC_OPEN:
                self.book._gc_open = record.zone_index
            elif record.use is ZoneUse.DEAD:
                pass  # dead zones belong to no pool
            else:
                self.book._finished.append(record.zone_index)
        for region_id_str, (zone_index, slot) in state["mapping"].items():
            self.map.bind(int(region_id_str), RegionLocation(zone_index, slot))
        # Re-point the collector at the rebuilt book and clear any
        # in-progress victim from the previous life.
        self.gc._book = self.book
        self.gc._victim = None
        self.gc._pending = []
        self.gc.bind_lookup(self._region_at, self._drop_region)

    def __repr__(self) -> str:
        return (
            f"RegionTranslationLayer(zones={self.num_zones}, "
            f"slots/zone={self.slots_per_zone}, live={self.live_regions}, "
            f"waf={self.stats.app_write_amplification:.2f})"
        )
