"""The region translation layer facade (Figure 1c).

``RegionTranslationLayer`` gives the cache a simple contract:

* ``write_region(region_id, data)`` — (re)write a fixed-size region;
  any previous copy of the same id becomes invalid.
* ``read_region(region_id, offset, length)`` — random read within a
  region ("compute the real physical address using the in-region offset
  and in-zone address").
* ``invalidate_region(region_id)`` — delete the mapping and free the
  zone slot, as happens "if CacheLib rewrites a region".

Internally it drives the ZNS device, keeps the region map and the
zones' slot owners (``ZoneRecord.owners``) exact inverses, and runs a
paced step of its reclaim engine (``reclaim``, a
:class:`~repro.reclaim.ReclaimEngine` over the zone source of
:mod:`repro.ztl.gc`) after each write.
Application-level write amplification — the metric of Table 1 — is
``(host + migrated region writes) / host region writes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import (
    ConfigError,
    DeviceError,
    OutOfRangeError,
    PowerCutError,
    RegionNotMappedError,
    RegionSizeError,
    RetryableError,
    TranslationFullError,
    ZoneDeadError,
)
from repro.flash.znsssd import ZnsSsd
from repro.reclaim import ReclaimEngine, ReclaimPacer, make_victim_policy
from repro.sim.io import IoCompletion
from repro.ztl.allocator import ZoneBook, ZoneRecord
from repro.ztl.gc import GcConfig, _ZoneReclaimSource


class RegionLocation(NamedTuple):
    """Physical placement of a region: which zone, which slot within it."""

    zone_index: int
    slot: int

# ``_location((zone, slot))`` builds a RegionLocation in C, without the
# Python-level ``__new__`` a NamedTuple class has.
_location = partial(tuple.__new__, RegionLocation)


@dataclass(frozen=True)
class ZtlConfig:
    """Middle-layer configuration.

    ``region_size`` must divide the device zone size; the layer manages
    every zone of the device it is given.
    """

    region_size: int
    host_open_zones: int = 2
    # Lifetime groups for host writes: each group gets its own pool of
    # ``host_open_zones`` open zones, so regions with different expected
    # lifetimes never share a zone (Z-Cache's hot/cold separation).
    # 1 = the historical single-stream layout.
    host_groups: int = 1
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

    def __init__(self, device: ZnsSsd, config: ZtlConfig) -> None:
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
        num_zones = device.num_zones
        if num_zones < 2:
            raise ConfigError(f"the layer needs at least 2 zones, got {num_zones}")
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
        self.region_size = config.region_size
        self.zone_size = device.zone_size
        self.slots_per_zone = device.zone_size // config.region_size
        self.num_zones = num_zones
        self.book = ZoneBook(
            device.report_zones(),
            config.region_size,
            config.host_open_zones,
            num_groups=config.host_groups,
        )
        # The paper's "mapping between the region ID and the in-zone
        # address", one entry per live region.  Its inverse is the zones'
        # slot owners (``ZoneRecord.owners``); every move updates both.
        self.map: Dict[int, RegionLocation] = {}
        self.stats = ZtlStats()
        # §3.3 middle-layer GC; a store binds the cache's §3.4 hints on
        # its source (``ZtlRegionStore.bind_gc_hints``).
        gc = config.gc
        self.reclaim = ReclaimEngine(
            _ZoneReclaimSource(self),
            make_victim_policy(gc.policy),
            ReclaimPacer(gc.pacer_config()),
            tracer=device.tracer,
            clock=device.pipeline.clock,
            dead_first=gc.dead_first,
        )

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
        span = (
            tracer.span("ztl", "write_region", length=len(data))
            if tracer.enabled
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            self.invalidate_region(region_id)
            book = self.book
            dead = 0
            while True:
                try:
                    record = book.allocate_host_slot(group)
                except TranslationFullError as error:
                    record = self._collect_for_host_slot(group, error)
                zone = record.zone
                offset = zone.write_pointer
                slot, torn = divmod(offset - zone.start, self.region_size)
                if torn:
                    self._finish_torn(record)
                    continue
                try:
                    result = self.device.write(offset, data)
                except ZoneDeadError:
                    # The open zone died under us: retire it and land the
                    # region in another open zone (four tries).
                    self._retire_zone(zone.index)
                    dead += 1
                    if dead == 4:
                        raise
                    continue
                record.owners[slot] = region_id
                record.valid_count += 1
                self.map[region_id] = _location((zone.index, slot))
                book.note_slot_written(record, slot)
                break
            self.stats.host_region_writes += 1
            # Background thread check (paper: runs continuously; we piggyback).
            try:
                self.reclaim.background_step()
            except PowerCutError:
                raise
            except RetryableError:
                # Transient device error on the GC stream: give up this
                # pace step, the next check resumes where it stopped.
                self.stats.gc_retries += 1
            return result
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def read_region(
        self, region_id: int, offset: int = 0, length: Optional[int] = None
    ) -> IoCompletion:
        """Read ``length`` bytes at ``offset`` within a live region."""
        try:
            zone_index, slot = self.map[region_id]
        except KeyError:
            raise RegionNotMappedError(f"region {region_id} has no mapping") from None
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
        """Drop the mapping and free its slot; True if it existed."""
        location = self.map.pop(region_id, None)
        if location is None:
            return False
        record = self.book.records[location.zone_index]
        record.owners[location.slot] = None
        record.valid_count -= 1
        return True

    # --- internals ----------------------------------------------------------------------

    def _collect_for_host_slot(
        self, group: int, error: TranslationFullError
    ) -> ZoneRecord:
        """No open zone could take a host region (``error``): emergency
        foreground GC, the background thread fell behind.  Bounded: if
        repeated collections reclaim zones but the pool never rises
        above the GC reserve, the layer is over-committed (not enough OP
        for zone-granular garbage to concentrate) and we fail loudly
        rather than livelock."""
        for attempt in range(4):
            if self.reclaim.collect(max_victims=1) == 0:
                raise error
            if attempt == 3:
                break
            try:
                return self.book.allocate_host_slot(group)
            except TranslationFullError as again:
                error = again
        raise TranslationFullError(
            "GC cannot free zones faster than the host consumes them; "
            "the layer needs more over-provisioning (see DESIGN.md)"
        )

    def _migrate_regions(self, region_ids: List[int]) -> None:
        """GC relocation on the background thread (§3.3), one device copy
        batch per pace step: the device is kept busy — foreground I/O
        queues behind the migration — but the cache itself is not blocked.

        The copy loop is the GC hot path, so the reads for every
        surviving region in a pace step are charged together (and
        likewise the rewrites), back to back on the device's timeline,
        and the bytes move
        inside the device (:meth:`ZnsSsd.copy_many`); a survivor never
        comes up the stack.  Mapping and slot bookkeeping stay strictly
        sequential, one survivor after another, so allocation order (and
        therefore on-media layout) is that of a per-region loop.

        The batch is atomic per survivor: a target slot is allocated
        before anything is changed for that survivor, and when the GC
        stream runs out of zones mid-batch the survivors already rebound
        still land before the error propagates — book, map, slot owners,
        write pointers and media agree, and nothing is charged for a
        survivor that did not move.  A faulted batch keeps what it
        landed (:meth:`_settle_faulted_copy`); the survivors that did
        not move go round again as another batch — the victim is reset
        only after the step, so their bytes are still there — for at
        most four batches, after which any left are dropped rather than
        stall GC.
        """
        region_size, zone_size = self.region_size, self.zone_size
        book, mapping = self.book, self.map
        records = book.records
        with self.tracer.span(
            "ztl.gc", "migrate", length=len(region_ids) * region_size
        ):
            for _ in range(4):
                pairs: List[Tuple[int, int]] = []
                # Nothing lands before ``copy_many``: the batch counts the
                # slots it places past the GC zone's write pointer itself.
                target = None
                try:
                    for region_id in region_ids:
                        old = mapping[region_id]
                        record = book.allocate_gc_slot()
                        if record is not target:
                            target, zone = record, record.zone
                            slot, torn = divmod(
                                zone.write_pointer - zone.start, region_size
                            )
                            if torn:  # an empty zone takes over
                                self._finish_torn(record)
                                target = record = book.allocate_gc_slot()
                                zone, slot = record.zone, 0
                        pairs.append(
                            (
                                old.zone_index * zone_size + old.slot * region_size,
                                zone.start + slot * region_size,
                            )
                        )
                        source = records[old.zone_index]
                        source.owners[old.slot] = None
                        source.valid_count -= 1
                        record.owners[slot] = region_id
                        record.valid_count += 1
                        mapping[region_id] = _location((record.zone_index, slot))
                        book.note_slot_written(record, slot)
                        slot += 1
                finally:
                    region_ids = []
                    if pairs:
                        try:
                            self.device.copy_many(pairs, region_size)
                            self.stats.migrated_region_writes += len(pairs)
                        except DeviceError as error:
                            region_ids = self._settle_faulted_copy(pairs, error)
                if not region_ids:
                    return
            for region_id in region_ids:
                self._drop_region(region_id)

    def _settle_faulted_copy(
        self, pairs: List[Tuple[int, int]], error: DeviceError
    ) -> List[int]:
        """``copy_many(pairs)`` landed ``error.landed`` copies, then
        raised: those survivors keep their new slots, the rest get their
        old ones back and the GC stream reopens the first one's zone.
        Then a dead target is retired, a dead source drops its
        survivors, and anything but a transient error propagates.
        Returns the survivors to copy again."""
        book, mapping = self.book, self.map
        records = book.records
        region_size, per_zone = self.region_size, self.slots_per_zone
        landed = error.landed
        self.stats.migrated_region_writes += landed
        unmoved: List[int] = []
        opened: List[int] = []
        for src, dst in pairs[landed:]:
            zone_index, slot = divmod(dst // region_size, per_zone)
            record = records[zone_index]
            region_id = record.owners[slot]
            record.owners[slot] = None
            record.valid_count -= 1
            if slot == 0 and unmoved:
                opened.append(zone_index)
            old = _location(divmod(src // region_size, per_zone))
            record = records[old.zone_index]
            record.owners[old.slot] = region_id
            record.valid_count += 1
            mapping[region_id] = old
            unmoved.append(region_id)
        target = pairs[landed][1] // region_size // per_zone
        book._rewind_gc(target, opened)
        if not isinstance(error, (ZoneDeadError, RetryableError)):
            raise error
        if not isinstance(error, ZoneDeadError):
            self.stats.gc_retries += 1
            return unmoved
        if error.zone_index == target:
            self._retire_zone(target)
            return unmoved
        for region_id in unmoved:
            if mapping[region_id].zone_index == error.zone_index:
                self._drop_region(region_id)  # its bytes are gone
        return [region_id for region_id in unmoved if region_id in mapping]

    def _finish_torn(self, record: ZoneRecord) -> None:
        """A write cut inside a slot ends the zone: finish it (its torn
        slot and tail stay unowned), or retire it if dead."""
        try:
            self.device.finish_zone(record.zone_index)
        except ZoneDeadError:
            self._retire_zone(record.zone_index)
            return
        self.book.mark_finished(record.zone_index)

    def _retire_zone(self, zone_index: int) -> None:
        """Take a dead zone out of service: drop its regions, tell the
        allocator, and abandon any in-progress GC on it."""
        for region_id in self.book.records[zone_index].owners:
            if region_id is not None:
                self._drop_region(region_id)
        self.book.retire(zone_index)
        self.reclaim.abandon_victim(zone_index)
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

    def _drop_region(self, region_id: int) -> None:
        """The one drop routine — a §3.4 hint, a dead zone or a survivor
        with nowhere to land: unmap the region, free its slot and tell
        the cache (its bound ``hints.on_drop``) so the index purges what
        it lost."""
        self.invalidate_region(region_id)
        self.stats.dropped_regions += 1
        hints = self.reclaim.source.hints
        if hints is not None:
            hints.on_drop(region_id)

    def __repr__(self) -> str:
        return (
            f"RegionTranslationLayer(zones={self.num_zones}, "
            f"slots/zone={self.slots_per_zone}, live={self.live_regions}, "
            f"waf={self.stats.app_write_amplification:.2f})"
        )
