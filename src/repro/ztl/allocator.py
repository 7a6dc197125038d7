"""Open-zone pool and per-zone slot accounting for the middle layer.

The paper's middle layer "supports concurrent writing of multiple zones
at the same time" and finishes a zone "when there is no space to write a
new region".  :class:`ZoneBook` tracks every zone's role (empty, open
for host writes, open for GC migration, finished) and hands out region
slots round-robin across the host-open zones.  It keeps no write
cursor: a zone's next slot is its device zone's write pointer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import TranslationFullError
from repro.flash.zone import Zone


class ZoneUse(enum.Enum):
    """Role of a zone from the middle layer's perspective."""

    EMPTY = "empty"
    HOST_OPEN = "host_open"
    GC_OPEN = "gc_open"
    FINISHED = "finished"
    # The device flipped the zone READ_ONLY/OFFLINE: it left every pool
    # permanently and is never allocated or reset again.
    DEAD = "dead"


@dataclass
class ZoneRecord:
    """Middle-layer bookkeeping for one device zone."""

    # The device zone itself: its write pointer is the slot cursor.
    zone: Zone
    slots_per_zone: int
    use: ZoneUse = ZoneUse.EMPTY
    # owners[slot] is the region stored in that slot, or None when the
    # slot is free: the paper's per-zone validity bitmap is the set of
    # owned slots.  ``valid_count`` is how many are owned.
    owners: List[Optional[int]] = field(init=False)
    valid_count: int = field(default=0, init=False)
    zone_index: int = field(init=False)
    # Book tick of the zone's most recent slot write; age = tick - mtime
    # feeds cost-benefit victim selection (repro.reclaim).
    mtime: int = 0
    # Lifetime group the zone was allocated from (0 = hottest stream).
    # Single-group books leave every record at 0.
    group: int = 0

    def __post_init__(self) -> None:
        self.owners = [None] * self.slots_per_zone
        self.zone_index = self.zone.index


class ZoneBook:
    """Tracks zone roles and allocates region slots across the open
    ones of the device's ``zones``."""

    def __init__(
        self,
        zones: Sequence[Zone],
        region_size: int,
        host_open_target: int,
        reserved_for_gc: int = 1,
        num_groups: int = 1,
    ) -> None:
        num_zones = len(zones)
        if num_zones < 2:
            raise ValueError(f"need at least 2 zones, got {num_zones}")
        slots_per_zone = zones[0].size // region_size
        if slots_per_zone < 1:
            raise ValueError(f"no {region_size}B slot fits a {zones[0].size}B zone")
        if host_open_target < 1:
            raise ValueError("host_open_target must be >= 1")
        if not 0 <= reserved_for_gc < num_zones:
            raise ValueError("reserved_for_gc must be in [0, num_zones)")
        if num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        self.slots_per_zone = slots_per_zone
        self.host_open_target = host_open_target
        # Host writes may not drain the empty pool below this: the GC
        # stream always has somewhere to migrate survivors.
        self.reserved_for_gc = reserved_for_gc
        # Lifetime groups: each group keeps its own host-open pool, so
        # regions with different expected lifetimes never share a zone
        # (Z-CacheLib's lifetime-grouped allocation).  Group 0 is the
        # hottest stream; the GC stream writes into the coldest group.
        self.num_groups = num_groups
        self.records: List[ZoneRecord] = [
            ZoneRecord(zone, slots_per_zone) for zone in zones
        ]
        self._empty: List[int] = list(range(num_zones))
        self._host_open: List[List[int]] = [[] for _ in range(num_groups)]
        self._gc_open: Optional[int] = None
        self._finished: List[int] = []
        self._rr_cursor: List[int] = [0] * num_groups
        # Logical write clock: bumped once per slot write, never rewinds.
        self.tick = 0

    # --- pool state ---------------------------------------------------------------

    @property
    def empty_count(self) -> int:
        return len(self._empty)

    @property
    def host_open_zones(self) -> List[int]:
        return [z for pool in self._host_open for z in pool]

    @property
    def finished_zones(self) -> List[int]:
        return list(self._finished)

    @property
    def gc_zone(self) -> Optional[int]:
        return self._gc_open

    @property
    def dead_count(self) -> int:
        return sum(1 for r in self.records if r.use is ZoneUse.DEAD)

    def record(self, zone_index: int) -> ZoneRecord:
        return self.records[zone_index]

    # --- allocation -----------------------------------------------------------------

    def allocate_host_slot(self, group: int = 0) -> ZoneRecord:
        """Zone record to write the next host region into (round-robin
        within ``group``'s open pool).

        Raises :class:`TranslationFullError` when no open zone in the
        group has space and no empty zone can be opened — the caller
        must GC first.
        """
        if not 0 <= group < self.num_groups:
            raise ValueError(f"group {group} outside [0, {self.num_groups})")
        pool = self._host_open[group]
        # A zone leaves its pool the moment it fills (note_slot_written
        # finishes it); refill from the empty zones above the GC reserve.
        empty = self._empty
        while len(pool) < self.host_open_target and len(empty) > self.reserved_for_gc:
            zone_index = empty.pop(0)
            record = self.records[zone_index]
            record.use, record.group = ZoneUse.HOST_OPEN, group
            pool.append(zone_index)
        if not pool:
            raise TranslationFullError("no empty zones left for host writes")
        cursor = self._rr_cursor[group] % len(pool)
        record = self.records[pool[cursor]]
        self._rr_cursor[group] = (cursor + 1) % max(1, len(pool))
        return record

    def allocate_gc_slot(self) -> ZoneRecord:
        """Zone record for a GC migration write (separate stream).

        GC zones carry the coldest group label: their contents are
        migration survivors, which by construction outlived their
        original zone.
        """
        if self._gc_open is None:
            if not self._empty:
                raise TranslationFullError("no empty zone for the GC stream")
            self._gc_open = self._empty.pop(0)
            record = self.records[self._gc_open]
            record.use = ZoneUse.GC_OPEN
            record.group = self.num_groups - 1
        return self.records[self._gc_open]

    def note_slot_written(self, record: ZoneRecord, slot: int) -> None:
        """Stamp the zone a region was placed in; finish it at its last slot."""
        self.tick += 1
        record.mtime = self.tick
        if slot + 1 >= record.slots_per_zone:
            self.mark_finished(record.zone_index)

    # --- transitions -----------------------------------------------------------------

    def mark_finished(self, zone_index: int) -> None:
        record = self.records[zone_index]
        if record.use is ZoneUse.DEAD:
            return
        if record.use == ZoneUse.HOST_OPEN:
            self._drop_host_open(zone_index)
        if record.use == ZoneUse.GC_OPEN and self._gc_open == zone_index:
            self._gc_open = None
        record.use = ZoneUse.FINISHED
        if zone_index not in self._finished:
            self._finished.append(zone_index)

    def retire(self, zone_index: int) -> None:
        """Permanently remove a dead zone from every pool.

        Called when the device reports the zone READ_ONLY/OFFLINE, after
        the layer dropped its regions; the layer keeps running on the
        remaining zones (capacity shrinks).
        """
        record = self.records[zone_index]
        if record.use is ZoneUse.DEAD:
            return
        if zone_index in self._empty:
            self._empty.remove(zone_index)
        self._drop_host_open(zone_index)
        if zone_index in self._finished:
            self._finished.remove(zone_index)
        if self._gc_open == zone_index:
            self._gc_open = None
        record.use = ZoneUse.DEAD

    def mark_empty(self, zone_index: int) -> None:
        """Return a reset zone, every slot already free, to the empty
        pool (after GC)."""
        record = self.records[zone_index]
        if record.use is ZoneUse.DEAD:
            return
        if zone_index in self._finished:
            self._finished.remove(zone_index)
        self._drop_host_open(zone_index)
        if self._gc_open == zone_index:
            self._gc_open = None
        record.use = ZoneUse.EMPTY
        record.group = 0
        self._empty.append(zone_index)

    def _rewind_gc(self, zone_index: int, opened: List[int]) -> None:
        """The GC stream's writes past ``zone_index``'s write pointer did
        not land: reopen that zone, and put the zones opened after it
        (``opened``, in order) back at the front of the empty pool."""
        for zone in opened:
            self.mark_empty(zone)
            self._empty.remove(zone)
        self._empty[:0] = opened
        if zone_index in self._finished:
            self._finished.remove(zone_index)
        self.records[zone_index].use = ZoneUse.GC_OPEN
        self._gc_open = zone_index

    # --- internals ----------------------------------------------------------------------

    def _drop_host_open(self, zone_index: int) -> None:
        for pool in self._host_open:
            if zone_index in pool:
                pool.remove(zone_index)

    def __repr__(self) -> str:
        open_count = sum(len(pool) for pool in self._host_open)
        return (
            f"ZoneBook(empty={len(self._empty)}, open={open_count}, "
            f"finished={len(self._finished)}, gc={self._gc_open})"
        )
