"""Multi-head log allocation over zoned sections.

F2FS appends data through several *log heads* so that blocks with
different lifetimes land in different sections: hot data (fresh user
writes), cold data (blocks relocated by the cleaner), and node/metadata
blocks.  The separation is why the filesystem's WA can stay moderate
(Table 1 shows F2FS slightly *below* the middle layer) — cleaning never
mixes long-lived relocated blocks into short-lived write streams.

Each log head owns one section at a time and hands out block addresses
from that section's zone write pointer on — it keeps no offset of its
own — so every write lands exactly on the write pointer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import NoSpaceError
from repro.f2fs.layout import F2fsLayout
from repro.flash.zone import Zone


class LogStream(enum.Enum):
    """Log heads (a subset of F2FS's six, enough for the cache workload)."""

    HOT_DATA = "hot_data"
    COLD_DATA = "cold_data"
    NODE = "node"

    # Members are singletons, so identity hashing is exact; ``Enum``'s
    # own ``__hash__`` is a Python-level call on every head lookup.
    __hash__ = object.__hash__


@dataclass
class _LogHead:
    stream: LogStream
    section: Optional[int] = None


class LogManager:
    """Allocates main-area blocks for each log head over the data
    device's ``zones``; manages free sections."""

    def __init__(self, layout: F2fsLayout, zones: Sequence[Zone]) -> None:
        self.layout = layout
        self.zones = zones
        self._free: List[int] = list(range(layout.num_sections))
        self._heads: Dict[LogStream, _LogHead] = {
            stream: _LogHead(stream) for stream in LogStream
        }
        # Sections whose zone the device declared dead: out of every pool
        # forever (the filesystem shrinks instead of crashing).
        self._retired: Set[int] = set()
        self.sections_opened = 0

    # --- pool state -----------------------------------------------------------------

    @property
    def free_section_count(self) -> int:
        return len(self._free)

    def open_sections(self) -> List[int]:
        """Sections currently owned by a log head (never GC victims)."""
        return [
            head.section for head in self._heads.values() if head.section is not None
        ]

    def head_of(self, stream: LogStream) -> _LogHead:
        return self._heads[stream]

    def is_free(self, section: int) -> bool:
        return section in self._free

    def is_retired(self, section: int) -> bool:
        return section in self._retired

    def retire_section(self, section: int) -> None:
        """Permanently remove a dead section from circulation.

        Any log head currently parked on it is forced to roll to a fresh
        section at its next allocation.
        """
        self._retired.add(section)
        if section in self._free:
            self._free.remove(section)
        for head in self._heads.values():
            if head.section == section:
                head.section = None

    def release_section(self, section: int) -> None:
        """Return a cleaned section to the free pool."""
        if section in self._retired:
            return  # dead sections never come back
        if section in self._free:
            raise ValueError(f"section {section} is already free")
        self._free.append(section)

    # --- allocation ---------------------------------------------------------------------

    def allocate_blocks(self, stream: LogStream, count: int) -> List[int]:
        """Allocate ``count`` sequential block addresses from a log head,
        from its section's write pointer on: contiguous *runs*, each
        inside one section, spanning sections if the head rolls over.
        Nothing is reserved: write them before the next allocation from
        this head.  Raises :class:`NoSpaceError` when no free section is
        available for a rollover (clean and retry).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        head = self._heads[stream]
        per_section = self.layout.blocks_per_section
        section, offset = head.section, per_section
        if section is not None:
            zone = self.zones[section]
            offset = (zone.write_pointer - zone.start) // self.layout.block_size
        addresses: List[int] = []
        remaining = count
        while remaining > 0:
            if offset >= per_section:
                section = self._roll_head(head)
                offset = 0
            take = min(remaining, per_section - offset)
            # F2fsLayout.block_addr, in line.
            base = section * per_section + offset
            addresses.extend(range(base, base + take))
            offset += take
            remaining -= take
        return addresses

    def _roll_head(self, head: _LogHead) -> int:
        if not self._free:
            raise NoSpaceError(
                f"no free section for log head {head.stream.value}; cleaning needed"
            )
        head.section = section = self._free.pop(0)
        self.sections_opened += 1
        return section

    # --- persistence ----------------------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "free": list(self._free),
            "retired": sorted(self._retired),
            "heads": {
                stream.value: head.section for stream, head in self._heads.items()
            },
        }

    @classmethod
    def from_state(
        cls, state: dict, layout: F2fsLayout, zones: Sequence[Zone]
    ) -> "LogManager":
        manager = cls(layout, zones)
        manager._free = list(state["free"])
        manager._retired = set(state.get("retired", []))
        for stream_value, section in state["heads"].items():
            manager._heads[LogStream(stream_value)].section = section
        return manager
