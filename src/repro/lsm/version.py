"""Level manifest: which tables live at which level.

L0 tables may overlap (newest first wins); L1+ levels hold sorted,
non-overlapping runs searched by binary search on the smallest keys.

``levels`` and ``fences`` are read freely (``Db.get`` walks them, as do
scans, the manifest and tests) but changed only through the mutators
here: each L1+ level carries a pinned *fence* array of its tables'
smallest keys, rebuilt when that level changes and never per lookup.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lsm.sstable import SSTable


class Version:
    """Mutable level state (single-writer, as in our single-threaded sim)."""

    def __init__(self, num_levels: int = 4) -> None:
        if num_levels < 2:
            raise ValueError("need at least 2 levels")
        self.levels: List[List[SSTable]] = [[] for _ in range(num_levels)]
        # fences[level][i] is levels[level][i].smallest (L0 stays empty).
        self.fences: List[List[bytes]] = [[] for _ in range(num_levels)]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def add_l0(self, table: SSTable) -> None:
        """Newest L0 table goes to the front (searched first)."""
        self.levels[0].insert(0, table)

    def clear_l0(self) -> None:
        """Drop every L0 table (they were just merged into L1)."""
        self.levels[0] = []

    def install_level(self, level: int, tables: List[SSTable]) -> None:
        """Replace an L1+ level with a sorted, non-overlapping run."""
        ordered = sorted(tables, key=lambda t: t.smallest)
        for a, b in zip(ordered, ordered[1:]):
            if b.smallest <= a.largest:
                raise ValueError(
                    f"level {level} tables overlap: {a.table_id} and {b.table_id}"
                )
        self.levels[level] = ordered
        self.fences[level] = [t.smallest for t in ordered]

    def remove(self, level: int, table: SSTable) -> None:
        """Take one table out of a level (it was merged into the next)."""
        index = self.levels[level].index(table)
        del self.levels[level][index]
        if level:  # L0 overlaps, so it is scanned, not fenced
            del self.fences[level][index]

    def level_bytes(self, level: int) -> int:
        return sum(t.extent_size for t in self.levels[level])

    def table_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def stats(self) -> Dict[str, int]:
        return {
            f"L{i}_tables": len(level) for i, level in enumerate(self.levels)
        }
