"""Level manifest: which tables live at which level.

L0 tables may overlap (newest first wins); L1+ levels hold sorted,
non-overlapping runs searched by binary search on the smallest keys.

``levels`` and ``fences`` are read freely (``Db.get`` walks them, as do
scans, the manifest and tests) but changed only through the mutators
here: each L1+ level carries a pinned *fence* array of its tables'
smallest keys, rebuilt when that level changes and never per lookup.

``plans`` maps a key to its *read plan*: the ``(table, block,
block_key)`` steps whose key range, fence and bloom filter pass, in the
order ``Db.get`` visits them.  A plan is a pure function of the key and
the levels, so every mutator drops them all; at most ``PLAN_KEYS`` are
kept, the least recently used dropped first.

A deep copy of a ``Version`` shares its tables and its plan caches:
tables never change, and a plan holds only tables, block numbers and
block-cache keys, all valid for every copy whose levels are the same.
A mutator therefore starts a new cache (it rebinds ``plans``, it never
clears the shared one), so a copy that writes leaves the others' plans
as they were.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.lsm.block_cache import BlockKey
from repro.lsm.bloom import bloom_hashes
from repro.lsm.sstable import SSTable

# Keys whose read plan a Version keeps: the Figure 5 readrandom warm-up
# (16,000 reads) touches 3,396 distinct keys, so all of them fit; the
# timed reads (12,850 distinct of 91,000) keep their hot keys.
PLAN_KEYS = 4096

ReadPlan = Tuple[Tuple[SSTable, int, BlockKey], ...]


class Version:
    """Mutable level state (single-writer, as in our single-threaded sim)."""

    def __init__(self, num_levels: int = 4) -> None:
        if num_levels < 2:
            raise ValueError("need at least 2 levels")
        self.levels: List[List[SSTable]] = [[] for _ in range(num_levels)]
        # fences[level][i] is levels[level][i].smallest (L0 stays empty).
        self.fences: List[List[bytes]] = [[] for _ in range(num_levels)]
        self.plans: "OrderedDict[bytes, ReadPlan]" = OrderedDict()
        # The one-step plan of each block a plan visits: most keys live in
        # one table, so most plans are one of these, shared, not a copy.
        self._block_plans: Dict[BlockKey, ReadPlan] = {}

    def __deepcopy__(self, memo: Dict[int, object]) -> "Version":
        """Every attribute as it is, so the plan caches are shared (see
        the module docstring), then new level and fence lists over the
        same tables."""
        copy = memo[id(self)] = Version.__new__(Version)
        copy.__dict__.update(self.__dict__)
        copy.levels = [list(level) for level in self.levels]
        copy.fences = [list(fences) for fences in self.fences]
        return copy

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def read_plan(self, key: bytes) -> ReadPlan:
        """Build and keep ``key``'s read plan (the caller looked in
        ``plans`` first): every L0 table whose range covers it, newest
        first, then the one fenced table of each deeper level, each kept
        if its bloom filter passes, with the block its index points at."""
        hashes = bloom_hashes(key)  # once, for every table probed
        fences, block_plans = self.fences, self._block_plans
        plan: ReadPlan = ()
        for level, tables in enumerate(self.levels):
            if level:
                i = bisect_right(fences[level], key)
                if not i:
                    continue
                tables = tables[i - 1 : i]
            for table in tables:
                if table.smallest <= key <= table.largest and (
                    table.bloom.may_contain(key, hashes)
                ):
                    # index_keys[0] is table.smallest, so block >= 0.
                    block = bisect_right(table.index_keys, key) - 1
                    block_key = (table.table_id, table.index_handles[block].offset)
                    one_step = block_plans.get(block_key)
                    if one_step is None:
                        one_step = ((table, block, block_key),)
                        block_plans[block_key] = one_step
                    plan += one_step  # () + one_step is one_step itself
        plans = self.plans
        if len(plans) >= PLAN_KEYS:
            plans.popitem(last=False)
        plans[key] = plan
        return plan

    def _drop_plans(self) -> None:
        # New caches, not cleared ones: copies may share the old.
        self.plans = OrderedDict()
        self._block_plans = {}

    def add_l0(self, table: SSTable) -> None:
        """Newest L0 table goes to the front (searched first)."""
        self.levels[0].insert(0, table)
        self._drop_plans()

    def clear_l0(self) -> None:
        """Drop every L0 table (they were just merged into L1)."""
        self.levels[0] = []
        self._drop_plans()

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
        self._drop_plans()

    def remove(self, level: int, table: SSTable) -> None:
        """Take one table out of a level (it was merged into the next)."""
        index = self.levels[level].index(table)
        del self.levels[level][index]
        if level:  # L0 overlaps, so it is scanned, not fenced
            del self.fences[level][index]
        self._drop_plans()

    def level_bytes(self, level: int) -> int:
        return sum(t.extent_size for t in self.levels[level])

    def table_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def stats(self) -> Dict[str, int]:
        return {
            f"L{i}_tables": len(level) for i, level in enumerate(self.levels)
        }
