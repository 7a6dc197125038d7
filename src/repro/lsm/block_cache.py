"""DRAM block cache with a secondary-cache spill/fill path.

This is the integration point the paper builds (§4.2): RocksDB's block
cache backed by CacheLib as a *secondary cache* [8, 10].  Blocks evicted
from DRAM are inserted into the secondary cache; DRAM misses consult the
secondary cache before paying for an HDD read.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Optional, Tuple

from repro.sim.stats import RatioStat

BlockKey = Tuple[int, int]  # (table_id, block offset within table)


class SecondaryCache(abc.ABC):
    """What the block cache needs from a secondary tier."""

    @abc.abstractmethod
    def lookup(self, key: BlockKey) -> Optional[bytes]: ...

    @abc.abstractmethod
    def insert(self, key: BlockKey, block: bytes) -> None: ...


class BlockCache:
    """Byte-budgeted LRU of decoded-block bytes with secondary spill."""

    def __init__(
        self,
        capacity_bytes: int,
        secondary: Optional[SecondaryCache] = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.secondary = secondary
        self._items: "OrderedDict[BlockKey, bytes]" = OrderedDict()
        self._used = 0
        self.dram_lookups = RatioStat("blockcache.dram")
        self.secondary_lookups = RatioStat("blockcache.secondary")

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: BlockKey) -> Optional[bytes]:
        """DRAM first, then the secondary cache (with DRAM re-population)."""
        block = self._items.get(key)
        dram_lookups = self.dram_lookups
        dram_lookups.total += 1
        if block is not None:
            dram_lookups.hits += 1
            self._items.move_to_end(key)
            return block
        if self.secondary is None:
            return None
        block = self.secondary.lookup(key)
        self.secondary_lookups.record(block is not None)
        if block is not None:
            self._insert_dram(key, block)
        return block

    def put(self, key: BlockKey, block: bytes) -> None:
        """Insert a block read from storage."""
        self._insert_dram(key, block)

    def _insert_dram(self, key: BlockKey, block: bytes) -> None:
        if len(block) > self.capacity_bytes:
            # Too big for DRAM entirely: spill straight to the secondary.
            if self.secondary is not None:
                self.secondary.insert(key, block)
            return
        old = self._items.pop(key, None)
        if old is not None:
            self._used -= len(old)
        self._items[key] = block
        self._used += len(block)
        while self._used > self.capacity_bytes:
            evicted_key, evicted_block = self._items.popitem(last=False)
            self._used -= len(evicted_block)
            # Spill on eviction — the CacheLib secondary-cache contract.
            if self.secondary is not None:
                self.secondary.insert(evicted_key, evicted_block)
