"""DRAM item cache (CacheLib's LRU memory tier).

A byte-budgeted LRU over whole key/value items.  The paper sets it small
on purpose ("the DRAM size is set to 32 MiB, the minimal DRAM size which
allows the cache to work well", §4.2) so the flash tier dominates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class RamCache:
    """Byte-budgeted LRU of key → value."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._items: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._used = 0
        self.evictions = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: bytes) -> bool:
        return key in self._items

    def get(self, key: bytes) -> Optional[bytes]:
        """LRU-promoting lookup."""
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        """Insert/replace.  An item larger than the whole tier is not
        kept, and neither is the key's previous value: the tier never
        answers with bytes an overwrite has superseded."""
        items = self._items
        capacity = self.capacity_bytes
        key_size = len(key)
        size = key_size + len(value)
        used = self._used
        old = items.pop(key, None)
        if old is not None:
            used -= key_size + len(old)
        if size <= capacity:
            items[key] = value
            used += size
            while used > capacity:
                evicted_key, evicted_value = items.popitem(last=False)
                used -= len(evicted_key) + len(evicted_value)
                self.evictions += 1
        self._used = used

    def remove(self, key: bytes) -> bool:
        value = self._items.pop(key, None)
        if value is None:
            return False
        self._used -= len(key) + len(value)
        return True

    def clear(self) -> None:
        self._items.clear()
        self._used = 0
