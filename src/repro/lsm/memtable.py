"""Memtable: the in-memory sorted write buffer."""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple


class Memtable:
    """Hash-backed write buffer, sorted lazily at flush time.

    Point lookups are O(1); iteration (flush) sorts once.  Tombstones are
    stored like values, the flush keeps them so deletes shadow older
    levels.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1024:
            raise ValueError("capacity_bytes must be >= 1024")
        self.capacity_bytes = capacity_bytes
        self._items: Dict[bytes, bytes] = {}
        self._size = 0

    @property
    def size_bytes(self) -> int:
        return self._size

    def __len__(self) -> int:
        return len(self._items)

    def put(self, key: bytes, value: bytes) -> bool:
        """Store ``value`` under ``key``; True if the memtable is now full."""
        items = self._items
        old = items.get(key)
        size = self._size + len(key) + len(value)
        if old is not None:
            size -= len(key) + len(old)
        items[key] = value
        self._size = size
        return size >= self.capacity_bytes

    def get(self, key: bytes) -> Optional[bytes]:
        return self._items.get(key)

    def sorted_entries(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every ``(key, value)`` in key order (no Python frame per entry)."""
        keys = sorted(self._items)
        return zip(keys, map(self._items.__getitem__, keys))

    def clear(self) -> None:
        self._items.clear()
        self._size = 0
