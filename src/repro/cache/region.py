"""Region state: the in-memory fill buffer and per-region metadata.

A *region* is CacheLib's on-flash management unit.  New entries are
packed into an in-memory :class:`RegionBuffer` ("a larger region size
requires setting up a larger region buffer in memory", §3.2); when the
buffer cannot fit the next entry it is flushed to the backend and
sealed.  :class:`RegionMeta` tracks which keys currently live in a
sealed region so that whole-region eviction can drop exactly those index
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.cache.item import EntryCodec, EntryLocation


class RegionBuffer:
    """Append-only buffer for the region currently being filled.

    ``recycle`` names the flushed buffer whose storage this one takes
    over, so a cache allocates its region-sized ``bytearray`` once.
    """

    def __init__(
        self,
        region_id: int,
        capacity: int,
        opened_at_ns: int,
        checksums: bool = False,
        salt: int = 0,
        recycle: Optional["RegionBuffer"] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.region_id = region_id
        self.capacity = capacity
        self.opened_at_ns = opened_at_ns
        # Per-item CRC protection; ``salt`` is the region generation the
        # checksums are bound to (see EntryCodec.scan_region).
        self.checksums = checksums
        self.salt = salt
        if recycle is None:
            self._buffer = bytearray(capacity)
            self._stale = 0
        else:
            # Take over a flushed buffer's storage instead of allocating:
            # its bytes below ``_stale`` are the previous region's and are
            # overwritten by appends or zeroed at finalize().
            if recycle.capacity != capacity:
                raise ValueError("a recycled buffer must have the same capacity")
            self._buffer = recycle._buffer
            self._stale = max(recycle._stale, recycle._used)
        self._used = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def remaining(self) -> int:
        return self.capacity - self._used

    def fits(self, entry_bytes: int) -> bool:
        return entry_bytes <= self.remaining

    def append(self, key: bytes, value: bytes, expiry_ns: int = 0) -> EntryLocation:
        """Pack an entry; returns its location within this (open) region."""
        offset = self._used
        checksums = self.checksums
        size = EntryCodec.HEADER_SIZE + len(key) + len(value)
        if checksums:
            size += EntryCodec.CRC_SIZE
        if size > self.capacity - offset:
            raise ValueError(
                f"entry of {size}B does not fit ({self.capacity - offset}B left)"
            )
        if checksums:
            self._buffer[offset : offset + size] = EntryCodec.encode(
                key, value, expiry_ns, checksum=True, salt=self.salt
            )
        else:
            EntryCodec.encode_into(self._buffer, offset, key, value, expiry_ns)
        self._used = offset + size
        return EntryLocation(self.region_id, offset, size)

    def read(self, offset: int, length: int) -> bytes:
        """Serve a read from the open buffer (CacheLib's read-from-buffer)."""
        if offset + length > self._used:
            raise ValueError("read beyond buffered data")
        return bytes(self._buffer[offset : offset + length])

    def finalize(self) -> memoryview:
        """Zero-padded payload of exactly ``capacity`` bytes for the flush.

        A read-only view of the buffer itself, not a copy: it is only
        valid until a successor buffer (``recycle=``) starts appending,
        so whoever flushes it must copy it out (every device's page
        store does) and keep no reference to it.
        """
        if self._stale > self._used:
            self._buffer[self._used : self._stale] = bytes(self._stale - self._used)
            self._stale = self._used
        return memoryview(self._buffer).toreadonly()


@dataclass
class RegionMeta:
    """Bookkeeping for a sealed on-flash region."""

    region_id: int
    sealed_seq: int = 0
    keys: Set[bytes] = field(default_factory=set)
    fill_duration_ns: int = 0
    # Generation salt the region's entries were checksummed with (0 when
    # checksums are off) — needed to verify reads after a warm restart.
    salt: int = 0
    # Per-key on-flash entry sizes, maintained by the seal/recovery
    # paths so the liveness ledger can account removals in bytes (keys
    # without a recorded size account as 0 — older snapshots).
    entry_bytes: Dict[bytes, int] = field(default_factory=dict)
    live_bytes: int = 0
    dead_bytes: int = 0

    @property
    def valid_items(self) -> int:
        return len(self.keys)

    def note_inserted(self, key: bytes, nbytes: int = 0) -> None:
        self.keys.add(key)
        if nbytes:
            self.entry_bytes[key] = nbytes
            self.live_bytes += nbytes

    def note_removed(self, key: bytes) -> Optional[int]:
        """Forget a key; returns its entry size if it was live, else None."""
        if key not in self.keys:
            return None
        self.keys.discard(key)
        nbytes = self.entry_bytes.pop(key, 0)
        self.live_bytes -= nbytes
        self.dead_bytes += nbytes
        return nbytes
