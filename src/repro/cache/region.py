"""Region state: the in-memory fill buffer and per-region metadata.

A *region* is CacheLib's on-flash management unit.  New entries are
packed into an in-memory :class:`RegionBuffer` ("a larger region size
requires setting up a larger region buffer in memory", §3.2); when the
buffer cannot fit the next entry it is flushed to the backend and
sealed.  :class:`RegionMeta` tracks which keys currently live in a
sealed region (and how many bytes each holds) so that whole-region
eviction can drop exactly those index entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


class RegionBuffer:
    """Append-only buffer for the region currently being filled.

    The engine packs entries at ``used`` through ``view``, a writable
    ``memoryview`` of the buffer's ``bytearray`` made once at
    construction: assigning ``bytes`` to a ``bytearray`` slice first
    copies them into a temporary, assigning them to a ``memoryview``
    slice does not.  ``recycle`` names the flushed buffer whose storage
    (and view) this one takes over, so a cache allocates its
    region-sized ``bytearray`` once.
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
            self.view = memoryview(bytearray(capacity))
            self._stale = 0
        else:
            # Take over a flushed buffer's storage instead of allocating:
            # its bytes below ``_stale`` are the previous region's and are
            # overwritten by the sets that fill this region or zeroed at
            # finalize().
            if recycle.capacity != capacity:
                raise ValueError("a recycled buffer must have the same capacity")
            self.view = recycle.view
            self._stale = max(recycle._stale, recycle.used)
        self.used = 0

    def read(self, offset: int, length: int) -> bytes:
        """Serve a read from the open buffer (CacheLib's read-from-buffer)."""
        if offset + length > self.used:
            raise ValueError("read beyond buffered data")
        return self.view[offset : offset + length].tobytes()

    def finalize(self) -> memoryview:
        """Zero-padded payload of exactly ``capacity`` bytes for the flush.

        A read-only view of the buffer itself, not a copy: it is only
        valid until a successor buffer (``recycle=``) starts appending,
        so whoever flushes it must copy it out (every device's page
        store does) and keep no reference to it.
        """
        if self._stale > self.used:
            self.view[self.used : self._stale] = bytes(self._stale - self.used)
            self._stale = self.used
        return self.view.toreadonly()


@dataclass
class RegionMeta:
    """Bookkeeping for a sealed on-flash region."""

    region_id: int
    sealed_seq: int = 0
    # The region's live keys, each with its on-flash entry size, in the
    # order they were first appended.  This one map is what eviction,
    # the GC hints and recovery read, and what the liveness ledger
    # debits in bytes; the engine fills it while the region is open and
    # hands it over at seal.
    keys: Dict[bytes, int] = field(default_factory=dict)
    fill_duration_ns: int = 0
    # Generation salt the region's entries were checksummed with (0 when
    # checksums are off) — needed to verify its reads; crash_recover
    # takes it from the region's journaled seal.
    salt: int = 0
    live_bytes: int = 0
    dead_bytes: int = 0

    @property
    def valid_items(self) -> int:
        return len(self.keys)

    def note_inserted(self, key: bytes, nbytes: int = 0) -> None:
        self.keys[key] = nbytes
        self.live_bytes += nbytes

    def note_removed(self, key: bytes) -> Optional[int]:
        """Forget a key; returns its entry size if it was live, else None."""
        nbytes = self.keys.pop(key, None)
        if nbytes is not None:
            self.live_bytes -= nbytes
            self.dead_bytes += nbytes
        return nbytes
