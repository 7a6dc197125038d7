"""SSTable data blocks: sorted key/value runs in one flat framing.

Entries are length-prefixed and sorted; a block targets ~4 KiB (the
device page size) so a point read is one aligned device I/O — and one
secondary-cache object, matching how RocksDB's block cache interacts
with CacheLib in the paper's setup.

Only this module knows the entry framing, ``[key_len u16][value_len u32]
[key][value]``: :class:`DataBlockBuilder` encodes it, :func:`iter_block`
and :func:`block_get` walk it.  Blocks are zero-padded on media, so an
all-zero header ends a block — and the builder refuses the one entry
(empty key, empty value) that would encode to it.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import LsmError

_LEN = struct.Struct("<HI")  # key length (u16), value length (u32)
_HEADER = _LEN.size
MAX_KEY_LEN = 0xFFFF
MAX_VALUE_LEN = 0xFFFFFFFF
MIN_BLOCK_SIZE = 64  # smallest target a data block may be built to


@dataclass(frozen=True)
class BlockHandle:
    """Location of a block within its table's extent."""

    offset: int
    size: int

    def to_bytes(self) -> bytes:
        return struct.pack("<QI", self.offset, self.size)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BlockHandle":
        offset, size = struct.unpack_from("<QI", blob)
        return cls(offset, size)


class DataBlockBuilder:
    """Accumulates sorted entries until the target block size."""

    def __init__(self, target_size: int = 4096) -> None:
        if target_size < MIN_BLOCK_SIZE:
            raise ValueError(f"target_size must be >= {MIN_BLOCK_SIZE}")
        self.target_size = target_size
        self.num_entries = 0
        self.estimated_size = 0
        self._parts: List[bytes] = []
        self._last_key = b""

    def would_overflow(self, key: bytes, value: bytes) -> bool:
        return (
            self.num_entries > 0
            and self.estimated_size + _HEADER + len(key) + len(value)
            > self.target_size
        )

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; keys must arrive in strictly ascending order."""
        if self.num_entries and key <= self._last_key:
            raise ValueError("keys must be added in strictly ascending order")
        if not key and not value:
            raise LsmError("an empty key with an empty value is the padding sentinel")
        try:
            header = _LEN.pack(len(key), len(value))
        except struct.error:
            raise LsmError(
                f"a {len(key)}B key / {len(value)}B value exceeds the framing "
                f"limits of {MAX_KEY_LEN}B / {MAX_VALUE_LEN}B"
            ) from None
        self._parts += (header, key, value)
        self._last_key = key
        self.num_entries += 1
        self.estimated_size += _HEADER + len(key) + len(value)

    def finish(self) -> bytes:
        """Serialize; the builder resets for the next block."""
        blob = b"".join(self._parts)
        self._parts = []
        self.num_entries = 0
        self.estimated_size = 0
        return blob


def iter_block(blob: bytes) -> Iterator[Tuple[bytes, bytes]]:
    """Every ``(key, value)`` of a serialized block, in key order."""
    if not isinstance(blob, bytes):
        blob = bytes(blob)  # a full scan copies every entry out anyway
    unpack, last = _LEN.unpack_from, len(blob) - _HEADER
    pos = 0
    while pos <= last:
        key_len, value_len = unpack(blob, pos)
        if not key_len and not value_len:
            return  # zero padding reached
        key_end = pos + _HEADER + key_len
        value_end = key_end + value_len
        yield blob[pos + _HEADER : key_end], blob[key_end:value_end]
        pos = value_end


def block_get(blob: bytes, key: bytes) -> Optional[bytes]:
    """Point lookup straight off the serialized block.

    Walks the entry headers and slices out one key per entry until the
    first key ``>=`` the target (the builder enforces strictly ascending
    keys), so nothing but the returned value is materialised.
    """
    unpack, last = _LEN.unpack_from, len(blob) - _HEADER
    is_view = isinstance(blob, memoryview)  # views compare equal but do not order
    pos = 0
    while pos <= last:
        key_len, value_len = unpack(blob, pos)
        if not key_len and not value_len:
            return None  # zero padding reached
        key_end = pos + _HEADER + key_len
        found = blob[pos + _HEADER : key_end]
        if is_view:
            found = bytes(found)
        if found >= key:
            return blob[key_end : key_end + value_len] if found == key else None
        pos = key_end + value_len
    return None


class DataBlock:
    """A fully decoded block (tests and tools; reads use :func:`block_get`)."""

    def __init__(self, blob: bytes) -> None:
        self._entries = list(iter_block(blob))
        self._keys = [key for key, _ in self._entries]

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: bytes) -> Optional[bytes]:
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._entries[idx][1]
        return None

    def entries(self) -> List[Tuple[bytes, bytes]]:
        return list(self._entries)
