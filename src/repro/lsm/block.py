"""SSTable data blocks: sorted key/value runs in one flat framing.

Entries are length-prefixed and sorted; a block targets ~4 KiB (the
device page size) so a point read is one aligned device I/O — and one
secondary-cache object, matching how RocksDB's block cache interacts
with CacheLib in the paper's setup.

Only this module knows the entry framing, ``[key_len u16][value_len u32]
[key][value]``: :meth:`DataBlockBuilder.add_run` is its one encoding
loop (a whole sorted run becomes blocks in it) and one decoding loop
serves both :func:`index_entries` (a block's lookup index) and
:func:`iter_block` (its entries, for compaction and scans).  Blocks are
zero-padded on media, so an all-zero header ends a block — and the
builder refuses the one entry (empty key, empty value) that would encode
to it.
"""

from __future__ import annotations

import bisect
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import LsmError

# A block's lookup index: its keys in order, and where each key's value
# starts and ends in the block's bytes.
BlockIndex = Tuple[List[bytes], "array[int]", "array[int]"]

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
    """Frames ascending entries into blocks of about ``target_size`` bytes.

    An entry that would push a non-empty open block past the target
    seals that block into ``blocks`` first.  ``first_keys`` holds the
    first key of every block (the open one included) and ``keys`` every
    key framed, in order; keys must ascend across blocks too.
    """

    def __init__(self, target_size: int = 4096) -> None:
        if target_size < MIN_BLOCK_SIZE:
            raise ValueError(f"target_size must be >= {MIN_BLOCK_SIZE}")
        self.target_size = target_size
        self.num_entries = 0  # in the open block
        self.estimated_size = 0  # bytes of the open block
        self.blocks: List[bytes] = []
        self.first_keys: List[bytes] = []
        self.keys: List[bytes] = []
        self._parts: List[bytes] = []

    def add(self, key: bytes, value: bytes) -> None:
        """Frame one entry: a run of one."""
        self.add_run(((key, value),))

    def add_run(
        self, entries: Iterable[Tuple[bytes, bytes]], budget: Optional[int] = None
    ) -> None:
        """Frame ascending ``entries`` — the one framing loop.  With a
        ``budget``, stop after the entry that brings the key and value
        bytes framed by this call to at least ``budget``, leaving the rest
        of an iterator unread.  A refused entry raises before any of it is
        framed; the entries before it stay framed."""
        target, parts, keys = self.target_size, self._parts, self.keys
        pack, blocks, first_keys = _LEN.pack, self.blocks, self.first_keys
        size, count = self.estimated_size, self.num_entries
        last = keys[-1] if keys else b""
        framed, limit = 0, sys.maxsize if budget is None else budget
        try:
            for key, value in entries:
                if key <= last and keys:
                    raise ValueError("keys must be added in strictly ascending order")
                key_len, value_len = len(key), len(value)
                try:
                    header = pack(key_len, value_len)
                except struct.error:
                    raise LsmError(
                        f"a {key_len}B key / {value_len}B value exceeds the framing "
                        f"limits of {MAX_KEY_LEN}B / {MAX_VALUE_LEN}B"
                    ) from None
                if not key_len + value_len:
                    raise LsmError(
                        "an empty key with an empty value is the padding sentinel"
                    )
                entry_size = _HEADER + key_len + value_len
                if count:
                    if size + entry_size > target:
                        blocks.append(b"".join(parts))
                        parts.clear()
                        size = count = 0
                        first_keys.append(key)
                else:
                    first_keys.append(key)
                parts += (header, key, value)
                keys.append(key)
                last = key
                size += entry_size
                count += 1
                framed += key_len + value_len
                if framed >= limit:
                    return
        finally:
            self.estimated_size, self.num_entries = size, count

    def finish(self) -> bytes:
        """Serialize the open block; the builder goes on with an empty one."""
        blob = b"".join(self._parts)
        self._parts = []
        self.num_entries = 0
        self.estimated_size = 0
        return blob


def _decode(blob: bytes) -> Tuple[List[bytes], List[int], List[int]]:
    """The one decoding loop: a serialized block's keys in order and
    where each key's value starts and ends in ``blob`` (``bytes``)."""
    unpack, last = _LEN.unpack_from, len(blob) - _HEADER
    keys: List[bytes] = []
    starts: List[int] = []
    ends: List[int] = []
    pos = 0
    while pos <= last:
        key_len, value_len = unpack(blob, pos)
        if not key_len and not value_len:
            break  # zero padding reached
        start = pos + _HEADER + key_len
        pos = start + value_len
        keys.append(blob[start - key_len : start])
        starts.append(start)
        ends.append(pos)
    return keys, starts, ends


def index_entries(blob: bytes) -> BlockIndex:
    """The lookup index of a serialized block: ``(keys, starts, ends)``.

    ``keys`` is the block's keys in order (``bytes``, so they order
    whatever type ``blob`` is); value ``i`` is ``blob[starts[i]:ends[i]]``
    in this or any other copy of the same bytes.  A point read is then one
    C ``bisect`` over ``keys`` plus one slice.  Built once per block of a
    table (:meth:`SSTable.index_block`), since a table's bytes never change.
    """
    if not isinstance(blob, bytes):
        blob = bytes(blob)  # bytes keys, whatever the caller holds
    keys, starts, ends = _decode(blob)
    return keys, array("q", starts), array("q", ends)


def iter_block(blob: bytes) -> Iterator[Tuple[bytes, bytes]]:
    """Every ``(key, value)`` of a serialized block, in key order."""
    if not isinstance(blob, bytes):
        blob = bytes(blob)  # a full scan copies every entry out anyway
    keys, starts, ends = _decode(blob)
    return zip(keys, [blob[start:end] for start, end in zip(starts, ends)])


class DataBlock:
    """A fully decoded block (tests and tools; reads use :func:`index_entries`)."""

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
