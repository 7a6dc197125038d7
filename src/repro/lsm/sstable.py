"""SSTables: immutable sorted tables stored in one device extent.

Layout inside the extent::

    [data blocks (padded)][meta blob (padded)][footer block]

The meta blob serializes the block index, bloom filter and key range;
the footer carries a magic, the meta blob's location, and the table id —
so a table can be fully re-opened from the device after a crash
(:meth:`SSTable.open`).  At runtime the index/bloom stay pinned in
memory, the equivalent of RocksDB's "index block caching enabled"
(§4.2), and so does each data block's entry index once a lookup has
landed in that block (:meth:`SSTable.index_block`).

A handle is the table's bytes as decoded, and nothing else: it holds no
device or extent allocator, so whoever reads a block names the device
(:meth:`SSTable.read_block`) and whoever frees the extent owns the
allocator.  Its bytes never change, so a deep copy of a ``Db`` shares
the handle (and the index, filter and entry indexes pinned on it) rather
than copying it: each copy reads it through its own device.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import LsmError
from repro.flash.device import BlockDevice
from repro.lsm.block import (
    BlockHandle,
    BlockIndex,
    DataBlockBuilder,
    index_entries,
    iter_block,
)
from repro.lsm.bloom import BloomFilter
from repro.lsm.table_space import TableSpace
from repro.units import align_up

FOOTER_MAGIC = b"REPRO-SST1"
_FOOTER = struct.Struct("<10sQQQI")  # magic, table_id, meta_offset, meta_len, data_size


@dataclass(eq=False)
class SSTable:
    """Reader handle for one immutable table, compared by identity."""

    table_id: int
    extent_offset: int
    extent_size: int
    index_keys: List[bytes]          # first key of each block
    index_handles: List[BlockHandle]  # offsets relative to extent start
    bloom: BloomFilter
    smallest: bytes
    largest: bytes
    num_entries: int
    # Entry index of each data block (None until a lookup lands in it);
    # like index_keys and the bloom filter it lives as long as this
    # handle: compaction drops it with the table, reopen starts empty.
    # It is a pure function of the block's bytes, so every Db sharing
    # the handle may build and use it.
    entry_indexes: List[Optional[BlockIndex]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.entry_indexes = [None] * len(self.index_handles)

    def __deepcopy__(self, memo: Dict[int, object]) -> "SSTable":
        """The handle itself: nothing in it is ever mutated but the entry
        indexes, which any copy would rebuild byte for byte."""
        return self

    def index_block(self, block: int, blob: bytes) -> BlockIndex:
        """Build and pin the entry index of data block ``block`` from
        ``blob``, its bytes as any tier delivered them."""
        index = self.entry_indexes[block] = index_entries(blob)
        return index

    def read_block(self, device: BlockDevice, handle: BlockHandle) -> bytes:
        """Read a data block from ``device`` (aligned to device blocks)."""
        start = self.extent_offset + handle.offset
        aligned_start = (start // device.block_size) * device.block_size
        end = align_up(start + handle.size, device.block_size)
        data = device.read(aligned_start, end - aligned_start).data
        skip = start - aligned_start
        return data[skip : skip + handle.size]

    def iter_entries(self, device: BlockDevice) -> Iterator[Tuple[bytes, bytes]]:
        """Full scan in key order (compaction, ``Db.scan``): each block is
        read from ``device`` when the scan reaches it and decoded in one
        loop."""
        return chain.from_iterable(
            map(iter_block, map(self.read_block, repeat(device), self.index_handles))
        )

    @classmethod
    def open(cls, space: TableSpace, extent_offset: int, extent_size: int) -> "SSTable":
        """Re-open a table from its on-device footer (crash recovery),
        read through ``space``'s device; the handle keeps neither."""
        device = space.device
        footer_offset = extent_offset + extent_size - device.block_size
        footer_block = device.read(footer_offset, device.block_size).data
        magic, table_id, meta_offset, meta_len, _data_size = _FOOTER.unpack_from(
            footer_block
        )
        if magic != FOOTER_MAGIC:
            raise LsmError(
                f"no SSTable footer at extent offset {extent_offset} "
                f"(+{extent_size})"
            )
        meta_start = extent_offset + meta_offset
        aligned_start = (meta_start // device.block_size) * device.block_size
        aligned_end = align_up(meta_start + meta_len, device.block_size)
        raw = device.read(aligned_start, aligned_end - aligned_start).data
        skip = meta_start - aligned_start
        meta = pickle.loads(raw[skip : skip + meta_len])
        return cls(
            table_id=table_id,
            extent_offset=extent_offset,
            extent_size=extent_size,
            index_keys=meta["index_keys"],
            index_handles=[BlockHandle(*h) for h in meta["handles"]],
            bloom=BloomFilter.from_bytes(meta["bloom"]),
            smallest=meta["smallest"],
            largest=meta["largest"],
            num_entries=meta["num_entries"],
        )


class SSTableBuilder:
    """Builds one table from ascending (key, value) pairs."""

    def __init__(
        self, table_id: int, space: TableSpace, block_size: int = 4096,
        bits_per_key: int = 10,
    ) -> None:
        self.table_id = table_id
        self.space = space
        self.block_size = block_size
        self.bits_per_key = bits_per_key
        self._framer = DataBlockBuilder(block_size)

    @property
    def num_entries(self) -> int:
        return len(self._framer.keys)

    def add(self, key: bytes, value: bytes) -> None:
        self._framer.add(key, value)

    def add_run(
        self, entries: Iterable[Tuple[bytes, bytes]], budget: Optional[int] = None
    ) -> None:
        """Frame a sorted run (see :meth:`DataBlockBuilder.add_run`)."""
        self._framer.add_run(entries, budget)

    def finish(self) -> Optional[SSTable]:
        """Write the table (data + meta + footer) to the device."""
        framer = self._framer
        blocks, keys = framer.blocks, framer.keys
        if framer.num_entries:
            blocks.append(framer.finish())
        if not blocks:
            return None
        device = self.space.device
        block_size = device.block_size
        handles: List[BlockHandle] = []
        offset = 0
        padded_blocks: List[bytes] = []
        for blob in blocks:
            handles.append(BlockHandle(offset, len(blob)))
            padded = blob.ljust(align_up(len(blob), block_size), b"\x00")
            padded_blocks.append(padded)
            offset += len(padded)
        data_payload = b"".join(padded_blocks)
        smallest, largest = keys[0], keys[-1]
        bloom = BloomFilter.for_keys(keys, self.bits_per_key)
        meta_blob = pickle.dumps(
            {
                "index_keys": framer.first_keys,
                "handles": [(h.offset, h.size) for h in handles],
                "bloom": bloom.to_bytes(),
                "smallest": smallest,
                "largest": largest,
                "num_entries": len(keys),
            }
        )
        meta_offset = len(data_payload)
        meta_padded = meta_blob.ljust(align_up(len(meta_blob), block_size), b"\x00")
        footer = _FOOTER.pack(
            FOOTER_MAGIC, self.table_id, meta_offset, len(meta_blob), len(data_payload)
        ).ljust(block_size, b"\x00")
        payload = data_payload + meta_padded + footer
        extent_offset = self.space.allocate(len(payload))
        device.write(extent_offset, payload)
        return SSTable(
            table_id=self.table_id,
            extent_offset=extent_offset,
            extent_size=len(payload),
            index_keys=framer.first_keys,
            index_handles=handles,
            bloom=bloom,
            smallest=smallest,
            largest=largest,
            num_entries=len(keys),
        )
