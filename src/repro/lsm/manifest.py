"""Persistent manifest: the LSM's durable version state.

RocksDB's MANIFEST records which tables live at which level; ours stores
the same in a fixed device extent, rewritten atomically (single extent
write) after every memtable flush and compaction.  Together with SSTable
footers and the epoch-tagged WAL, this makes :meth:`repro.lsm.Db.reopen`
a full crash-recovery path.
"""

from __future__ import annotations

import pickle
import struct
from typing import List, Optional, Tuple

from repro.errors import ConfigError, LsmError
from repro.flash.device import BlockDevice
from repro.units import align_up

MANIFEST_MAGIC = b"REPRO-MANIFEST1"
_HEADER = struct.Struct("<15sQ")  # magic, blob length

# (table_id, extent_offset, extent_size) per table, per level.
TableRecord = Tuple[int, int, int]


class Manifest:
    """Fixed-extent manifest writer/reader."""

    def __init__(self, device: BlockDevice, offset: int, size: int) -> None:
        if size <= 0 or size % device.block_size != 0:
            raise ConfigError(
                f"manifest_bytes must be a positive multiple of the device "
                f"block size {device.block_size}, got {size}"
            )
        self.device = device
        self.offset = offset
        self.size = size
        self.writes = 0

    def store(
        self,
        levels: List[List[TableRecord]],
        next_table_id: int,
        wal_epoch: int,
    ) -> None:
        """Atomically persist the current version state."""
        blob = pickle.dumps(
            {
                "levels": levels,
                "next_table_id": next_table_id,
                "wal_epoch": wal_epoch,
            }
        )
        payload = _HEADER.pack(MANIFEST_MAGIC, len(blob)) + blob
        padded = payload.ljust(
            align_up(len(payload), self.device.block_size), b"\x00"
        )
        if len(padded) > self.size:
            raise LsmError(
                f"manifest of {len(padded)}B exceeds its extent of {self.size}B"
            )
        self.device.write(self.offset, padded)
        self.writes += 1

    def load(self) -> Optional[dict]:
        """Read the manifest; None if the extent holds no valid manifest."""
        header = self.device.read(self.offset, self.device.block_size).data
        magic, blob_len = _HEADER.unpack_from(header)
        if magic != MANIFEST_MAGIC:
            return None
        total = _HEADER.size + blob_len
        padded = align_up(total, self.device.block_size)
        if padded > self.size:
            raise LsmError("manifest header claims an impossible length")
        raw = self.device.read(self.offset, padded).data
        return pickle.loads(raw[_HEADER.size : _HEADER.size + blob_len])
