"""Write-ahead log with epoch-tagged blocks and crash recovery.

Records are buffered and written in device-block units; every block
carries the WAL *epoch* (bumped on each memtable flush), so replay after
a crash reads exactly the records of the live epoch and ignores stale
blocks from earlier epochs that were never overwritten.

Block layout: ``[epoch u32][payload ...]``; records inside the payload
stream are ``[length u32][bytes]``, and a length of 0 means the rest of
the block is sync padding.  A length field may straddle two blocks, so
a sync that leaves fewer padding bytes than a length field is followed,
before the next record, by one all-zero block of the same epoch: replay
then reads the short pad as a zero length too.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import ConfigError, LsmError
from repro.flash.device import BlockDevice

_EPOCH = struct.Struct("<I")
_LEN = struct.Struct("<I")


class WalFullError(LsmError):
    """The WAL extent cannot hold more records this epoch; flush first."""


class WriteAheadLog:
    """Append log over a fixed extent of a block device."""

    def __init__(self, device: BlockDevice, offset: int, size: int) -> None:
        if size <= 0 or size % device.block_size != 0:
            raise ConfigError(
                f"wal_bytes must be a positive multiple of the device block "
                f"size {device.block_size}, got {size}"
            )
        if device.block_size <= _EPOCH.size + _LEN.size:
            raise ConfigError(
                f"a {device.block_size}B device block is too small for WAL framing"
            )
        self.device = device
        self.offset = offset
        self.size = size
        self._block_size = device.block_size
        self.payload_per_block = device.block_size - _EPOCH.size
        # Payload bytes one epoch holds, and so the longest record.
        self._epoch_payload = size // device.block_size * self.payload_per_block
        self.max_record_bytes = self._epoch_payload - _LEN.size
        self.epoch = 1
        self._cursor = 0  # byte offset of the next block to write
        self._pending = bytearray()
        self._short_pad = False  # the last sync left < one length field
        # Payload bytes the rest of this epoch takes: what its records and
        # sync pads so far (a short pad's zero block included) left over.
        self._room = self._epoch_payload
        self.records_appended = 0
        self.bytes_flushed = 0

    def append(self, record: bytes) -> None:
        """Buffer one record; full blocks are written immediately.

        Raises :class:`WalFullError` when the extent cannot absorb the
        record this epoch — the caller must flush the memtable (which
        resets the log) and retry.
        """
        framed = _LEN.size + len(record)
        if framed > self._room:
            raise WalFullError(
                f"WAL extent of {self.size}B exhausted at epoch {self.epoch}"
            )
        self._room -= framed
        pending, payload = self._pending, self.payload_per_block
        if self._short_pad:
            self._short_pad = False
            self._write_block(bytes(payload))
        pending += _LEN.pack(len(record))
        pending += record
        self.records_appended += 1
        while len(pending) >= payload:
            chunk = bytes(pending[:payload])
            del pending[:payload]
            self._write_block(chunk)

    def sync(self) -> None:
        """Flush any buffered tail (zero-padded to a whole block)."""
        if self._pending:
            pad = self.payload_per_block - len(self._pending)
            self._short_pad = pad < _LEN.size
            # The pad, and the zero block a short pad is followed by.
            self._room -= pad + self._short_pad * self.payload_per_block
            chunk = bytes(self._pending).ljust(self.payload_per_block, b"\x00")
            self._pending.clear()
            self._write_block(chunk)

    def reset(self) -> None:
        """Log truncation after a successful memtable flush: new epoch."""
        self.epoch += 1
        self._cursor = 0
        self._pending.clear()
        self._short_pad = False
        self._room = self._epoch_payload

    def replay(self, epoch: int) -> Iterator[bytes]:
        """Yield the records of ``epoch`` from the device (crash recovery)."""
        payload = bytearray()
        position = 0
        while position + self._block_size <= self.size:
            block = self.device.read(self.offset + position, self._block_size).data
            position += self._block_size
            (block_epoch,) = _EPOCH.unpack_from(block)
            if block_epoch != epoch:
                break
            payload.extend(block[_EPOCH.size :])
        cursor = 0
        while cursor + _LEN.size <= len(payload):
            (length,) = _LEN.unpack_from(payload, cursor)
            if length == 0:
                # Sync padding: skip to the next block boundary.
                block_pos = (cursor // self.payload_per_block + 1) * self.payload_per_block
                if block_pos <= cursor:
                    break
                cursor = block_pos
                continue
            cursor += _LEN.size
            if cursor + length > len(payload):
                break  # torn tail record: discarded, as a real WAL would
            yield bytes(payload[cursor : cursor + length])
            cursor += length

    def _write_block(self, payload: bytes) -> None:
        block = _EPOCH.pack(self.epoch) + payload
        self.device.write(self.offset + self._cursor, block)
        self._cursor += self._block_size
        self.bytes_flushed += self._block_size
