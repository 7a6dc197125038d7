"""The F2FS-like filesystem facade.

Wires the layout, NAT, SIT, log manager and the section cleaner (a
:class:`~repro.reclaim.ReclaimEngine` over :mod:`repro.f2fs.gc`'s
section source, ``fs.reclaim``) onto two devices:

* a :class:`~repro.flash.ZnsSsd` carrying the main (data) area, one
  section per zone, and
* a conventional :class:`~repro.flash.device.BlockDevice` (nullblk in
  the paper) carrying the metadata area: NAT/SIT journal writes and
  checkpoints.

The write path is out-of-place: old block mappings are invalidated in
the SIT, new blocks are allocated from the hot-data log, and every
mapping update is journaled to the metadata device in batches.  The
paper's File-Cache criticisms fall out of this design naturally: block-
granular mapping overhead, filesystem WA from cleaning, and reserved
provisioning space.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import (
    AlignmentError,
    DeviceError,
    NoSpaceError,
    PowerCutError,
    RetryableError,
    ZoneDeadError,
)
from repro.f2fs.file import F2fsFile
from repro.f2fs.gc import CleanerConfig, _SectionReclaimSource
from repro.f2fs.layout import F2fsConfig, F2fsLayout
from repro.f2fs.nat import NodeAddressTable
from repro.f2fs.segment import LogManager, LogStream
from repro.f2fs.sit import SegmentInfoTable
from repro.flash.device import BlockDevice
from repro.flash.znsssd import ZnsSsd
from repro.reclaim import ReclaimEngine, ReclaimPacer, make_victim_policy
from repro.sim.clock import SimClock
from repro.sim.io import IoTracer


@dataclass
class F2fsStats:
    """Filesystem counters; ``write_amplification`` is the FS-level WAF."""

    host_write_bytes: int = 0
    host_read_bytes: int = 0
    data_write_bytes: int = 0  # all main-area writes incl. cleaning
    meta_write_bytes: int = 0
    checkpoints: int = 0
    # Fault handling: sections lost to dead zones, transient I/O retries.
    dead_sections: int = 0
    io_retries: int = 0

    @property
    def write_amplification(self) -> float:
        if self.host_write_bytes == 0:
            return 1.0
        return (self.data_write_bytes + self.meta_write_bytes) / self.host_write_bytes


class F2fs:
    """Log-structured filesystem over (zoned data device, metadata device)."""

    SUPERBLOCK_MAGIC = b"REPRO-F2FS-v1\x00\x00\x00"

    def __init__(
        self,
        clock: SimClock,
        data_device: ZnsSsd,
        meta_device: BlockDevice,
        config: F2fsConfig = F2fsConfig(),
        cleaner_config: CleanerConfig = CleanerConfig(),
    ) -> None:
        self._clock = clock
        self.data_device = data_device
        self.meta_device = meta_device
        self.config = config
        self.layout = F2fsLayout.for_device(
            data_device.zone_size, data_device.num_zones, config
        )
        self.nat = NodeAddressTable()
        self.sit = SegmentInfoTable(
            self.layout.num_sections, self.layout.blocks_per_section
        )
        self.logs = LogManager(self.layout, data_device.report_zones())
        # The I/O tracer shared with the main-area (data) device.
        self.tracer: IoTracer = data_device.tracer
        # Write recency the cost-benefit cleaner reads as section age
        # (see _note_section_written).
        self._section_mtime = [0] * self.layout.num_sections
        self._write_tick = 0
        # Section cleaning; a store binds the cache's §3.4 hints on its
        # source (``FileRegionStore.bind_gc_hints``).
        self.reclaim = ReclaimEngine(
            _SectionReclaimSource(self),
            make_victim_policy(cleaner_config.policy),
            ReclaimPacer(cleaner_config.pacer_config()),
            tracer=self.tracer,
            clock=clock,
        )
        self.stats = F2fsStats()
        # The layout is frozen: its usable capacity is read once here,
        # not through its property chain on every write.
        self._usable_bytes = self.layout.usable_bytes
        self._meta_pending_updates = 0
        self._meta_cursor_block = 1  # block 0 is the superblock
        self._blocks_since_checkpoint = 0
        self._mkfs_done = False
        # (file_id, node_group) -> current node-block address in the main
        # area; node blocks are invalidated and rewritten when any data
        # block they index is remapped.
        self._node_addr: dict = {}

    # --- lifecycle ------------------------------------------------------------------

    def mkfs(self) -> None:
        """Format: reset all zones, write the superblock, empty tables."""
        for zone_index in range(self.layout.num_sections):
            self.data_device.reset_zone(zone_index)
        block = self.SUPERBLOCK_MAGIC.ljust(self.meta_device.block_size, b"\x00")
        self.meta_device.write(0, block)
        self.stats.meta_write_bytes += len(block)
        self._mkfs_done = True

    @classmethod
    def mount(
        cls,
        clock: SimClock,
        data_device: ZnsSsd,
        meta_device: BlockDevice,
        config: F2fsConfig = F2fsConfig(),
        cleaner_config: CleanerConfig = CleanerConfig(),
    ) -> "F2fs":
        """Re-attach a filesystem from its last checkpoint."""
        superblock = meta_device.read(0, meta_device.block_size).data
        if not superblock or not superblock.startswith(cls.SUPERBLOCK_MAGIC):
            raise NoSpaceError("no filesystem found on the metadata device")
        fs = cls(clock, data_device, meta_device, config, cleaner_config)
        fs._mkfs_done = True
        fs._restore_checkpoint()
        return fs

    # --- namespace ---------------------------------------------------------------------

    def create(self, name: str) -> F2fsFile:
        self._require_formatted()
        file_id = self.nat.create_file(name)
        return F2fsFile(self, name, file_id)

    def open(self, name: str) -> F2fsFile:
        self._require_formatted()
        return F2fsFile(self, name, self.nat.lookup_file(name))

    def exists(self, name: str) -> bool:
        return self.nat.has_file(name)

    def delete(self, name: str) -> None:
        """Unlink a file, invalidating all of its data and node blocks."""
        self._require_formatted()
        file_id = self.nat.lookup_file(name)
        block_map = self.nat.remove_file(name)
        for block_addr in block_map.values():
            self.sit.mark_invalid(block_addr)
        for key in [k for k in self._node_addr if k[0] == file_id]:
            self.sit.mark_invalid(self._node_addr.pop(key))
        self._note_meta_updates(len(block_map) + 1)

    # --- free space ----------------------------------------------------------------------

    @property
    def usable_bytes(self) -> int:
        return self._usable_bytes

    @property
    def live_bytes(self) -> int:
        """Live *data* bytes (node blocks are accounted to the reserve)."""
        data_blocks = self.sit.total_valid_blocks - len(self._node_addr)
        return data_blocks * self.layout.block_size

    @property
    def free_bytes(self) -> int:
        return self.usable_bytes - self.live_bytes

    # --- data path -----------------------------------------------------------------------

    def pwrite(self, file_id: int, offset: int, data: bytes) -> int:
        """Out-of-place block write; returns total latency in ns.

        The remap goes a run of blocks at a time (SIT, NAT, section
        recency), in line: a region flush is a handful of runs.
        """
        if not self._mkfs_done:
            self._require_formatted()  # raises
        layout = self.layout
        block_size = layout.block_size
        if offset % block_size or len(data) % block_size:
            raise AlignmentError(
                f"pwrite (offset={offset}, len={len(data)}) must be "
                f"{block_size}B-aligned"
            )
        if not data:
            return 0
        # Block runs are cut from the caller's buffer as views; the data
        # device copies each run to media exactly once.
        data = memoryview(data)
        num_blocks = len(data) // block_size
        first_block = offset // block_size
        end_block = first_block + num_blocks
        nat, sit = self.nat, self.sit
        new_blocks = num_blocks - sum(
            map(nat.block_map(file_id).__contains__, range(first_block, end_block))
        )
        # live_bytes, in line.
        live_blocks = sit.total_valid_blocks - len(self._node_addr)
        if (live_blocks + new_blocks) * block_size > self._usable_bytes:
            raise NoSpaceError(
                f"write needs {new_blocks} new blocks but only "
                f"{self.free_bytes // block_size} remain"
            )
        clock = self._clock
        start_ns = clock.now
        tracer = self.tracer
        span = (
            tracer.span("f2fs", "pwrite", offset=offset, length=len(data))
            if tracer.enabled
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            # Indexing CPU cost (block-granular mapping, the File-Cache tax).
            clock.advance(self.config.cpu_ns_per_block * num_blocks)
            addresses, runs = self._write_blocks(
                self._allocate_with_cleaning(LogStream.HOT_DATA, num_blocks), data
            )
            # The remap, a run at a time: the file's old blocks go stale,
            # then the new ones become valid and stamp their sections
            # (one write tick per block, the section stamped with the
            # last — _note_section_written, in line).
            per_section = layout.blocks_per_section
            stale = nat.set_blocks(file_id, first_block, addresses)
            for _, block_addr, count in self._section_runs(stale):
                sit.mark_invalid_run(block_addr, count)
            mtime = self._section_mtime
            tick = self._write_tick
            for index, block_addr, count in runs:
                sit.mark_valid_run(block_addr, count, file_id, first_block + index)
                tick += count
                mtime[block_addr // per_section] = tick
            self._write_tick = tick
            nat.update_size(file_id, offset + len(data))
            per_node = self.config.blocks_per_node
            for group in range(first_block // per_node, (end_block - 1) // per_node + 1):
                self._write_node_block(file_id, group)
            self.stats.host_write_bytes += len(data)
            self._note_meta_updates(num_blocks)
            self._blocks_since_checkpoint += num_blocks
            if self._blocks_since_checkpoint >= self.config.checkpoint_interval_blocks:
                self.checkpoint()
            try:
                self.reclaim.background_step()
            except PowerCutError:
                raise
            except RetryableError:
                # Background cleaning hit a transient device error; the
                # cleaner re-queued the block and will retry next step.
                self.stats.io_retries += 1
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        return clock.now - start_ns

    def pread(self, file_id: int, offset: int, length: int) -> bytes:
        """Block-aligned read; unmapped blocks (holes) read as zeros."""
        self._require_formatted()
        block_size = self.layout.block_size
        if offset % block_size or length % block_size:
            raise AlignmentError(
                f"pread (offset={offset}, len={length}) must be "
                f"{block_size}B-aligned"
            )
        if length <= 0:
            return b""
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("f2fs", "pread", offset=offset, length=length):
                chunks = self._read_runs(file_id, offset, length)
        else:
            chunks = self._read_runs(file_id, offset, length)
        self.stats.host_read_bytes += length
        return chunks[0] if len(chunks) == 1 else b"".join(chunks)

    # --- internals --------------------------------------------------------------------------

    def _read_runs(self, file_id: int, offset: int, length: int) -> List[bytes]:
        """The bytes of ``[offset, offset + length)`` as one piece per
        run of physically contiguous blocks (or of holes), in file order:
        a walk of the file's NAT map, one device read per mapped run."""
        block_size = self.layout.block_size
        count = length // block_size
        self._clock.now += self.config.cpu_ns_per_block * count
        # Node/NAT lookup touches the metadata device (block-granular
        # indexing is not free — §3.1's "additional mapping overhead").
        self.meta_device.read(0, self.meta_device.block_size)
        block_map = self.nat.block_map(file_id)
        read, device_offset = self.data_device.read, self.layout.device_offset
        chunks: List[bytes] = []
        first = offset // block_size
        end = first + count
        while first < end:
            addr = block_map.get(first)
            run = 1
            if addr is None:
                while first + run < end and block_map.get(first + run) is None:
                    run += 1
                chunks.append(bytes(run * block_size))
            else:
                while first + run < end and block_map.get(first + run) == addr + run:
                    run += 1
                chunks.append(read(device_offset(addr), run * block_size).data)
            first += run
        return chunks

    def _allocate_with_cleaning(self, stream: LogStream, count: int) -> List[int]:
        try:
            return self.logs.allocate_blocks(stream, count)
        except NoSpaceError:
            # Foreground (emergency) cleaning: finish one whole victim
            # now, bounded so a persistently faulting device cannot
            # livelock the write (each retry-triggered early return
            # costs one step).
            if not self.reclaim.collect(
                max_victims=1, max_steps=self.layout.blocks_per_section + 8
            ):
                raise
            return self.logs.allocate_blocks(stream, count)

    def _section_runs(
        self, addresses: Sequence[Optional[int]]
    ) -> List[Tuple[int, int, int]]:
        """``(index, first address, count)`` of every maximal run of
        consecutive block addresses in ``addresses``.

        A run never leaves its section: contiguous addresses may continue
        into the physically adjacent section when a log head rolls over,
        but a zone is only written through its own write pointer and the
        SIT keeps one entry per section.  ``None`` entries (file blocks
        that had no mapping) belong to no run.
        """
        per_section = self.layout.blocks_per_section
        runs: List[Tuple[int, int, int]] = []
        i, total = 0, len(addresses)
        while i < total:
            first = addresses[i]
            j = i + 1
            if first is not None:
                while (
                    j < total
                    and addresses[j] == first + j - i
                    and addresses[j] % per_section
                ):
                    j += 1
                runs.append((i, first, j - i))
            i = j
        return runs

    def _write_blocks(
        self, addresses: List[int], data: memoryview
    ) -> Tuple[List[int], List[Tuple[int, int, int]]]:
        """Write payload to allocated blocks as one batch of per-run
        device writes (on the serial timeline, exactly the cost of one
        write per run); returns the final block addresses in file order
        and their runs, for the remap.  A faulted batch counts the bytes
        that landed (up to the write pointer: a cut's torn prefix too);
        a dead zone retires its section and its run is allocated afresh
        from the hot data log, a transient error retries the run, and
        anything else propagates.  Each fault costs one of eight
        attempts; the ninth raises.
        """
        block_size = self.layout.block_size
        runs = pending = self._section_runs(addresses)
        attempts = 0
        while True:
            items: List[Tuple[int, memoryview]] = []
            written = 0
            for index, block_addr, count in pending:
                payload = data[index * block_size : (index + count) * block_size]
                items.append((block_addr * block_size, payload))
                written += len(payload)
            try:
                self.data_device.write_many(items)
            except DeviceError as error:
                landed = error.landed
                offset = items[landed][0]
                torn = max(0, self.data_device.zone_of(offset).write_pointer - offset)
                self.stats.data_write_bytes += sum(len(p) for _, p in items[:landed]) + torn
                if not isinstance(error, (ZoneDeadError, RetryableError)):
                    raise
                attempts += 1
                if attempts > 8:
                    raise
                pending = pending[landed:]
                if not isinstance(error, ZoneDeadError):
                    self.stats.io_retries += 1
                    continue
                index, block_addr, count = pending[0]
                per_section = self.layout.blocks_per_section
                self.retire_section(block_addr // per_section)
                # Runs still pending on the hot log head's section sit
                # from its write pointer on: the fresh run goes after them,
                # and is written after them.
                head = self.logs.head_of(LogStream.HOT_DATA).section
                skip = sum(
                    n for _, addr, n in pending[1:] if addr // per_section == head
                )
                fresh = self._allocate_with_cleaning(
                    LogStream.HOT_DATA, skip + count
                )[skip:]
                addresses = addresses[:index] + fresh + addresses[index + count :]
                pending = pending[1:] + [
                    (index + i, addr, n) for i, addr, n in self._section_runs(fresh)
                ]
                runs = None
                continue
            self.stats.data_write_bytes += written
            return addresses, runs or self._section_runs(addresses)

    def _write_node_block(self, file_id: int, group: int) -> None:
        """Write (or rewrite) the node block indexing one group of data
        blocks.  Node blocks live in the NODE log on the main area, so
        they contribute to filesystem WA and participate in cleaning."""
        key = (file_id, group)
        sit = self.sit
        old = self._node_addr.get(key)
        if old is not None:
            sit.mark_invalid_run(old, 1)
        payload = b"\x4e" * self.layout.block_size
        # A faulted write moves no write pointer: each attempt allocates
        # again, a dead zone's section retired first.
        for _ in range(8):
            addr = self._allocate_with_cleaning(LogStream.NODE, 1)[0]
            try:
                self.data_device.write(self.layout.device_offset(addr), payload)
                break
            except PowerCutError:
                raise
            except ZoneDeadError as error:
                last_error = error
                self.retire_section(self.layout.section_of_block(addr))
            except RetryableError as error:
                last_error = error
                self.stats.io_retries += 1
        else:
            raise last_error
        self.stats.data_write_bytes += self.layout.block_size
        # Node ownership is encoded with a negative file id so the cleaner
        # can tell node blocks from data blocks.
        sit.mark_valid_run(addr, 1, -file_id, group)
        self._node_addr[key] = addr
        self._note_section_written(addr // self.layout.blocks_per_section)

    def _note_section_written(self, section: int, blocks: int = 1) -> None:
        """Track write recency for the cost-benefit policy: one tick per
        block written, the section stamped with the last."""
        self._write_tick += blocks
        self._section_mtime[section] = self._write_tick

    def _migrate_block(self, block_addr: int) -> None:
        """Cleaning: relocate one valid block to the cold log."""
        owner = self.sit.owner_of(block_addr)
        file_id, file_block = owner
        if file_id < 0:
            self._migrate_node_block(block_addr, -file_id, file_block)
            return
        device_offset = self.layout.device_offset(block_addr)
        try:
            payload = self.data_device.read(device_offset, self.layout.block_size).data
        except ZoneDeadError:
            # The victim's media died under the cleaner: the block's
            # bytes are gone.  Drop it so cleaning can finish the section.
            self.sit.mark_invalid(block_addr)
            return
        new_addr = self._write_migration_block(LogStream.COLD_DATA, payload)
        self.stats.data_write_bytes += self.layout.block_size
        self.sit.mark_invalid(block_addr)
        self.nat.set_block(file_id, file_block, new_addr)
        self.sit.mark_valid(new_addr, owner)
        self._note_meta_updates(1)

    def _drop_block(self, block_addr: int) -> None:
        """Cleaning under §3.4 hints: unmap one condemned
        data block without copying it — SIT invalidate plus NAT unmap,
        one metadata update, zero data-device I/O."""
        file_id, file_block = self.sit.owner_of(block_addr)
        self.sit.mark_invalid(block_addr)
        if file_id > 0:
            self.nat.clear_block(file_id, file_block)
        self._note_meta_updates(1)

    def _write_migration_block(self, stream: LogStream, payload: bytes) -> int:
        """Land one cleaning-migration block, retiring dead target zones.

        Transient errors propagate to the cleaner, which re-queues the
        source block: faults gate before state, so the write pointer
        has not moved.
        """
        for _ in range(4):
            new_addr = self.logs.allocate_blocks(stream, 1)[0]
            try:
                self.data_device.write(self.layout.device_offset(new_addr), payload)
                return new_addr
            except ZoneDeadError as error:
                last_error = error
                self.retire_section(self.layout.section_of_block(new_addr))
        raise last_error

    def _migrate_node_block(self, block_addr: int, file_id: int, group: int) -> None:
        """Relocate a node block during cleaning (SIT + node map update)."""
        try:
            payload = self.data_device.read(
                self.layout.device_offset(block_addr), self.layout.block_size
            ).data
        except ZoneDeadError:
            # Node block lost with its zone; drop it (it will be
            # rewritten the next time its data group is updated).
            self.sit.mark_invalid(block_addr)
            self._node_addr.pop((file_id, group), None)
            return
        new_addr = self._write_migration_block(LogStream.NODE, payload)
        self.stats.data_write_bytes += self.layout.block_size
        self.sit.mark_invalid(block_addr)
        self.sit.mark_valid(new_addr, (-file_id, group))
        self._node_addr[(file_id, group)] = new_addr
        self._note_meta_updates(1)

    def retire_section(self, section: int) -> None:
        """Take a dead zone's section permanently out of service."""
        if self.logs.is_retired(section):
            return
        self.logs.retire_section(section)
        self.stats.dead_sections += 1
        self.tracer.emit_event("f2fs.fault", "retire_section", zone=section)

    def _reset_section_zone(self, section: int) -> None:
        """Cleaning: a fully-migrated section maps to a zone reset."""
        for _ in range(5):
            try:
                self.data_device.reset_zone(section)
                return
            except PowerCutError:
                raise
            except ZoneDeadError:
                # The victim died before its reset: keep it out of the
                # free pool instead of handing out an unresettable zone.
                self.retire_section(section)
                return
            except RetryableError:
                self.stats.io_retries += 1
        # The reset never landed; reusing an unreset zone would wedge the
        # write pointer, so retire the section defensively.
        self.retire_section(section)

    def _note_meta_updates(self, count: int) -> None:
        """Batch NAT/SIT journal updates into metadata-device block writes."""
        self._meta_pending_updates += count
        block_size = self.meta_device.block_size
        while self._meta_pending_updates >= self.config.meta_batch_blocks:
            self._meta_pending_updates -= self.config.meta_batch_blocks
            self._write_meta_block(b"\xA5" * block_size)

    def _write_meta_block(self, payload: bytes) -> None:
        block_size = self.meta_device.block_size
        capacity_blocks = self.meta_device.capacity_bytes // block_size
        # Journal area wraps within the metadata device after the superblock
        # and checkpoint region (first 25% of the device).
        journal_start = max(1, capacity_blocks // 4)
        journal_blocks = capacity_blocks - journal_start
        slot = journal_start + (self._meta_cursor_block % journal_blocks)
        self._meta_cursor_block += 1
        self.meta_device.write(slot * block_size, payload)
        self.stats.meta_write_bytes += block_size

    # --- checkpointing ------------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Serialize NAT/SIT/log state to the metadata checkpoint region."""
        self._require_formatted()
        state = {
            "nat": self.nat.to_state(),
            "sit": self.sit.to_state(),
            "logs": self.logs.to_state(),
            "nodes": {f"{fid}:{grp}": addr for (fid, grp), addr in self._node_addr.items()},
        }
        blob = pickle.dumps(state)
        block_size = self.meta_device.block_size
        header = len(blob).to_bytes(8, "little")
        payload = header + blob
        padded_len = -(-len(payload) // block_size) * block_size
        payload = payload.ljust(padded_len, b"\x00")
        checkpoint_offset = block_size  # right after the superblock
        if checkpoint_offset + len(payload) > self.meta_device.capacity_bytes:
            raise NoSpaceError("checkpoint does not fit in the metadata device")
        self.meta_device.write(checkpoint_offset, payload)
        self.stats.meta_write_bytes += len(payload)
        self.stats.checkpoints += 1
        self._blocks_since_checkpoint = 0

    def _restore_checkpoint(self) -> None:
        block_size = self.meta_device.block_size
        header = self.meta_device.read(block_size, block_size).data
        blob_len = int.from_bytes(header[:8], "little")
        if blob_len == 0:
            return  # freshly formatted, nothing checkpointed yet
        total = 8 + blob_len
        padded = -(-total // block_size) * block_size
        raw = self.meta_device.read(block_size, padded).data
        state = pickle.loads(raw[8 : 8 + blob_len])
        self.nat = NodeAddressTable.from_state(state["nat"])
        self.sit = SegmentInfoTable.from_state(
            state["sit"], self.layout.num_sections, self.layout.blocks_per_section
        )
        self.logs = LogManager.from_state(
            state["logs"], self.layout, self.data_device.report_zones()
        )
        self._node_addr = {
            (int(key.split(":")[0]), int(key.split(":")[1])): addr
            for key, addr in state.get("nodes", {}).items()
        }

    def _require_formatted(self) -> None:
        if not self._mkfs_done:
            raise NoSpaceError("filesystem not formatted; call mkfs() first")

    def __repr__(self) -> str:
        return (
            f"F2fs(sections={self.layout.num_sections}, "
            f"usable={self.usable_bytes}, live={self.live_bytes}, "
            f"waf={self.stats.write_amplification:.2f})"
        )
