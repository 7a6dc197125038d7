"""RAM-backed block device, standing in for Linux ``nullblk``.

The paper's F2FS setup places the filesystem's conventional metadata
area on a 6 GiB nullblk device because F2FS on a purely zoned device has
nowhere to put randomly-updated metadata.  This simulator mirrors that:
constant sub-NAND latency, no write amplification, no GC.
"""

from __future__ import annotations

from typing import Optional

from repro.flash.device import BlockDevice, DeviceStats, check_alignment
from repro.flash.pagestore import PageStore
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.io import IoCompletion, IoPipeline, IoTracer, PoolConfig
from repro.units import KIB, MIB, usec


class NullBlkDevice(BlockDevice):
    """Flat RAM block device with constant per-I/O latency."""

    def __init__(
        self,
        clock: SimClock,
        capacity_bytes: int = 64 * MIB,
        block_size: int = 4 * KIB,
        latency_ns: int = usec(12),
        tracer: Optional[IoTracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if capacity_bytes <= 0 or capacity_bytes % block_size != 0:
            raise ValueError(
                f"capacity {capacity_bytes} must be a positive multiple of "
                f"block_size {block_size}"
            )
        self._clock = clock
        self._capacity = capacity_bytes
        self._block_size = block_size
        self._latency_ns = latency_ns
        self._stats = DeviceStats()
        self.media = PageStore()
        self.pipeline = IoPipeline(clock, "nullblk", PoolConfig(), tracer, faults=faults)

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def stats(self) -> DeviceStats:
        return self._stats

    def read(self, offset: int, length: int) -> IoCompletion:
        check_alignment(offset, length, self._block_size, self._capacity)
        completion = self.pipeline.charge_foreground(
            "nullblk", "read", offset, length, self._latency_ns
        )
        stats = self._stats
        stats.host_read_bytes += length
        stats.media_read_bytes += length
        stats.read_latency.record(completion.latency_ns)
        completion.data = self.media.load(offset, length)
        return completion

    def write(self, offset: int, data: bytes) -> IoCompletion:
        length = len(data)
        check_alignment(offset, length, self._block_size, self._capacity)
        # The fault injector sees the command before any byte moves.
        completion = self.pipeline.charge_foreground(
            "nullblk", "write", offset, length, self._latency_ns
        )
        self.media.store(offset, data)
        stats = self._stats
        stats.host_write_bytes += length
        stats.media_write_bytes += length
        stats.write_latency.record(completion.latency_ns)
        return completion
