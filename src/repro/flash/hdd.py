"""Mechanical hard-drive model (the paper's Seagate ST6000NM0115).

The end-to-end RocksDB experiment (§4.2) keeps the database on an HDD so
that secondary-cache hit ratio dominates throughput — an HDD miss costs
milliseconds while a flash-cache hit costs microseconds.  The model
captures exactly what matters for that experiment: seek distance,
rotational latency, sequential-access detection, and transfer rate.

The actuator is modelled as the device's :class:`~repro.sim.io.ResourcePool`
— a single mechanical arm, so the pool stays serial regardless of the
configured channel count (an HDD cannot overlap seeks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flash.device import BlockDevice, DeviceStats, check_alignment
from repro.flash.pagestore import PageStore
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.io import IoCompletion, IoPipeline, IoTracer, PoolConfig
from repro.sim.rng import make_rng
from repro.units import GIB, KIB, msec


@dataclass(frozen=True)
class HddConfig:
    """7200 RPM enterprise-drive parameters."""

    capacity_bytes: int = 4 * GIB
    block_size: int = 4 * KIB
    avg_seek_ns: int = msec(4.2)
    full_stroke_seek_ns: int = msec(9.0)
    rotation_ns: int = msec(8.33)  # 7200 RPM
    transfer_bytes_per_ns: float = 0.2  # ~200 MB/s sustained
    sequential_window: int = 256 * KIB

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.capacity_bytes % self.block_size:
            raise ValueError("capacity must be a positive multiple of block_size")


class HddDevice(BlockDevice):
    """Seek + rotation + transfer latency model over a RAM data store."""

    def __init__(
        self,
        clock: SimClock,
        config: HddConfig = HddConfig(),
        seed: int = 7,
        tracer: Optional[IoTracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._clock = clock
        self.config = config
        self._stats = DeviceStats()
        # Sparse: the default 4 GiB platter only ever holds written chunks.
        self.media = PageStore()
        # One actuator: always a serial pool, whatever the scheme's
        # io PoolConfig says about its flash devices.
        self.pipeline = IoPipeline(clock, "hdd", PoolConfig(), tracer, faults=faults)
        self._head_pos = 0
        self._rng = make_rng(seed, "hdd.rotation")

    @property
    def capacity_bytes(self) -> int:
        return self.config.capacity_bytes

    @property
    def block_size(self) -> int:
        return self.config.block_size

    @property
    def stats(self) -> DeviceStats:
        return self._stats

    def read(self, offset: int, length: int) -> IoCompletion:
        check_alignment(offset, length, self.block_size, self.capacity_bytes)
        completion = self.pipeline.charge_foreground(
            "hdd", "read", offset, length, self._service_ns(offset, length)
        )
        self._stats.host_read_bytes += length
        self._stats.media_read_bytes += length
        self._stats.read_latency.record(completion.latency_ns)
        completion.data = self.media.load(offset, length)
        return completion

    def write(self, offset: int, data: bytes) -> IoCompletion:
        length = len(data)
        check_alignment(offset, length, self.block_size, self.capacity_bytes)
        # The fault injector sees the command before any byte moves (the
        # arm has moved by then).
        completion = self.pipeline.charge_foreground(
            "hdd", "write", offset, length, self._service_ns(offset, length)
        )
        self.media.store(offset, data)
        self._stats.host_write_bytes += length
        self._stats.media_write_bytes += length
        self._stats.write_latency.record(completion.latency_ns)
        return completion

    # --- internals ---------------------------------------------------------------

    def _service_ns(self, offset: int, length: int) -> int:
        """Mechanical positioning plus transfer, serialized on the actuator."""
        cfg = self.config
        distance = abs(offset - self._head_pos)
        if distance <= cfg.sequential_window:
            positioning = 0
        else:
            # Seek time grows with the square root of distance (classic model),
            # plus a uniformly random rotational delay.
            frac = min(1.0, distance / cfg.capacity_bytes)
            seek = cfg.avg_seek_ns + int(
                (cfg.full_stroke_seek_ns - cfg.avg_seek_ns) * (frac ** 0.5)
            )
            rotation = int(self._rng.random() * cfg.rotation_ns)
            positioning = seek + rotation
        transfer = int(length / cfg.transfer_bytes_per_ns)
        self._head_pos = offset + length
        return positioning + transfer
