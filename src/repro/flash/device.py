"""Abstract device interfaces and common statistics.

Two interfaces exist, mirroring the two device classes in the paper:

* :class:`BlockDevice` — random-access read/write at byte offsets
  (aligned to the logical block size).  Implemented by
  :class:`~repro.flash.BlockSsd`, :class:`~repro.flash.NullBlkDevice`,
  and :class:`~repro.flash.HddDevice`.
* Zoned devices expose the richer zone command set directly on
  :class:`~repro.flash.ZnsSsd` (read/write/append/reset/finish/open/
  close); there is no pretence of a common superclass because the whole
  point of the paper is that the interfaces differ.

Every implementation routes its media traffic through a
:class:`~repro.sim.io.IoPipeline` and returns the pipeline's typed
:class:`~repro.sim.io.IoCompletion` records (which replaced the old bare
``IoResult``).  All implementations share :class:`DeviceStats` so write
amplification (``media_write_bytes / host_write_bytes``) is computed
uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.io import IoCompletion, IoPipeline, IoTracer
from repro.sim.stats import LatencyRecorder


@dataclass
class DeviceStats:
    """Uniform accounting for every simulated device."""

    host_read_bytes: int = 0
    host_write_bytes: int = 0
    media_write_bytes: int = 0
    media_read_bytes: int = 0
    erase_count: int = 0
    gc_runs: int = 0
    read_latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("device.read")
    )
    write_latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("device.write")
    )

    @property
    def write_amplification(self) -> float:
        """Device-level WA factor; 1.0 when the device has seen no writes."""
        if self.host_write_bytes == 0:
            return 1.0
        return self.media_write_bytes / self.host_write_bytes

    def snapshot(self) -> Dict[str, float]:
        """Summary dict used by the benchmark reports."""
        return {
            "host_read_bytes": self.host_read_bytes,
            "host_write_bytes": self.host_write_bytes,
            "media_write_bytes": self.media_write_bytes,
            "media_read_bytes": self.media_read_bytes,
            "erase_count": self.erase_count,
            "gc_runs": self.gc_runs,
            "write_amplification": self.write_amplification,
            "read_p99_ns": self.read_latency.p99(),
            "write_p99_ns": self.write_latency.p99(),
        }


class BlockDevice(abc.ABC):
    """Random-access block device: read/write anywhere, device hides GC."""

    # Every concrete device assigns its IoPipeline here in __init__.
    pipeline: IoPipeline

    @property
    @abc.abstractmethod
    def capacity_bytes(self) -> int:
        """Usable (exported) capacity in bytes."""

    @property
    @abc.abstractmethod
    def block_size(self) -> int:
        """Required I/O alignment in bytes."""

    @property
    @abc.abstractmethod
    def stats(self) -> DeviceStats:
        """Cumulative device statistics."""

    @abc.abstractmethod
    def read(self, offset: int, length: int) -> IoCompletion:
        """Read ``length`` bytes at ``offset``.  Unwritten space reads as zeros."""

    @abc.abstractmethod
    def write(self, offset: int, data: bytes) -> IoCompletion:
        """Write ``data`` at ``offset`` (must be block-aligned)."""

    def write_many(self, items: List[Tuple[int, bytes]]) -> List[IoCompletion]:
        """Write several extents as one submission batch.

        The default is a synchronous loop; devices whose pipeline can
        overlap commands override this to charge the whole batch at one
        instant (:meth:`~repro.sim.io.IoPipeline.charge`), pipelined
        across channels.
        """
        return [self.write(offset, data) for offset, data in items]

    @property
    def tracer(self) -> IoTracer:
        """The tracer shared by this device's pipeline."""
        return self.pipeline.tracer


def check_alignment(offset: int, length: int, block_size: int, capacity: int) -> None:
    """Validate a block-device I/O; raises the library's typed errors."""
    from repro.errors import AlignmentError, OutOfRangeError

    if offset % block_size != 0 or length % block_size != 0:
        raise AlignmentError(
            f"I/O (offset={offset}, length={length}) not aligned to {block_size}B"
        )
    if length <= 0:
        raise AlignmentError(f"I/O length must be positive, got {length}")
    if offset < 0 or offset + length > capacity:
        raise OutOfRangeError(
            f"I/O (offset={offset}, length={length}) exceeds capacity {capacity}"
        )
