"""The region-store contract between the cache engine and storage.

The engine only ever:

* rewrites whole regions (``write_region``),
* reads entry ranges within a region (``read``),
* and hints that a region's contents are dead (``invalidate_region``).

That narrow interface is what lets the paper swap a conventional SSD, a
filesystem, raw zones, and a translation layer under an unmodified cache.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import OutOfRangeError, RegionSizeError
from repro.sim.io import IoTracer


@dataclass(frozen=True)
class WafBreakdown:
    """Write amplification at each layer of a scheme's stack.

    ``app`` is amplification added above the device (filesystem cleaning
    or middle-layer GC); ``device`` is the SSD's internal amplification;
    ``total`` is their product — the media wear per byte the cache wrote.
    """

    app: float
    device: float

    @property
    def total(self) -> float:
        return self.app * self.device


@dataclass(frozen=True)
class WafRaw:
    """Raw write counters at one instant (app layer and device layer)."""

    app_host: float
    app_total: float
    dev_host: float
    dev_total: float

    def window_to(self, later: "WafRaw") -> WafBreakdown:
        """WAF over the interval between this snapshot and ``later``."""
        app_host = later.app_host - self.app_host
        app_total = later.app_total - self.app_total
        dev_host = later.dev_host - self.dev_host
        dev_total = later.dev_total - self.dev_total
        return WafBreakdown(
            app=app_total / app_host if app_host > 0 else 1.0,
            device=dev_total / dev_host if dev_host > 0 else 1.0,
        )


class RegionStore(abc.ABC):
    """Backend interface: fixed-size regions addressed by dense ids.

    ``region_size`` is the bytes per region, ``num_regions`` the region
    slots the cache may use, ``block_size`` the alignment of the media
    underneath (ranged reads are widened to it), and ``tracer`` the I/O
    tracer of the stack's device pipeline, so the engine can open spans
    on the same bus its device commands are reported to.
    """

    def __init__(
        self, region_size: int, num_regions: int, block_size: int, tracer: IoTracer
    ) -> None:
        self.region_size = region_size
        self.num_regions = num_regions
        self.tracer = tracer
        self._block_size = block_size

    @abc.abstractmethod
    def write_region(self, region_id: int, payload: bytes) -> int:
        """Overwrite a whole region; returns the I/O latency in ns.

        ``payload`` may be any buffer and is only lent for the call: the
        engine passes a read-only view of its open region buffer and
        refills that buffer afterwards, so implementations copy the
        bytes to media and keep no reference (DESIGN.md, "Page store and
        buffer ownership").
        """

    def read(self, region_id: int, offset: int, length: int) -> bytes:
        """Read an entry range: the one read body of every scheme.

        The range must lie inside the region (a location that does not
        is a bug above, never the neighbour region's bytes).  It is
        widened to device alignment — the read amplification every
        byte-addressed cache pays on a block device — fetched through
        the scheme's :meth:`_read_window` and cut back with one slice.
        """
        end = offset + length
        if (
            not 0 <= region_id < self.num_regions
            or offset < 0
            or length <= 0
            or end > self.region_size
        ):
            raise OutOfRangeError(
                f"read (region={region_id}, offset={offset}, length={length}) "
                f"outside [0, {self.num_regions}) regions of {self.region_size}B"
            )
        block_size = self._block_size
        skip = offset % block_size
        aligned_offset = offset - skip
        aligned_length = end + -end % block_size - aligned_offset
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("backend", "read", offset=offset, length=length):
                data = self._read_window(region_id, aligned_offset, aligned_length)
        else:
            data = self._read_window(region_id, aligned_offset, aligned_length)
        return data[skip : skip + length]

    @abc.abstractmethod
    def _read_window(self, region_id: int, offset: int, length: int) -> bytes:
        """The bytes of a block-aligned window inside a valid region."""

    @abc.abstractmethod
    def invalidate_region(self, region_id: int) -> None:
        """The region's contents are dead (evicted); reclaim eagerly."""

    def waf(self) -> WafBreakdown:
        """Cumulative write-amplification breakdown for this scheme: the
        window from an all-zero snapshot to now (1.0 where nothing was
        written)."""
        return WafRaw(0, 0, 0, 0).window_to(self.waf_raw())

    @abc.abstractmethod
    def waf_raw(self) -> WafRaw:
        """Raw write counters, so callers can compute *windowed* WAF
        (steady-state WAF excludes the population transient)."""

    @property
    def scheme_name(self) -> str:
        """Human-readable scheme label used in benchmark tables."""
        return type(self).__name__

    def check_region_id(self, region_id: int) -> None:
        if not 0 <= region_id < self.num_regions:
            raise OutOfRangeError(
                f"region {region_id} outside [0, {self.num_regions})"
            )

    def check_write(self, region_id: int, payload) -> None:
        """A region write names a valid region and carries exactly one
        region of bytes.  (The flush path tests both in line and calls
        this only to raise.)"""
        self.check_region_id(region_id)
        if len(payload) != self.region_size:
            raise RegionSizeError(
                f"payload must be exactly {self.region_size}B, got {len(payload)}"
            )


def aligned_window(offset: int, length: int, alignment: int) -> tuple[int, int, int]:
    """Expand (offset, length) to device alignment.

    Returns ``(aligned_offset, aligned_length, slice_start)`` where
    ``slice_start`` is where the requested bytes begin inside the aligned
    read.  The reference for the arithmetic :meth:`RegionStore.read`
    does inline (the tests hold the two together).
    """
    aligned_offset = (offset // alignment) * alignment
    end = offset + length
    aligned_end = -(-end // alignment) * alignment
    return aligned_offset, aligned_end - aligned_offset, offset - aligned_offset
