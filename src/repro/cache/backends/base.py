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

from repro.errors import OutOfRangeError
from repro.sim.io import NULL_TRACER, IoTracer


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
    """Backend interface: fixed-size regions addressed by dense ids."""

    @property
    @abc.abstractmethod
    def region_size(self) -> int:
        """Bytes per region."""

    @property
    @abc.abstractmethod
    def num_regions(self) -> int:
        """Number of region slots the cache may use."""

    @abc.abstractmethod
    def write_region(self, region_id: int, payload: bytes) -> int:
        """Overwrite a whole region; returns the I/O latency in ns.

        ``payload`` may be any buffer and is only lent for the call: the
        engine passes a read-only view of its open region buffer and
        refills that buffer afterwards, so implementations copy the
        bytes to media and keep no reference (DESIGN.md, "Page store and
        buffer ownership").
        """

    @abc.abstractmethod
    def read(self, region_id: int, offset: int, length: int) -> bytes:
        """Read an entry range; implementations handle device alignment."""

    @abc.abstractmethod
    def invalidate_region(self, region_id: int) -> None:
        """The region's contents are dead (evicted); reclaim eagerly."""

    @abc.abstractmethod
    def waf(self) -> WafBreakdown:
        """Cumulative write-amplification breakdown for this scheme."""

    @abc.abstractmethod
    def waf_raw(self) -> "WafRaw":
        """Raw write counters, so callers can compute *windowed* WAF
        (steady-state WAF excludes the population transient)."""

    @property
    def scheme_name(self) -> str:
        """Human-readable scheme label used in benchmark tables."""
        return type(self).__name__

    @property
    def tracer(self) -> IoTracer:
        """The I/O tracer of this store's stack (never-recording default).

        Backends with a real device underneath override this to expose
        the device pipeline's tracer, so the engine can open spans on the
        same bus its device commands are reported to.
        """
        return NULL_TRACER

    def check_region_id(self, region_id: int) -> None:
        if not 0 <= region_id < self.num_regions:
            raise OutOfRangeError(
                f"region {region_id} outside [0, {self.num_regions})"
            )


def aligned_window(offset: int, length: int, alignment: int) -> tuple[int, int, int]:
    """Expand (offset, length) to device alignment.

    Returns ``(aligned_offset, aligned_length, slice_start)`` where
    ``slice_start`` is where the requested bytes begin inside the aligned
    read — this is the read-amplification every byte-addressed cache pays
    on a block device.
    """
    aligned_offset = (offset // alignment) * alignment
    end = offset + length
    aligned_end = -(-end // alignment) * alignment
    return aligned_offset, aligned_end - aligned_offset, offset - aligned_offset
