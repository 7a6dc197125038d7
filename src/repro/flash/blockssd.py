"""Conventional block-interface SSD (the paper's "regular SSD").

Combines :class:`~repro.flash.ftl.PageMappedFtl` with the shared NAND
timing model and an :class:`~repro.sim.io.IoPipeline`.  GC relocation and
erases are charged to the device's serial timeline *before* the host
command that triggered them is serviced, so a host write that lands
during device GC observes the multi-millisecond stall that produces the
paper's Block-Cache P99 spike (Figure 5d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError, DeviceError
from repro.flash.device import BlockDevice, DeviceStats, check_alignment
from repro.flash.ftl import FtlConfig, PageMappedFtl
from repro.flash.nand import NandGeometry, NandTiming
from repro.flash.pagestore import PageStore
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.io import IoCompletion, IoPipeline, IoTracer


@dataclass(frozen=True)
class BlockSsdConfig:
    """Bundle of geometry, timing and FTL settings for a block SSD.

    ``ftl_cpu_ns_per_page`` models the controller work a page-mapped FTL
    does per host page (mapping lookup/update, wear accounting) — the
    paper credits ZNS SSDs' "simple internal operation logic" for their
    more stable performance, so the zoned device does not pay this.
    """

    geometry: NandGeometry = field(default_factory=NandGeometry)
    timing: NandTiming = field(default_factory=NandTiming)
    ftl: FtlConfig = field(default_factory=FtlConfig)
    ftl_cpu_ns_per_page: int = 4_000
    # Periodic internal housekeeping (wear levelling, read-disturb
    # scrubbing, background GC passes): for every
    # ``maintenance_interval_bytes`` of host writes the controller
    # occupies the media for ``maintenance_ns``.  This "uncontrollable
    # internal GC" is invisible at P50 but is exactly the regular-SSD
    # tail-latency source the paper highlights (§2.3, Figure 5d).  ZNS
    # SSDs have no equivalent ("simple internal operation logic").
    maintenance_interval_bytes: int = 4 * 1024 * 1024
    maintenance_ns: int = 12_000_000

    def __post_init__(self) -> None:
        # maintenance_interval_bytes == 0 turns housekeeping off.
        for name in (
            "ftl_cpu_ns_per_page", "maintenance_interval_bytes", "maintenance_ns"
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


class BlockSsd(BlockDevice):
    """Page-mapped conventional SSD with over-provisioning and device GC."""

    def __init__(
        self,
        clock: SimClock,
        config: BlockSsdConfig = BlockSsdConfig(),
        tracer: Optional[IoTracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._clock = clock
        self.config = config
        self._ftl = PageMappedFtl(config.geometry, config.ftl)
        self.pipeline = IoPipeline(clock, "blockssd", tracer, faults=faults)
        self._stats = DeviceStats()
        self.media = PageStore()  # logical (LBA-space) contents
        self._bytes_since_maintenance = 0
        self._page_size = config.geometry.page_size
        self._capacity = self._ftl.logical_capacity_bytes
        # NAND timing plus FTL CPU is a pure function of the transfer
        # length, and the hot path re-reads a handful of window sizes.
        self._read_ns: Dict[int, int] = {}
        self._write_ns: Dict[int, int] = {}

    # --- BlockDevice interface -------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._ftl.logical_capacity_bytes

    @property
    def block_size(self) -> int:
        return self.config.geometry.page_size

    @property
    def stats(self) -> DeviceStats:
        return self._stats

    @property
    def ftl(self) -> PageMappedFtl:
        """The FTL, exposed for inspection in tests and benchmarks."""
        return self._ftl

    def read(self, offset: int, length: int) -> IoCompletion:
        check_alignment(offset, length, self._page_size, self._capacity)
        service = self._read_ns.get(length)
        if service is None:
            count = length // self._page_size
            service = self._read_ns[length] = self.config.timing.read_ns(
                count, length, self.config.geometry.parallelism
            ) + self.config.ftl_cpu_ns_per_page * count
        completion = self.pipeline.charge_foreground(
            "block", "read", offset, length, service
        )
        stats = self._stats
        stats.host_read_bytes += length
        stats.media_read_bytes += length
        stats.read_latency.record(completion.latency_ns)
        completion.data = self.media.load(offset, length)
        return completion

    def write(self, offset: int, data: bytes) -> IoCompletion:
        return self._program(((offset, data),))[0]

    def write_many(self, items: List[Tuple[int, bytes]]) -> List[IoCompletion]:
        """Batch write: one submission, charged back to back."""
        return self._program(items)

    def discard(self, offset: int, length: int) -> IoCompletion:
        """TRIM a range so the FTL stops relocating its dead pages."""
        check_alignment(offset, length, self.block_size, self.capacity_bytes)
        pipeline = self.pipeline
        service = self.config.timing.command_overhead_ns
        if pipeline.faults is not None:
            service += pipeline.inject(
                "discard", offset, length, None, "block", False, service
            )
        page_size = self.config.geometry.page_size
        first = offset // page_size
        count = length // page_size
        self._ftl.discard_pages(range(first, first + count))
        self.media.clear(offset, length)
        return pipeline.charge_foreground(
            "block", "discard", offset, length, service, gated=True
        )

    # --- internals ---------------------------------------------------------------

    def _program(self, items: Iterable[Tuple[int, bytes]]) -> List[IoCompletion]:
        """The one write-side body, ``write`` and ``write_many``.

        Per extent, in order: the fault injector (when armed) sees the
        command before the FTL mutates its mapping, so an injected fault
        leaves the device untouched and the write can be retried; then
        the FTL bookkeeping (mapping updates, GC triggers, maintenance
        debt), whose GC/maintenance reservations land on the timeline
        first, exactly as a lone write's do.  Only then is the batch
        charged, all at one instant — which on the serial timeline is a
        loop of single writes bit for bit.  Extents before one that
        raises are charged first (:attr:`~repro.errors.DeviceError.landed`).
        """
        faults = self.pipeline.faults
        page_size, capacity = self._page_size, self._capacity
        landed: List[Tuple[int, int, int]] = []
        # For torn-write modelling the extents service back-to-back, so
        # extent k's media window starts after the preceding services.
        ahead_ns = 0
        try:
            for k, (offset, data) in enumerate(items):
                length = len(data)
                if (
                    offset % page_size
                    or length % page_size
                    or length <= 0
                    or offset < 0
                    or offset + length > capacity
                ):
                    check_alignment(offset, length, page_size, capacity)  # raises
                service = self._write_ns.get(length)
                if service is None:
                    service = self._write_service_ns(offset, length)
                extra_ns = 0
                if faults is not None:
                    extra_ns = self.pipeline.inject(
                        "write", offset, length, None, "block", False, service
                    )
                    self._maybe_tear(offset, data, service, ahead_ns, landed)
                self._store_pages(offset, data)
                landed.append((offset, length, service + extra_ns))
                ahead_ns += service
        except DeviceError as error:
            self._charge_writes(landed)
            error.landed = k
            raise
        return self._charge_writes(landed)

    def _charge_writes(
        self, landed: List[Tuple[int, int, int]]
    ) -> List[IoCompletion]:
        """Charge landed ``(offset, length, service_ns)`` extents as one
        batch; the clock moves to the last completion."""
        clock = self._clock
        now = barrier = clock.now
        charge, recorder = self.pipeline.charge, self._stats.write_latency
        completions: List[IoCompletion] = []
        for offset, length, service in landed:
            done = charge(
                "block", "write", offset, length, None, False, now, service,
                gated=True,
            )
            recorder._samples.append(done - now)
            recorder._sorted = None
            barrier = max(barrier, done)
            completions.append(IoCompletion(done - now))
        clock.now = barrier
        return completions

    def _maybe_tear(
        self,
        offset: int,
        data: bytes,
        service_ns: int,
        ahead_ns: int,
        landed: List[Tuple[int, int, int]],
    ) -> None:
        """Power-cut landing inside this write's media window (it opens
        ``ahead_ns`` from now): persist the page-aligned prefix, charge
        (and empty) ``landed``, and raise."""
        faults = self.pipeline.faults
        keep = faults.torn_write_bytes(
            self._clock.now + ahead_ns, service_ns, len(data), self._page_size
        )
        if keep is None:
            return
        if keep:
            self._store_pages(offset, data[:keep])
        self._charge_writes(landed)
        landed.clear()
        faults.trip_power()

    def _store_pages(self, offset: int, data: bytes) -> None:
        """FTL mapping update + page store + background GC/maintenance debt."""
        page_size = self.config.geometry.page_size
        first = offset // page_size
        count = len(data) // page_size
        report = self._ftl.write_pages(range(first, first + count))
        self.media.store(offset, data)
        # Background GC work the FTL had to do occupies the device first;
        # the host write then queues behind it.
        moved_pages = report.moved_pages
        if moved_pages or report.erased_blocks:
            gc_service = self.config.timing.read_ns(
                report.moved_pages,
                report.moved_pages * page_size,
                self.config.geometry.parallelism,
            ) + self.config.timing.program_ns(
                report.moved_pages,
                report.moved_pages * page_size,
                self.config.geometry.parallelism,
            ) + self.config.timing.erase_ns(report.erased_blocks)
            moved_bytes = report.moved_pages * page_size
            pipeline = self.pipeline
            tracer = pipeline.tracer
            if tracer.enabled:
                with tracer.span(
                    "reclaim.ftl", "migrate", offset=offset, length=moved_bytes
                ):
                    pipeline.charge(
                        "ftl.gc", "gc", offset, moved_bytes, None, True,
                        self._clock.now, gc_service,
                    )
            else:
                pipeline.charge(
                    "ftl.gc", "gc", offset, moved_bytes, None, True,
                    self._clock.now, gc_service,
                )
            # The host write queues behind this GC burst: charge it as
            # foreground stall so gc_stall_us_p99 covers device GC too.
            self._ftl.reclaim.stats.stall.record(gc_service)
            self._stats.media_read_bytes += moved_bytes
            self._stats.gc_runs += report.gc_runs
        self._note_host_write(len(data))
        stats = self._stats
        stats.host_write_bytes += len(data)
        stats.media_write_bytes += report.media_pages * page_size
        stats.erase_count += report.erased_blocks

    def _write_service_ns(self, offset: int, length: int) -> int:
        service = self._write_ns.get(length)
        if service is None:
            count = length // self._page_size
            service = self._write_ns[length] = self.config.timing.program_ns(
                count, length, self.config.geometry.parallelism
            ) + self.config.ftl_cpu_ns_per_page * count
        return service

    def _note_host_write(self, num_bytes: int) -> None:
        """Accrue background maintenance debt proportional to write load."""
        if self.config.maintenance_interval_bytes <= 0:
            return
        self._bytes_since_maintenance += num_bytes
        while self._bytes_since_maintenance >= self.config.maintenance_interval_bytes:
            self._bytes_since_maintenance -= self.config.maintenance_interval_bytes
            self.pipeline.charge(
                "ftl", "maintenance", 0, 0, None, True, self._clock.now,
                self.config.maintenance_ns,
            )

    def __repr__(self) -> str:
        return (
            f"BlockSsd(capacity={self.capacity_bytes}, "
            f"op={self.config.ftl.op_ratio:.0%}, waf={self._stats.write_amplification:.2f})"
        )
