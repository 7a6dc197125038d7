"""Zoned Namespace SSD simulator.

The ZNS device shares the NAND geometry/timing of the block SSD but
replaces the FTL with the zone interface: sequential writes at each
zone's write pointer, zone append, reset, finish, and explicit
open/close with max-open / max-active limits.  Because the host performs
all cleaning, the device never relocates data — ``media_write_bytes``
always equals ``host_write_bytes`` and device WA is exactly 1.0, the
property the paper's Zone-Cache exploits (§3.2).

All media traffic flows through an :class:`~repro.sim.io.IoPipeline`;
``read_many``/``write_many`` expose batched submission so the ZTL's GC
copy loop and region flushes pipeline across pool channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    AlignmentError,
    OutOfRangeError,
    ZoneDeadError,
    ZoneResourceError,
    ZoneStateError,
)
from repro.flash.device import DeviceStats
from repro.flash.nand import NandGeometry, NandTiming
from repro.flash.pagestore import PageStore
from repro.flash.zone import Zone, ZoneCostConfig, ZoneMgmtStats, ZoneState
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector, FaultKind
from repro.sim.io import (
    IoCompletion,
    IoOp,
    IoPipeline,
    IoRequest,
    IoTracer,
    PoolConfig,
    TraceRecord,
)


@dataclass(frozen=True)
class ZnsConfig:
    """ZNS device shape.

    ``zone_size`` must be a multiple of the NAND block size; the WD ZN540
    in the paper has 904 zones of 1077 MiB — scaled geometries preserve
    the zone:region:cache ratios instead of the absolute sizes.
    """

    geometry: NandGeometry = field(default_factory=NandGeometry)
    timing: NandTiming = field(default_factory=NandTiming)
    zone_size: int = 0  # 0 → derive: 16 NAND blocks per zone
    max_open_zones: int = 14
    max_active_zones: int = 14
    # Per-transition service costs; all-zero default keeps the historical
    # free-transition model (and every golden) bit-identical.
    zone_costs: ZoneCostConfig = field(default_factory=ZoneCostConfig)

    def resolved_zone_size(self) -> int:
        if self.zone_size:
            return self.zone_size
        return 16 * self.geometry.block_size


class ZnsSsd:
    """ZNS SSD exposing the zone command set over simulated NAND."""

    def __init__(
        self,
        clock: SimClock,
        config: ZnsConfig = ZnsConfig(),
        io: PoolConfig = PoolConfig(),
        tracer: Optional[IoTracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._clock = clock
        self.config = config
        zone_size = config.resolved_zone_size()
        if zone_size % config.geometry.block_size != 0:
            raise ValueError(
                f"zone_size {zone_size} is not a multiple of the NAND block "
                f"size {config.geometry.block_size}"
            )
        if config.max_open_zones < 1 or config.max_active_zones < config.max_open_zones:
            raise ValueError("need max_active_zones >= max_open_zones >= 1")
        self.zone_size = zone_size
        self.num_zones = config.geometry.total_bytes // zone_size
        if self.num_zones < 1:
            raise ValueError("geometry too small for even one zone")
        self.zones: List[Zone] = [
            Zone(index=i, start=i * zone_size, size=zone_size)
            for i in range(self.num_zones)
        ]
        self.pipeline = IoPipeline(clock, "znsssd", io, tracer, faults=faults)
        # Plain attribute (not a property): the cache engine and the ZTL
        # read this once per operation on the hot path.
        self.tracer = self.pipeline.tracer
        self._stats = DeviceStats()
        self.zone_mgmt = ZoneMgmtStats()
        self._zone_costs = config.zone_costs
        # LRU clock over open zones: bumped on every write/append/open so
        # the forced-close victim is the least-recently-written open zone.
        self._open_touch: Dict[int, int] = {}
        self._touch_tick = 0
        self.media = PageStore()
        self._page_size = config.geometry.page_size
        self._capacity_bytes = self.num_zones * zone_size
        # NAND timing is a pure function of the transfer length, and the
        # hot path re-reads a handful of window sizes over and over.
        self._read_ns_cache: Dict[int, int] = {}
        self._write_ns_cache: Dict[int, int] = {}

    # --- capacity / bookkeeping ---------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Full media capacity: ZNS exports everything (no OP), per §2.2."""
        return self._capacity_bytes

    @property
    def block_size(self) -> int:
        """Write granularity (one NAND page)."""
        return self.config.geometry.page_size

    @property
    def stats(self) -> DeviceStats:
        return self._stats

    @property
    def open_zone_count(self) -> int:
        return sum(1 for z in self.zones if z.is_open)

    @property
    def active_zone_count(self) -> int:
        return sum(1 for z in self.zones if z.is_active)

    def zone_of(self, offset: int) -> Zone:
        """Zone containing byte ``offset``."""
        if not 0 <= offset < self.capacity_bytes:
            raise OutOfRangeError(f"offset {offset} outside device of {self.capacity_bytes}B")
        return self.zones[offset // self.zone_size]

    def report_zones(self) -> List[Zone]:
        """The zone list (live objects), like a ZNS Zone Management Receive."""
        return self.zones

    # --- I/O -----------------------------------------------------------------------

    def read(self, offset: int, length: int, background: bool = False) -> IoCompletion:
        """Random read; unwritten space reads back as zeros.

        ``background=True`` models an internal housekeeping thread (e.g.
        the middle layer's GC): the transfer occupies the device pool
        — later foreground commands queue behind it — but the caller is
        not blocked and the shared clock does not advance.
        """
        pipeline = self.pipeline
        if pipeline.faults is None and not background:
            # Fast path: no fault gate, foreground — arithmetically
            # identical to the submit() path below but without building
            # an IoRequest or walking dispatch frames.  Traced and
            # untraced reads both run it; tracing only adds the record.
            self._check_readable(offset, length)
            data = self._load(offset, length)
            service_ns = self._read_service_ns(length)
            clock = self._clock
            now = clock.now
            done, wait, channel = pipeline.pool.acquire(now, service_ns, offset)
            if done > clock.now:
                clock.now = done
            stats = self._stats
            recorder = stats.read_latency
            recorder._samples.append(done - now)
            recorder._sorted = None
            stats.host_read_bytes += length
            stats.media_read_bytes += length
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(
                    TraceRecord(
                        tracer.allocate_id(), tracer.current_parent, "zns", "read",
                        offset, length, None, False, now, done, wait, service_ns,
                        channel,
                    )
                )
            return IoCompletion(
                latency_ns=done - now,
                data=data,
                submitted_ns=now,
                started_ns=done - service_ns,
                completed_ns=done,
                wait_ns=wait,
                service_ns=service_ns,
                channel=channel,
            )
        self._poll_zone_faults()
        self._check_readable(offset, length)
        data = self._load(offset, length)
        completion = self.pipeline.submit(
            IoRequest(IoOp.READ, offset, length, layer="zns", background=background),
            self._read_service_ns(length),
        )
        if not background:
            self._stats.read_latency.record(completion.latency_ns)
        self._stats.host_read_bytes += length
        self._stats.media_read_bytes += length
        completion.data = data
        return completion

    def read_many(
        self, extents: List[Tuple[int, int]], background: bool = False
    ) -> List[IoCompletion]:
        """Batched reads: one submission, overlapped across pool channels."""
        self._poll_zone_faults()
        batch: List[Tuple[IoRequest, int]] = []
        payloads: List[bytes] = []
        for offset, length in extents:
            self._check_readable(offset, length)
            payloads.append(self._load(offset, length))
            batch.append(
                (
                    IoRequest(
                        IoOp.READ, offset, length, layer="zns", background=background
                    ),
                    self._read_service_ns(length),
                )
            )
        completions = self.pipeline.submit_many(batch)
        for completion, (offset, length), data in zip(completions, extents, payloads):
            if not background:
                self._stats.read_latency.record(completion.latency_ns)
            self._stats.host_read_bytes += length
            self._stats.media_read_bytes += length
            completion.data = data
        return completions

    def write(self, offset: int, data: bytes, background: bool = False) -> IoCompletion:
        """Sequential write: must land exactly on the zone's write pointer.

        ``background=True`` behaves as for :meth:`read`: the program time
        is reserved on the device pool without blocking the caller.
        """
        self._poll_zone_faults()
        request, service_ns = self._gate_write(offset, data, background)
        self._prepare_write(offset, data)
        completion = self.pipeline.submit(request, service_ns)
        self._account_write(len(data), completion, background)
        return completion

    def write_many(
        self, items: List[Tuple[int, bytes]], background: bool = False
    ) -> List[IoCompletion]:
        """Batched sequential writes: one submission across pool channels.

        Write-pointer checks and data stores happen per extent, in order,
        before the batch is queued — an invalid extent raises before any
        media time is charged for it.
        """
        self._poll_zone_faults()
        batch: List[Tuple[IoRequest, int]] = []
        stored: List[Tuple[int, bytes]] = []
        # For torn-write modelling the extents service back-to-back, so
        # extent k's media window starts after the preceding services.
        virtual_now = self._clock.now
        for offset, data in items:
            request, service_ns = self._gate_write(
                offset, data, background, virtual_now=virtual_now, batch=batch,
                stored=stored,
            )
            self._prepare_write(offset, data)
            virtual_now += service_ns
            batch.append((request, service_ns))
            stored.append((offset, data))
        completions = self.pipeline.submit_many(batch)
        for completion, (offset, data) in zip(completions, stored):
            self._account_write(len(data), completion, background)
        return completions

    def append(self, zone_index: int, data: bytes) -> "AppendResult":
        """Zone Append: device picks the offset (the current write pointer)."""
        self._poll_zone_faults()
        self._check_zone_index(zone_index)
        self._check_aligned(0, len(data))
        zone = self.zones[zone_index]
        offset = zone.write_pointer
        request = IoRequest(IoOp.APPEND, offset, len(data), zone=zone_index, layer="zns")
        service_ns = self._write_service_ns(len(data))
        self.pipeline.fault_gate(request, service_ns)
        zone.check_writable(offset, len(data))
        self._ensure_open_budget(zone)
        self._note_write_open(zone)
        self._maybe_tear(zone, offset, data, service_ns)
        self.media.store(offset, data)
        zone.advance(len(data))
        completion = self.pipeline.submit(request, service_ns)
        self._account_write(len(data), completion, background=False)
        return AppendResult(
            latency_ns=completion.latency_ns,
            request=completion.request,
            submitted_ns=completion.submitted_ns,
            started_ns=completion.started_ns,
            completed_ns=completion.completed_ns,
            wait_ns=completion.wait_ns,
            service_ns=completion.service_ns,
            channel=completion.channel,
            offset=offset,
        )

    def reset_zone(self, zone_index: int) -> IoCompletion:
        """Reset: discard zone contents, write pointer back to start."""
        self._poll_zone_faults()
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        had_data = zone.written_bytes > 0
        request = IoRequest(IoOp.RESET, zone.start, zone=zone_index, layer="zns")
        self.pipeline.fault_gate(request, self.config.timing.command_overhead_ns)
        zone.reset()
        self.media.clear(zone.start, self.zone_size)
        # The reset command itself is fast; the media erase proceeds in the
        # background and *later* commands queue behind it.
        completion = self.pipeline.submit(
            request,
            self.config.timing.command_overhead_ns + self._zone_costs.reset_ns,
        )
        self.zone_mgmt.resets += 1
        self.zone_mgmt.reset_ns += completion.service_ns
        if had_data:
            blocks = self.zone_size // self.config.geometry.block_size
            self.pipeline.submit(
                IoRequest(
                    IoOp.ERASE,
                    zone.start,
                    self.zone_size,
                    zone=zone_index,
                    layer="zns",
                    background=True,
                ),
                self.config.timing.erase_ns(blocks),
            )
            self._stats.erase_count += blocks
        return completion

    def finish_zone(self, zone_index: int) -> IoCompletion:
        """Finish: write pointer jumps to the zone end; state becomes FULL."""
        self._poll_zone_faults()
        self._check_zone_index(zone_index)
        self.zones[zone_index].finish()
        completion = self._zone_command(
            IoOp.FINISH, zone_index, self._zone_costs.finish_ns
        )
        self.zone_mgmt.finishes += 1
        self.zone_mgmt.finish_ns += completion.service_ns
        return completion

    def open_zone(self, zone_index: int) -> IoCompletion:
        """Explicitly open a zone (counts against max-open)."""
        self._poll_zone_faults()
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        newly_open = not zone.is_open
        if newly_open:
            self._ensure_open_budget(zone)
        zone.open_explicit()
        completion = self._zone_command(
            IoOp.OPEN, zone_index, self._zone_costs.open_ns if newly_open else 0
        )
        if newly_open:
            self.zone_mgmt.explicit_opens += 1
            self._touch_tick += 1
            self._open_touch[zone_index] = self._touch_tick
        self.zone_mgmt.open_ns += completion.service_ns
        return completion

    def close_zone(self, zone_index: int) -> IoCompletion:
        """Close an open zone (frees an open slot, keeps an active slot).

        Under ``ZoneCostConfig.finish_on_close``, closing a zone that
        holds data pads it to FULL instead (a FINISH command at finish
        cost): the zone frees its *active* slot too, at the price of the
        unwritten tail.  An empty zone still just reverts to EMPTY.
        """
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        if self._zone_costs.finish_on_close and zone.written_bytes > 0:
            if not zone.is_open:
                raise ZoneStateError(
                    f"zone {zone_index} is {zone.state.value}; only open zones close"
                )
            zone.finish()
            completion = self._zone_command(
                IoOp.FINISH, zone_index, self._zone_costs.finish_ns
            )
            self.zone_mgmt.finishes += 1
            self.zone_mgmt.finish_ns += completion.service_ns
            return completion
        zone.close()
        completion = self._zone_command(
            IoOp.CLOSE, zone_index, self._zone_costs.close_ns
        )
        self.zone_mgmt.closes += 1
        self.zone_mgmt.close_ns += completion.service_ns
        return completion

    # --- fault handling --------------------------------------------------------------

    def _poll_zone_faults(self) -> None:
        """Apply scheduled zone-state flips that have come due."""
        faults = self.pipeline.faults
        if faults is None:
            return
        for event in faults.due_zone_faults(self._clock.now):
            if not 0 <= event.zone_index < self.num_zones:
                continue
            state = (
                ZoneState.OFFLINE
                if event.kind is FaultKind.ZONE_OFFLINE
                else ZoneState.READ_ONLY
            )
            self.zones[event.zone_index].die(state)
            faults.note_zone_fault(event)

    def _check_readable(self, offset: int, length: int) -> None:
        """OFFLINE zones fail reads too (READ_ONLY zones still serve them)."""
        if length <= 0:
            return
        first = self.zone_of(offset)
        last = self.zone_of(offset + length - 1)
        for zone in (first, last):
            if zone.state is ZoneState.OFFLINE:
                raise ZoneDeadError(
                    f"zone {zone.index} is offline; reads fail",
                    zone_index=zone.index,
                )

    def _gate_write(
        self,
        offset: int,
        data: bytes,
        background: bool,
        virtual_now: Optional[int] = None,
        batch: Optional[List[Tuple[IoRequest, int]]] = None,
        stored: Optional[List[Tuple[int, bytes]]] = None,
    ) -> Tuple[IoRequest, int]:
        """Build + fault-gate a write request before any state mutation.

        A raised fault (typed error or power cut) leaves the zone
        untouched, so the caller can retry safely.  On a power cut the
        torn prefix is persisted first, and any already-validated batch
        extents are submitted so their media time is charged.
        """
        self._check_aligned(offset, len(data))
        zone = self.zone_of(offset)
        request = IoRequest(
            IoOp.WRITE,
            offset,
            len(data),
            zone=zone.index,
            layer="zns",
            background=background,
        )
        service_ns = self._write_service_ns(len(data))
        self.pipeline.fault_gate(request, service_ns)
        zone.check_writable(offset, len(data))
        self._ensure_open_budget(zone)
        self._note_write_open(zone)
        if self.pipeline.faults is not None:
            now = self._clock.now if virtual_now is None else virtual_now
            torn = self._maybe_tear(zone, offset, data, service_ns, now=now,
                                    flush=(batch, stored, background))
            assert not torn  # _maybe_tear raises when the cut hits
        return request, service_ns

    def _maybe_tear(
        self,
        zone: Zone,
        offset: int,
        data: bytes,
        service_ns: int,
        now: Optional[int] = None,
        flush: Optional[tuple] = None,
    ) -> bool:
        """If the power cut lands inside this write's media window,
        persist the aligned prefix, flush any pending batch, and trip
        the power (raises :class:`PowerCutError`)."""
        faults = self.pipeline.faults
        if faults is None:
            return False
        if now is None:
            now = self._clock.now
        keep = faults.torn_write_bytes(now, service_ns, len(data), self.block_size)
        if keep is None:
            return False
        if keep:
            self.media.store(offset, data[:keep])
            zone.advance(keep)
            self._stats.host_write_bytes += keep
            self._stats.media_write_bytes += keep
        if flush is not None:
            batch, stored, background = flush
            if batch:
                completions = self.pipeline.submit_many(batch)
                for completion, (_, done_data) in zip(completions, stored):
                    self._account_write(len(done_data), completion, background)
        faults.trip_power()
        return True  # pragma: no cover - trip_power always raises

    # --- internals -------------------------------------------------------------------

    def _zone_command(
        self, op: IoOp, zone_index: int, extra_ns: int = 0
    ) -> IoCompletion:
        return self.pipeline.submit(
            IoRequest(op, self.zones[zone_index].start, zone=zone_index, layer="zns"),
            self.config.timing.command_overhead_ns + extra_ns,
        )

    def _load(self, offset: int, length: int) -> bytes:
        page_size = self._page_size
        if offset % page_size or length % page_size or length <= 0:
            self._check_aligned(offset, length)  # raises the typed error
        if offset + length > self._capacity_bytes:
            raise OutOfRangeError(
                f"read (offset={offset}, length={length}) exceeds capacity"
            )
        return self.media.load(offset, length)

    def _prepare_write(self, offset: int, data: bytes) -> None:
        self._check_aligned(offset, len(data))
        zone = self.zone_of(offset)
        zone.check_writable(offset, len(data))
        self._ensure_open_budget(zone)
        self.media.store(offset, data)
        zone.advance(len(data))

    def _read_service_ns(self, length: int) -> int:
        ns = self._read_ns_cache.get(length)
        if ns is None:
            count = length // self.block_size
            ns = self.config.timing.read_ns(
                count, length, self.config.geometry.parallelism
            )
            self._read_ns_cache[length] = ns
        return ns

    def _write_service_ns(self, length: int) -> int:
        ns = self._write_ns_cache.get(length)
        if ns is None:
            count = length // self.block_size
            ns = self.config.timing.program_ns(
                count, length, self.config.geometry.parallelism
            )
            self._write_ns_cache[length] = ns
        return ns

    def _account_write(
        self, length: int, completion: IoCompletion, background: bool
    ) -> None:
        if not background:
            self._stats.write_latency.record(completion.latency_ns)
        self._stats.host_write_bytes += length
        self._stats.media_write_bytes += length  # no device GC: WA == 1.0

    def _ensure_open_budget(self, zone: Zone) -> None:
        """Enforce max-open/max-active before a zone becomes (implicitly) open.

        With ``zone_costs.forced_close`` enabled, exceeding the open cap
        closes the least-recently-written open zone (charged through the
        pipeline) instead of raising — the contention model real drives
        implement in firmware.  The active cap always raises: closing an
        open zone keeps it active, so forcing closes cannot free an
        active slot for a never-written zone.
        """
        if zone.is_open:
            return
        if self.open_zone_count >= self.config.max_open_zones:
            if not self._zone_costs.forced_close:
                raise ZoneResourceError(
                    f"opening zone {zone.index} would exceed max_open_zones="
                    f"{self.config.max_open_zones}"
                )
            self._force_close_lru()
        if not zone.is_active and self.active_zone_count >= self.config.max_active_zones:
            raise ZoneResourceError(
                f"activating zone {zone.index} would exceed max_active_zones="
                f"{self.config.max_active_zones}"
            )

    def _force_close_lru(self) -> None:
        """Close the least-recently-written open zone to free an open slot.

        With ``finish_on_close`` the eviction pads the victim to FULL
        (FINISH at finish cost — it frees an active slot as well);
        otherwise it parks the victim CLOSED at close cost.  Either way
        the forced transition is charged through the pipeline, so the
        hidden contention cost lands in foreground latency.
        """
        touch = self._open_touch
        victim = min(
            (z for z in self.zones if z.is_open),
            key=lambda z: touch.get(z.index, 0),
        )
        mgmt = self.zone_mgmt
        costs = self._zone_costs
        if costs.finish_on_close and victim.written_bytes > 0:
            victim.finish()
            completion = self.pipeline.submit(
                IoRequest(IoOp.FINISH, victim.start, zone=victim.index, layer="zns"),
                self.config.timing.command_overhead_ns + costs.finish_ns,
            )
            mgmt.forced_closes += 1
            mgmt.finishes += 1
            mgmt.finish_ns += completion.service_ns
            return
        victim.close()
        completion = self.pipeline.submit(
            IoRequest(IoOp.CLOSE, victim.start, zone=victim.index, layer="zns"),
            self.config.timing.command_overhead_ns + costs.close_ns,
        )
        mgmt.forced_closes += 1
        mgmt.close_ns += completion.service_ns

    def _note_write_open(self, zone: Zone) -> None:
        """Touch the LRU clock; charge the implicit open when costed.

        Zero-cost implicit opens are counted but charge nothing and emit
        no trace record — the historical free-transition model.
        """
        self._touch_tick += 1
        self._open_touch[zone.index] = self._touch_tick
        if zone.is_open:
            return
        mgmt = self.zone_mgmt
        mgmt.implicit_opens += 1
        cost = self._zone_costs.open_ns
        if cost:
            completion = self.pipeline.submit(
                IoRequest(IoOp.OPEN, zone.start, zone=zone.index, layer="zns"),
                cost,
            )
            mgmt.open_ns += completion.service_ns

    def _check_zone_index(self, zone_index: int) -> None:
        if not 0 <= zone_index < self.num_zones:
            raise OutOfRangeError(
                f"zone index {zone_index} outside [0, {self.num_zones})"
            )

    def _check_aligned(self, offset: int, length: int) -> None:
        if offset % self.block_size or length % self.block_size:
            raise AlignmentError(
                f"ZNS I/O (offset={offset}, length={length}) must be aligned to "
                f"{self.block_size}B pages"
            )
        if length <= 0:
            raise AlignmentError(f"I/O length must be positive, got {length}")

    def __repr__(self) -> str:
        return (
            f"ZnsSsd(zones={self.num_zones}, zone_size={self.zone_size}, "
            f"open={self.open_zone_count}/{self.config.max_open_zones})"
        )


class AppendResult(IoCompletion):
    """Result of a Zone Append: includes the device-chosen offset."""

    __slots__ = ("offset",)

    def __init__(self, *args, offset: int = -1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offset = offset
