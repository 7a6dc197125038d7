"""Zoned Namespace SSD simulator.

The ZNS device shares the NAND geometry/timing of the block SSD but
replaces the FTL with the zone interface: sequential writes at each
zone's write pointer, zone append, reset, finish, and explicit
open/close with max-open / max-active limits.  Because the host performs
all cleaning, the device never relocates data — ``media_write_bytes``
always equals ``host_write_bytes`` and device WA is exactly 1.0, the
property the paper's Zone-Cache exploits (§3.2).

All media traffic is charged through the device's
:class:`~repro.sim.io.IoPipeline` (:meth:`~repro.sim.io.IoPipeline.charge`:
fault injector when armed, pool, trace record);
``read_many``/``write_many``/``copy_many`` charge a whole batch at one
instant so region flushes and the ZTL's GC copy loop pipeline across pool
channels.  Every command — data or zone management — is checked, shown
to the armed fault injector, applied and then charged from the values
in hand, so an injected fault leaves the zone as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    AlignmentError,
    ConfigError,
    OutOfRangeError,
    ZoneDeadError,
    ZoneResourceError,
)
from repro.flash.device import DeviceStats
from repro.flash.nand import NandGeometry, NandTiming
from repro.flash.pagestore import PageStore
from repro.flash.zone import (
    OPEN_STATES,
    Zone,
    ZoneCostConfig,
    ZoneMgmtStats,
    ZoneState,
)
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector, FaultKind
from repro.sim.io import IoCompletion, IoOp, IoPipeline, IoTracer, PoolConfig


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

    def __post_init__(self) -> None:
        zone_size = self.resolved_zone_size()
        if zone_size % self.geometry.block_size != 0:
            raise ConfigError(
                f"zone_size {zone_size} is not a multiple of the NAND block "
                f"size {self.geometry.block_size}"
            )
        if self.max_open_zones < 1 or self.max_active_zones < self.max_open_zones:
            raise ConfigError("need max_active_zones >= max_open_zones >= 1")
        if self.geometry.total_bytes < zone_size:
            raise ConfigError("geometry too small for even one zone")

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
        self.zone_size = zone_size
        self.num_zones = config.geometry.total_bytes // zone_size
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
        if not 0 <= offset < self._capacity_bytes:
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
        if self.pipeline.faults is not None:
            self._poll_zone_faults()
        self._check_readable(offset, length)
        clock = self._clock
        now = clock.now
        done, wait, channel, service_ns = self._charge_read(
            offset, length, background, now
        )
        latency = 0
        if not background:
            latency = done - now
            clock.now = done
        return IoCompletion(
            latency, self.media.load(offset, length), now, done - service_ns,
            done, wait, service_ns, channel,
        )

    def read_many(
        self, extents: List[Tuple[int, int]], background: bool = False
    ) -> List[IoCompletion]:
        """Batched reads: one submission, overlapped across pool channels.

        Every extent is validated before the first one is charged.
        """
        return self._read_batch(extents, background)

    def write(self, offset: int, data: bytes, background: bool = False) -> IoCompletion:
        """Sequential write: must land exactly on the zone's write pointer.

        ``background=True`` behaves as for :meth:`read`: the program time
        is reserved on the device pool without blocking the caller.
        """
        return IoCompletion(*self._program(((offset, data),), background)[0])

    def write_many(
        self, items: List[Tuple[int, bytes]], background: bool = False
    ) -> List[IoCompletion]:
        """Batched sequential writes: one submission across pool channels.

        Write-pointer checks and data stores happen per extent, in order,
        before the batch is queued — an invalid extent raises before any
        media time is charged for it.
        """
        return [IoCompletion(*done) for done in self._program(items, background)]

    def append(self, zone_index: int, data: bytes) -> "AppendResult":
        """Zone Append: device picks the offset (the current write pointer)."""
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        offset = zone.write_pointer
        done = self._program(((offset, data),), False, IoOp.APPEND, zone)[0]
        return AppendResult(*done, offset=offset)

    def copy_many(self, pairs: List[Tuple[int, int]], length: int) -> None:
        """Background copy of ``length`` bytes from ``src`` to ``dst`` for
        each ``(src, dst)`` pair: the GC mover.

        The commands, their order, checks, pool reservations, stats and
        trace records are those of ``read_many`` then ``write_many``
        (both ``background=True``) over the same extents — all reads,
        then all writes — but the bytes go chunk to chunk inside the page
        store instead of up to the caller and back down.  The copies run
        in order as the writes land, which moves the same bytes as long
        as no source overlaps an earlier destination: true of every
        source that holds written data, since a write only ever lands on
        a write pointer.
        """
        self._read_batch([(src, length) for src, _ in pairs], True, load=False)
        self._program([(dst, src) for src, dst in pairs], True, length=length)

    def reset_zone(self, zone_index: int) -> IoCompletion:
        """Reset: discard zone contents, write pointer back to start."""
        self._poll_zone_faults()
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        had_data = zone.written_bytes > 0
        timing = self.config.timing
        service_ns = self._gate(
            "reset", zone, timing.command_overhead_ns + self._zone_costs.reset_ns
        )
        zone.reset()
        self.media.clear(zone.start, self.zone_size)
        # The reset command itself is fast; the media erase proceeds in the
        # background and *later* commands queue behind it.
        completion = self._charge_command("reset", zone, service_ns)
        self.zone_mgmt.resets += 1
        self.zone_mgmt.reset_ns += completion.service_ns
        if had_data:
            blocks = self.zone_size // self.config.geometry.block_size
            self.pipeline.charge(
                "zns", "erase", zone.start, self.zone_size, zone_index, True,
                self._clock.now, timing.erase_ns(blocks),
            )
            self._stats.erase_count += blocks
        return completion

    def finish_zone(self, zone_index: int) -> IoCompletion:
        """Finish: write pointer jumps to the zone end; state becomes FULL."""
        self._poll_zone_faults()
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        zone.check_alive()
        service_ns = self._gate(
            "finish",
            zone,
            self.config.timing.command_overhead_ns + self._zone_costs.finish_ns,
        )
        zone.finish()
        completion = self._charge_command("finish", zone, service_ns)
        self.zone_mgmt.finishes += 1
        self.zone_mgmt.finish_ns += completion.service_ns
        return completion

    def open_zone(self, zone_index: int) -> IoCompletion:
        """Explicitly open a zone (counts against max-open)."""
        self._poll_zone_faults()
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        zone.check_open()
        newly_open = not zone.is_open
        if newly_open:
            self._ensure_open_budget(zone)
        service_ns = self._gate(
            "open",
            zone,
            self.config.timing.command_overhead_ns
            + (self._zone_costs.open_ns if newly_open else 0),
        )
        zone.open_explicit()
        completion = self._charge_command("open", zone, service_ns)
        if newly_open:
            self.zone_mgmt.explicit_opens += 1
            self._touch_tick += 1
            self._open_touch[zone_index] = self._touch_tick
        self.zone_mgmt.open_ns += completion.service_ns
        return completion

    def close_zone(self, zone_index: int) -> IoCompletion:
        """Close an open zone (frees an open slot, keeps an active slot)."""
        self._check_zone_index(zone_index)
        zone = self.zones[zone_index]
        zone.check_close()
        completion = self._close(zone)
        self.zone_mgmt.closes += 1
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

    def _maybe_tear(
        self,
        zone: Zone,
        offset: int,
        source,
        length: int,
        service_ns: int,
        ahead_ns: int,
        landed: List[Tuple[int, int, int, int]],
        background: bool,
        op: IoOp,
    ) -> None:
        """If the power cut lands inside this write's media window,
        persist the aligned prefix, charge the extents of the batch that
        landed before it, and trip the power (raises
        :class:`PowerCutError`).  The extents service back-to-back, so
        this one's window opens ``ahead_ns`` from now."""
        faults = self.pipeline.faults
        keep = faults.torn_write_bytes(
            self._clock.now + ahead_ns, service_ns, length, self.block_size
        )
        if keep is None:
            return
        if keep:
            if isinstance(source, int):
                self.media.move(source, offset, keep)
            else:
                self.media.store(offset, memoryview(source)[:keep])
            zone.advance(keep)
            self._stats.host_write_bytes += keep
            self._stats.media_write_bytes += keep
        self._charge_writes(landed, background, op)
        faults.trip_power()

    # --- internals -------------------------------------------------------------------

    def _gate(self, op: str, zone: Zone, service_ns: int) -> int:
        """Show a zone-management command to the armed fault injector
        before the caller changes any state; returns its service time
        with any injected latency added."""
        pipeline = self.pipeline
        if pipeline.faults is None:
            return service_ns
        return service_ns + pipeline.inject(
            op, zone.start, 0, zone.index, "zns", False, service_ns
        )

    def _charge_command(self, op: str, zone: Zone, service_ns: int) -> IoCompletion:
        """Charge a gated zone-management command issued now; the clock
        moves to its completion."""
        return self.pipeline.charge_foreground(
            "zns", op, zone.start, 0, service_ns, zone.index, gated=True
        )

    def _close(self, zone: Zone) -> IoCompletion:
        """Park an open zone CLOSED (EMPTY if nothing was written), at
        close cost: the body of ``close_zone`` and of a forced close."""
        service_ns = self._gate(
            "close",
            zone,
            self.config.timing.command_overhead_ns + self._zone_costs.close_ns,
        )
        zone.close()
        completion = self._charge_command("close", zone, service_ns)
        self.zone_mgmt.close_ns += completion.service_ns
        return completion

    def _check_readable(self, offset: int, length: int) -> None:
        """A read must lie inside the device, touch no OFFLINE zone
        (READ_ONLY zones still serve reads) and be page-aligned."""
        if length <= 0:
            self._check_aligned(offset, length)  # raises the typed error
        if offset < 0 or offset + length > self._capacity_bytes:
            raise OutOfRangeError(
                f"read (offset={offset}, length={length}) outside device of "
                f"{self._capacity_bytes}B"
            )
        zones, zone_size = self.zones, self.zone_size
        last = (offset + length - 1) // zone_size
        for index in range(offset // zone_size, last + 1):
            if zones[index].state is ZoneState.OFFLINE:
                raise ZoneDeadError(
                    f"zone {index} is offline; reads fail", zone_index=index
                )
        page_size = self._page_size
        if offset % page_size or length % page_size:
            self._check_aligned(offset, length)

    def _read_batch(
        self, extents: Sequence[Tuple[int, int]], background: bool, load: bool = True
    ) -> List[IoCompletion]:
        """``read_many`` and the read half of ``copy_many``.

        Every extent is validated first; then each is charged at one
        instant (:meth:`_charge_read`, the routine ``read`` charges its
        single extent with) and the clock moves to the last foreground
        completion.  ``load=False`` charges the reads and leaves the
        bytes where they are (no completions come back).
        """
        if self.pipeline.faults is not None:
            self._poll_zone_faults()
        for offset, length in extents:
            self._check_readable(offset, length)
        clock = self._clock
        now = barrier = clock.now
        completions: List[IoCompletion] = []
        for offset, length in extents:
            done, wait, channel, service_ns = self._charge_read(
                offset, length, background, now
            )
            latency = 0
            if not background:
                latency = done - now
                if done > barrier:
                    barrier = done
            if load:
                completions.append(
                    IoCompletion(
                        latency, self.media.load(offset, length), now,
                        done - service_ns, done, wait, service_ns, channel,
                    )
                )
        clock.now = barrier
        return completions

    def _charge_read(
        self, offset: int, length: int, background: bool, now: int
    ) -> Tuple[int, int, int, int]:
        """Charge one validated read extent issued at ``now`` and count
        it; returns the pipeline's ``(done, wait, channel, service_ns)``."""
        service_ns = self._read_ns_cache.get(length)
        if service_ns is None:
            service_ns = self._read_service_ns(length)
        charged = self.pipeline.charge(
            "zns", "read", offset, length, None, background, now, service_ns
        )
        stats = self._stats
        stats.host_read_bytes += length
        stats.media_read_bytes += length
        if not background:
            recorder = stats.read_latency
            recorder._samples.append(charged[0] - now)
            recorder._sorted = None
        return charged

    def _program(
        self,
        items: Iterable[Tuple[int, Any]],
        background: bool,
        op: IoOp = IoOp.WRITE,
        zone: Optional[Zone] = None,
        length: Optional[int] = None,
    ) -> List[tuple]:
        """The one write-side body: ``write``, ``write_many``, ``append``
        and the write half of ``copy_many`` all land here.  Returns one
        :class:`IoCompletion` argument tuple per extent.

        ``items`` are ``(offset, source)`` in submission order.  A source
        is the buffer to store or, when ``length`` is given, the media
        offset that many bytes are moved from.  ``zone`` pins the target
        (Zone Append names its zone; a write's offset implies it).

        Per extent, in order: alignment, zone, write pointer and
        open/active budget are checked once, before any state changes;
        the fault injector, when armed, sees the command first, so a
        raised fault leaves the zone untouched and the caller can retry;
        then the bytes land, once, and the write pointer moves.  Only
        after every extent has landed is the batch charged — all at one
        instant, pipelined across the pool — so an invalid extent raises
        before any media time is charged for it.
        """
        faults = self.pipeline.faults
        if faults is not None:
            self._poll_zone_faults()
        page_size = self._page_size
        media = self.media
        moving = length is not None
        landed: List[Tuple[int, int, int, int]] = []
        # For torn-write modelling the extents service back-to-back, so
        # extent k's media window starts after the preceding services.
        ahead_ns = 0
        for offset, source in items:
            if not moving:
                length = len(source)
            if offset % page_size or length % page_size or length <= 0:
                self._check_aligned(offset, length)
            target = zone if zone is not None else self.zone_of(offset)
            service_ns = self._write_service_ns(length)
            extra_ns = 0
            if faults is not None:
                extra_ns = self.pipeline.inject(
                    op.value, offset, length, target.index, "zns", background,
                    service_ns,
                )
            target.check_writable(offset, length)
            if target.state not in OPEN_STATES:
                self._ensure_open_budget(target)
                self._note_implicit_open(target)
            # LRU clock for the forced-close victim.
            self._touch_tick = tick = self._touch_tick + 1
            self._open_touch[target.index] = tick
            if faults is not None:
                self._maybe_tear(
                    target, offset, source, length, service_ns, ahead_ns,
                    landed, background, op,
                )
            if moving:
                media.move(source, offset, length)
            else:
                media.store(offset, source)
            target.advance(length)
            landed.append((offset, length, target.index, service_ns + extra_ns))
            ahead_ns += service_ns
        return self._charge_writes(landed, background, op)

    def _charge_writes(
        self, landed: List[Tuple[int, int, int, int]], background: bool, op: IoOp
    ) -> List[tuple]:
        """Charge landed ``(offset, length, zone, service_ns)`` extents as
        one batch; the clock moves to the last foreground completion."""
        clock = self._clock
        now = barrier = clock.now
        stats = self._stats
        charge, op_name = self.pipeline.charge, op.value
        completions: List[tuple] = []
        for offset, length, zone_index, service_ns in landed:
            done, wait, channel, _ = charge(
                "zns", op_name, offset, length, zone_index, background, now,
                service_ns, gated=True,
            )
            latency = 0
            if not background:
                latency = done - now
                stats.write_latency.record(latency)
                if done > barrier:
                    barrier = done
            stats.host_write_bytes += length
            stats.media_write_bytes += length  # no device GC: WA == 1.0
            completions.append(
                (latency, None, now, done - service_ns, done, wait, service_ns,
                 channel)
            )
        clock.now = barrier
        return completions

    def _read_service_ns(self, length: int) -> int:
        """Memo miss: NAND read time of a ``length``-byte transfer."""
        ns = self._read_ns_cache[length] = self.config.timing.read_ns(
            length // self.block_size, length, self.config.geometry.parallelism
        )
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

        The victim is parked CLOSED at close cost, charged through the
        pipeline, so the hidden contention cost lands in foreground
        latency.
        """
        touch = self._open_touch
        victim = min(
            (z for z in self.zones if z.is_open),
            key=lambda z: touch.get(z.index, 0),
        )
        self._close(victim)
        self.zone_mgmt.forced_closes += 1

    def _note_implicit_open(self, zone: Zone) -> None:
        """Count a write's implicit open; charge it when costed.

        Zero-cost implicit opens are counted but charge nothing and emit
        no trace record — the historical free-transition model.
        """
        mgmt = self.zone_mgmt
        cost = self._zone_costs.open_ns
        if cost:
            service_ns = self._gate("open", zone, cost)
            mgmt.open_ns += self._charge_command("open", zone, service_ns).service_ns
        mgmt.implicit_opens += 1

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
