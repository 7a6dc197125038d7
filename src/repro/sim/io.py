"""Unified I/O request pipeline shared by every simulated layer.

Every byte of device traffic in the reproduction — cache flushes,
filesystem cleaning, middle-layer GC migrations, FTL relocations, even
metadata journal writes — flows through one submission path built from
three pieces:

* :class:`IoRequest` / :class:`IoCompletion` — typed request records
  carrying the op kind, address, length and the layer that originated
  the request.  The armed fault injector is the one consumer of a
  request object, so one is built only inside :meth:`IoPipeline.inject`.
* :class:`ResourcePool` — N parallel channels (dies) with a configurable
  per-channel queue depth, generalizing the old single serial
  ``ResourceTimeline``.  With ``channels=1, queue_depth=1`` it is
  bit-for-bit identical to the serial timeline, so the seed's latency
  and WAF numbers are preserved; wider configurations model the
  intra-device parallelism that ZNS characterization studies show
  dominates throughput and tail latency.
* :class:`IoTracer` — a span/record hook bus.  Layers open *spans*
  (engine → backend → ztl/f2fs/ftl) and device requests submitted inside
  a span are parented to it, so one cache ``set()`` yields a causally
  linked chain down to the NAND commands it produced.  Cross-layer WAF
  and tail-latency attribution become queries over one record stream.

:class:`IoPipeline` ties the three together per device.  Every device
command — data, zone management, discard, GC, maintenance — is charged
through one routine, :meth:`IoPipeline.charge` — fault injector (when
armed), pool, one trace record — from the values in hand.  A command
that changes device state shows itself to the injector first
(:meth:`IoPipeline.inject`), makes its change, then charges with
``gated=True``, so an injected fault leaves the device as it was.  A
batch is charged at one virtual instant and pipelined across the pool's
channels, which is how region-sized flushes and GC copy loops become one
pipelined batch instead of a loop of synchronous calls.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.clock import SimClock, check_service_time

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime import cycle
    from repro.sim.faults import FaultInjector


class IoOp(enum.Enum):
    """Typed command kinds understood by the pipeline."""

    READ = "read"
    WRITE = "write"
    APPEND = "append"
    RESET = "reset"
    FINISH = "finish"
    OPEN = "open"
    CLOSE = "close"
    DISCARD = "discard"
    ERASE = "erase"
    GC = "gc"
    MAINTENANCE = "maintenance"
    SPAN = "span"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class IoRequest:
    """One unit of device traffic.

    ``layer`` names the layer of origin (``"zns"``, ``"ftl.gc"``, …).
    ``background`` requests occupy the pool without blocking the
    submitter — the model for GC/maintenance work the host never waits
    on directly.  Its trace record is parented to whatever span is open
    when the command is charged.

    A hand-rolled ``__slots__`` class (not a dataclass), built
    positionally by :meth:`IoPipeline.inject`.
    """

    __slots__ = ("op", "offset", "length", "zone", "layer", "background")

    def __init__(
        self,
        op: IoOp,
        offset: int = 0,
        length: int = 0,
        zone: Optional[int] = None,
        layer: str = "device",
        background: bool = False,
    ) -> None:
        self.op = op
        self.offset = offset
        self.length = length
        self.zone = zone
        self.layer = layer
        self.background = background

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IoRequest({self.op}, offset={self.offset}, length={self.length}, "
            f"zone={self.zone}, layer={self.layer!r}, background={self.background})"
        )


class IoCompletion:
    """Outcome of a submitted request (successor of the old ``IoResult``).

    ``latency_ns`` is what the *submitter* observed: queueing plus
    service for foreground requests, 0 for background reservations.  The
    remaining timestamps describe what actually happened on the media so
    traces can attribute wait vs service per layer.  Slotted for the
    same reason as :class:`IoRequest`.
    """

    __slots__ = (
        "latency_ns",
        "data",
        "submitted_ns",
        "started_ns",
        "completed_ns",
        "wait_ns",
        "service_ns",
        "channel",
    )

    def __init__(
        self,
        latency_ns: int,
        data: Optional[bytes] = None,
        submitted_ns: int = 0,
        started_ns: int = 0,
        completed_ns: int = 0,
        wait_ns: int = 0,
        service_ns: int = 0,
        channel: int = 0,
    ) -> None:
        self.latency_ns = latency_ns
        self.data = data
        self.submitted_ns = submitted_ns
        self.started_ns = started_ns
        self.completed_ns = completed_ns
        self.wait_ns = wait_ns
        self.service_ns = service_ns
        self.channel = channel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IoCompletion(latency_ns={self.latency_ns}, "
            f"completed_ns={self.completed_ns}, channel={self.channel})"
        )


@dataclass(frozen=True)
class PoolConfig:
    """Shape of a device's parallel command resources.

    ``channels`` models independent die groups; ``queue_depth`` is the
    number of commands one channel can have in flight (NVMe-style slot
    model).  ``stripe_bytes`` > 0 routes requests to ``(offset //
    stripe_bytes) % channels`` so addresses map to dies the way real
    flash striping does; 0 picks the earliest-free channel instead.
    """

    channels: int = 1
    queue_depth: int = 1
    stripe_bytes: int = 0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.stripe_bytes < 0:
            raise ConfigError(f"stripe_bytes must be >= 0, got {self.stripe_bytes}")

    @property
    def total_slots(self) -> int:
        return self.channels * self.queue_depth


class ResourcePool:
    """N-channel, queue-depth-aware generalization of ``ResourceTimeline``.

    Each channel owns ``queue_depth`` command slots; a request occupies
    the earliest-free slot of its channel, so overlapping demands turn
    into queueing delay only once every slot is busy.  With one channel
    and one slot the arithmetic reduces exactly to the serial timeline,
    which is what keeps the seed's golden numbers stable.
    """

    def __init__(self, name: str = "pool", config: PoolConfig = PoolConfig()) -> None:
        self.name = name
        self.config = config
        self._slots: List[List[int]] = [
            [0] * config.queue_depth for _ in range(config.channels)
        ]
        self.total_busy_ns = 0
        self.total_wait_ns = 0
        self.per_channel_busy_ns: List[int] = [0] * config.channels
        self.requests_served = 0

    @property
    def busy_until(self) -> int:
        """Virtual time at which the whole pool becomes idle."""
        return max(max(slots) for slots in self._slots)

    def wait_time(self, now_ns: int) -> int:
        """Queueing delay a request issued at ``now_ns`` would observe."""
        earliest = min(min(slots) for slots in self._slots)
        return max(0, earliest - now_ns)

    def acquire(
        self,
        now_ns: int,
        service_ns: int,
        offset: Optional[int] = None,
        charge_wait: bool = True,
    ) -> Tuple[int, int, int]:
        """Occupy a slot for ``service_ns``; returns (done, wait, channel).

        ``charge_wait=False`` is the background-reservation path: the
        pool fills up the same way but nobody is blocked issuing the
        request, so the wait is not charged to ``total_wait_ns``.
        """
        if service_ns < 0:
            check_service_time(service_ns)
        channel = 0 if self.config.channels == 1 else self._channel_for(offset)
        slots = self._slots[channel]
        slot = slots.index(min(slots))
        start = max(now_ns, slots[slot])
        wait = start - now_ns
        slots[slot] = start + service_ns
        self.total_busy_ns += service_ns
        self.per_channel_busy_ns[channel] += service_ns
        self.requests_served += 1
        if charge_wait:
            self.total_wait_ns += wait
        return start + service_ns, wait, channel

    def reserve_background(
        self, now_ns: int, service_ns: int, offset: Optional[int] = None
    ) -> Tuple[int, int, int]:
        """Schedule background work without a requester waiting on it."""
        return self.acquire(now_ns, service_ns, offset, charge_wait=False)

    def utilization(self, now_ns: int) -> float:
        """Mean fraction of channel-time spent servicing, up to ``now_ns``."""
        if now_ns <= 0:
            return 0.0
        return self.total_busy_ns / (now_ns * self.config.channels)

    def snapshot(self) -> Dict[str, float]:
        """Summary dict used by the benchmark reports."""
        return {
            "channels": self.config.channels,
            "queue_depth": self.config.queue_depth,
            "requests": self.requests_served,
            "total_busy_ns": self.total_busy_ns,
            "total_wait_ns": self.total_wait_ns,
        }

    def _channel_for(self, offset: Optional[int]) -> int:
        config = self.config
        if config.channels == 1:
            return 0
        if config.stripe_bytes > 0 and offset is not None:
            return (offset // config.stripe_bytes) % config.channels
        return min(
            range(config.channels), key=lambda c: min(self._slots[c])
        )

    def __repr__(self) -> str:
        return (
            f"ResourcePool({self.name!r}, channels={self.config.channels}, "
            f"qd={self.config.queue_depth}, busy_until={self.busy_until})"
        )


# Reusable no-op context for disabled tracers: span() on a disabled
# tracer must cost one attribute check, not a generator frame.
_NULL_SPAN = contextlib.nullcontext()


class TraceRecord:
    """One entry on the trace stream: a span or a device request.

    The record is also its own span handle: :meth:`IoTracer.span` builds
    it with the caller's fields, ``__enter__`` stamps id, parent and
    ``submitted_ns``, ``__exit__`` stamps ``completed_ns``/``service_ns``
    and hands this same object to ``records`` and every subscriber, so a
    span costs one allocation.  Slotted and built positionally for the
    same reason as :class:`IoRequest`.  Consumers must not mutate it.
    """

    __slots__ = (
        "record_id", "parent_id", "layer", "op", "offset", "length", "zone",
        "background", "submitted_ns", "completed_ns", "wait_ns", "service_ns",
        "channel", "_tracer",
    )

    def __init__(
        self, record_id: int, parent_id: Optional[int], layer: str, op: str,
        offset: int, length: int, zone: Optional[int], background: bool,
        submitted_ns: int, completed_ns: int, wait_ns: int, service_ns: int,
        channel: int, tracer: Optional["IoTracer"] = None,
    ) -> None:
        self.record_id = record_id
        self.parent_id = parent_id
        self.layer = layer
        self.op = op
        self.offset = offset
        self.length = length
        self.zone = zone
        self.background = background
        self.submitted_ns = submitted_ns
        self.completed_ns = completed_ns
        self.wait_ns = wait_ns
        self.service_ns = service_ns
        self.channel = channel
        # Only an open span points at its tracer; closing drops the link
        # so captured records form no cycle through ``tracer.records``.
        self._tracer = tracer

    @property
    def latency_ns(self) -> int:
        return self.completed_ns - self.submitted_ns

    def __enter__(self) -> int:
        tracer = self._tracer
        tracer._next_id = self.record_id = record_id = tracer._next_id + 1
        stack = tracer._stack
        if stack:
            self.parent_id = stack[-1]
        stack.append(record_id)
        self.submitted_ns = tracer._clock.now
        return record_id

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        self._tracer = None
        tracer._stack.pop()
        self.completed_ns = end_ns = tracer._clock.now
        self.service_ns = end_ns - self.submitted_ns
        # IoTracer.emit, inlined: one call fewer on every span.
        if tracer._capture:
            tracer.records.append(self)
        for callback in tracer._subscribers:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecord({self.record_id}, parent={self.parent_id}, "
            f"{self.layer}/{self.op}, offset={self.offset}, length={self.length}, "
            f"zone={self.zone}, {self.submitted_ns}..{self.completed_ns}ns)"
        )


class IoTracer:
    """Hook bus every layer can tag and observe requests through.

    Disabled by default (zero overhead beyond one flag check); call
    :meth:`enable` to capture records, or :meth:`subscribe` to stream
    them to a callback.  Span ids and request ids share one counter, so
    parent links are unambiguous across layers and devices that share a
    tracer instance.
    """

    __slots__ = (
        "_clock",
        "records",
        "_subscribers",
        "_stack",
        "_next_id",
        "_capture",
        "enabled",
    )

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self._clock = clock
        self.records: List[TraceRecord] = []
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._capture = False
        # ``enabled`` is a plain attribute (not a property) maintained by
        # enable/disable/subscribe: every layer checks it per operation,
        # and that check must be a single attribute load so a disabled
        # tracer costs nothing on the hot path.
        self.enabled = False

    # --- lifecycle ------------------------------------------------------------

    def _refresh_enabled(self) -> None:
        self.enabled = self._capture or bool(self._subscribers)

    def enable(self) -> "IoTracer":
        """Start capturing records (returns self for chaining)."""
        self._capture = True
        self._refresh_enabled()
        return self

    def disable(self) -> None:
        self._capture = False
        self._refresh_enabled()

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Stream every record to ``callback`` (independent of capture)."""
        self._subscribers.append(callback)
        self._refresh_enabled()

    def bind_clock(self, clock: SimClock) -> None:
        """Attach the simulation clock (first binding wins)."""
        if self._clock is None:
            self._clock = clock

    def clear(self) -> None:
        self.records.clear()

    # --- spans ----------------------------------------------------------------

    @property
    def current_parent(self) -> Optional[int]:
        """Id of the innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(
        self,
        layer: str,
        op: str,
        offset: int = 0,
        length: int = 0,
        zone: Optional[int] = None,
    ):
        """Context manager marking a layer-level operation.

        Requests submitted (and spans opened) inside are parented to it.
        On a disabled tracer this returns a shared no-op context; on an
        enabled one, the :class:`TraceRecord` the span will emit.
        """
        if not self.enabled or self._clock is None:
            return _NULL_SPAN
        return TraceRecord(
            0, None, layer, op, offset, length, zone, False, 0, 0, 0, 0, -1, self
        )

    def record(
        self, layer: str, op: str, offset: int, length: int, zone: Optional[int],
        background: bool, submitted_ns: int, completed_ns: int, wait_ns: int,
        service_ns: int, channel: int,
    ) -> None:
        """Put one finished command on the stream: next id, the innermost
        open span as parent, one record, in one call (every device
        command is one, through :meth:`IoPipeline.charge`)."""
        self._next_id = record_id = self._next_id + 1
        stack = self._stack
        finished = TraceRecord(
            record_id, stack[-1] if stack else None, layer, op, offset, length,
            zone, background, submitted_ns, completed_ns, wait_ns, service_ns,
            channel,
        )
        if self._capture:
            self.records.append(finished)
        for callback in self._subscribers:
            callback(finished)

    def emit_event(
        self,
        layer: str,
        op: str,
        offset: int = 0,
        length: int = 0,
        zone: Optional[int] = None,
    ) -> None:
        """Record an instantaneous out-of-band event (e.g. an injected
        fault or a recovery action) as a zero-duration record."""
        if not self.enabled or self._clock is None:
            return
        now = self._clock.now
        self.record(layer, op, offset, length, zone, False, now, now, 0, 0, -1)

    # --- queries --------------------------------------------------------------

    def find(
        self, layer: Optional[str] = None, op: Optional[str] = None
    ) -> List[TraceRecord]:
        """Captured records filtered by layer prefix and/or op."""
        out = []
        for record in self.records:
            if layer is not None and not record.layer.startswith(layer):
                continue
            if op is not None and record.op != op:
                continue
            out.append(record)
        return out

    def record_by_id(self, record_id: int) -> Optional[TraceRecord]:
        for record in self.records:
            if record.record_id == record_id:
                return record
        return None

    def chain(self, record_id: int) -> List[TraceRecord]:
        """Ancestry of a record, root span first, the record itself last."""
        by_id = {record.record_id: record for record in self.records}
        out: List[TraceRecord] = []
        cursor = by_id.get(record_id)
        while cursor is not None:
            out.append(cursor)
            cursor = (
                by_id.get(cursor.parent_id) if cursor.parent_id is not None else None
            )
        out.reverse()
        return out

    def layer_chain(self, record_id: int) -> List[str]:
        """Layer names along the ancestry, root first (duplicates merged)."""
        layers: List[str] = []
        for record in self.chain(record_id):
            if not layers or layers[-1] != record.layer:
                layers.append(record.layer)
        return layers

    def bytes_written_by_layer(self) -> Dict[str, int]:
        """Media write bytes attributed to the layer that originated them.

        This is cross-layer WAF attribution as a query: host writes show
        up under the device layer, relocation traffic under ``*.gc``.
        """
        out: Dict[str, int] = {}
        for record in self.records:
            if record.op in ("write", "append", "gc"):
                out[record.layer] = out.get(record.layer, 0) + record.length
        return out

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"IoTracer(records={len(self.records)}, enabled={self.enabled})"


# Shared disabled tracer for components wired without one.  Never enable
# it: everything that did not get an explicit tracer reports here.
NULL_TRACER = IoTracer()


class IoPipeline:
    """Per-device submission path: clock + resource pool + tracer.

    Multiple devices in one stack may share a tracer (so request ids and
    parent links form one stream) while keeping their own pools.
    """

    def __init__(
        self,
        clock: SimClock,
        name: str = "device",
        config: PoolConfig = PoolConfig(),
        tracer: Optional[IoTracer] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.clock = clock
        self.name = name
        self.pool = ResourcePool(name, config)
        self.tracer = tracer if tracer is not None else IoTracer()
        self.tracer.bind_clock(clock)
        self.faults = faults
        if faults is not None:
            faults.bind(clock, self.tracer)

    def inject(
        self, op: str, offset: int, length: int, zone: Optional[int],
        layer: str, background: bool, service_ns: int,
    ) -> int:
        """Show one command to the armed fault injector; returns the
        latency it adds.  A raised fault must leave the device exactly as
        it was, so a device whose command changes state (a write, a zone
        transition, a discard) calls this before the first change and
        charges with ``gated=True``.  The injector is the only consumer
        of an :class:`IoRequest`; this is the one place one is built."""
        return self.faults.inspect(
            self.name,
            IoRequest(IoOp(op), offset, length, zone, layer, background),
            service_ns,
        )

    def charge(
        self, layer: str, op: str, offset: int, length: int,
        zone: Optional[int], background: bool, now: int, service_ns: int,
        gated: bool = False,
    ) -> Tuple[int, int, int, int]:
        """Charge one command issued at ``now``: the fault injector sees
        it first (when one is armed and the caller has not shown it the
        command already), then it occupies the pool, then its record goes
        on the trace stream.  Returns ``(done, wait, channel,
        service_ns)`` with any injected latency in ``service_ns``.  The
        clock is the caller's to move: a batch charges every command at
        one ``now`` and advances to the last foreground ``done``."""
        if self.faults is not None and not gated:
            service_ns += self.inject(
                op, offset, length, zone, layer, background, service_ns
            )
        done, wait, channel = self.pool.acquire(
            now, service_ns, offset, not background
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                layer, op, offset, length, zone, background, now, done, wait,
                service_ns, channel,
            )
        return done, wait, channel, service_ns

    def charge_foreground(
        self, layer: str, op: str, offset: int, length: int, service_ns: int,
        zone: Optional[int] = None, gated: bool = False,
    ) -> IoCompletion:
        """:meth:`charge` for one foreground command issued now: the
        clock moves to its completion (the caller both observes and
        spends any queueing delay) and the completion comes back without
        data."""
        clock = self.clock
        now = clock.now
        done, wait, channel, service_ns = self.charge(
            layer, op, offset, length, zone, False, now, service_ns, gated
        )
        clock.now = done
        return IoCompletion(
            done - now, None, now, done - service_ns, done, wait, service_ns,
            channel,
        )

    def snapshot(self) -> Dict[str, float]:
        return {"name": self.name, **self.pool.snapshot()}

    def __repr__(self) -> str:
        return f"IoPipeline({self.name!r}, {self.pool!r})"
