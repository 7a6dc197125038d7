"""Unified I/O request pipeline shared by every simulated layer.

Every byte of device traffic in the reproduction — cache flushes,
filesystem cleaning, middle-layer GC migrations, FTL relocations, even
metadata journal writes — flows through one submission path built from
three pieces:

* :class:`IoRequest` — the typed record of one command (op kind,
  address, length, originating layer).  The armed fault injector is its
  one consumer, so one is built only inside :meth:`IoPipeline.inject`;
  a caller gets back an :class:`IoCompletion`, its latency and data.
* One serial timeline per device: a command starts when the device is
  free and holds it for its service time, so background GC, erases and
  maintenance turn into queueing delay for the foreground commands
  behind them.
* :class:`IoTracer` — a span/record hook bus.  Layers open *spans*
  (engine → backend → ztl/f2fs/ftl) and device requests submitted inside
  a span are parented to it, so one cache ``set()`` yields a causally
  linked chain down to the NAND commands it produced.  Cross-layer WAF
  and tail-latency attribution become queries over one record stream.

:class:`IoPipeline` ties the three together per device.  Every device
command — data, zone management, discard, GC, maintenance — is charged
through one routine, :meth:`IoPipeline.charge` — fault injector (when
armed), timeline, one trace record — from the values in hand.  A
command that changes device state shows itself to the injector first
(:meth:`IoPipeline.inject`), makes its change, then charges with
``gated=True``, so an injected fault leaves the device as it was.  A
batch (a region flush, a GC copy step) is charged at one virtual
instant, which on the serial timeline costs exactly the simulated time
of a loop of single commands.
"""

from __future__ import annotations

import contextlib
import enum
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.sim.clock import SimClock

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
    ``background`` requests occupy the device without blocking the
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
    """What a device command hands back to its caller.

    ``latency_ns`` is what the submitter observed: queueing plus service
    for a foreground command, 0 for a background one.  ``data`` holds the
    bytes of a read (``None`` otherwise).  Timestamps, waits and service
    times are on the command's trace record, which is where every reader
    of them looks.  Slotted for the same reason as :class:`IoRequest`.
    """

    __slots__ = ("latency_ns", "data")

    def __init__(self, latency_ns: int, data: Optional[bytes] = None) -> None:
        self.latency_ns = latency_ns
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IoCompletion(latency_ns={self.latency_ns})"


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
    ``channel`` is 0 on a device command (a device has one timeline) and
    -1 on a span or event.
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
    """Per-device submission path: clock + one serial timeline + tracer.

    A device services one command at a time.  A command issued at ``now``
    starts when the device is free (``max(now, busy_until)``) and holds it
    for its service time, so overlapping demands become queueing delay:
    a foreground command issued while GC, an erase or maintenance still
    runs waits behind it — the source of the tail latencies the paper
    compares.  Multiple devices in one stack may share a tracer (so
    request ids and parent links form one stream) while each keeps its
    own timeline.
    """

    def __init__(
        self,
        clock: SimClock,
        name: str = "device",
        tracer: Optional[IoTracer] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.clock = clock
        self.name = name
        self.tracer = tracer if tracer is not None else IoTracer()
        self.tracer.bind_clock(clock)
        self.faults = faults
        if faults is not None:
            faults.bind(clock, self.tracer)
        # Virtual time at which the device becomes free.
        self.busy_until = 0
        self.total_busy_ns = 0
        # Queueing seen by foreground commands; background work waits
        # too, but nobody is blocked issuing it.
        self.total_wait_ns = 0
        self.commands = 0

    @property
    def pool(self) -> "IoPipeline":
        """The pipeline itself, which carries the timeline's counters:
        ``benchmarks/perf/workloads.py`` reads
        ``pipeline.pool.total_busy_ns``."""
        return self

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
    ) -> int:
        """Charge one command issued at ``now`` and return its completion
        time: the fault injector sees it first (when one is armed and the
        caller has not shown it the command already), then it occupies
        the timeline, then its record goes on the trace stream.  The
        clock is the caller's to move: a batch charges every command at
        one ``now`` and advances to the last foreground completion, which
        on one serial timeline is exactly a loop of single commands."""
        if self.faults is not None and not gated:
            service_ns += self.inject(
                op, offset, length, zone, layer, background, service_ns
            )
        if service_ns < 0:
            raise ValueError(f"service_ns must be non-negative, got {service_ns}")
        start = self.busy_until
        if start < now:
            start = now
        self.busy_until = done = start + service_ns
        self.total_busy_ns += service_ns
        self.commands += 1
        if not background:
            self.total_wait_ns += start - now
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                layer, op, offset, length, zone, background, now, done,
                start - now, service_ns, 0,
            )
        return done

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
        clock.now = done = self.charge(
            layer, op, offset, length, zone, False, now, service_ns, gated
        )
        return IoCompletion(done - now)

    def __repr__(self) -> str:
        return f"IoPipeline({self.name!r}, busy_until={self.busy_until})"
