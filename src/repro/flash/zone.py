"""Zone descriptor and state machine for the ZNS SSD.

Implements the NVMe ZNS zone states and the transitions driven by
write/append/reset/finish/open/close, as described in the ZNS spec and
the paper's background section (§2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import (
    ConfigError,
    WritePointerError,
    ZoneDeadError,
    ZoneStateError,
)


class ZoneState(enum.Enum):
    """NVMe ZNS zone states (the simulator never uses READ_ONLY/OFFLINE,
    but they are modelled so failure-injection tests can force them)."""

    EMPTY = "empty"
    IMPLICIT_OPEN = "implicit_open"
    EXPLICIT_OPEN = "explicit_open"
    CLOSED = "closed"
    FULL = "full"
    READ_ONLY = "read_only"
    OFFLINE = "offline"


OPEN_STATES = (ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN)
ACTIVE_STATES = OPEN_STATES + (ZoneState.CLOSED,)
DEAD_STATES = (ZoneState.READ_ONLY, ZoneState.OFFLINE)


@dataclass(frozen=True)
class ZoneCostConfig:
    """Per-transition zone-management service costs, in nanoseconds.

    Real ZNS firmware charges every state transition: opening a zone
    allocates a write buffer and XOR context, closing persists partial
    parity, finishing pads the remainder of the stripe, and reset joins
    the erase queue ("Eliminating the Hidden Cost of Zone Management in
    ZNS SSDs", HotStorage'23).  The simulator's historical default —
    every cost zero — flatters the zone-heavy schemes, so all defaults
    stay 0 (bit-identical goldens) and :meth:`measured` supplies a
    preset in the range characterized for commodity ZNS drives.

    ``forced_close`` enables the contention model: when a write would
    implicitly open a zone beyond ``max_open_zones``, the device closes
    the least-recently-written open zone (charged through the I/O
    pipeline, so the tracer attributes the hidden cost) instead of
    failing the write.  Off by default: the historical behaviour is a
    hard :class:`~repro.errors.ZoneResourceError`.
    """

    open_ns: int = 0
    close_ns: int = 0
    finish_ns: int = 0
    reset_ns: int = 0
    forced_close: bool = False

    def __post_init__(self) -> None:
        for name in ("open_ns", "close_ns", "finish_ns", "reset_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def any_nonzero(self) -> bool:
        return bool(self.open_ns or self.close_ns or self.finish_ns or self.reset_ns)

    @classmethod
    def measured(cls) -> "ZoneCostConfig":
        """Measured-cost preset (µs-scale, commodity ZNS characterization):
        open ~30µs, close ~20µs, finish ~1.5ms (stripe padding), reset
        ~1ms (erase-queue admission), with forced closes enabled."""
        return cls(
            open_ns=30_000,
            close_ns=20_000,
            finish_ns=1_500_000,
            reset_ns=1_000_000,
            forced_close=True,
        )


@dataclass
class ZoneMgmtStats:
    """Per-device counters for zone-management commands and their cost.

    The ``*_ns`` fields accumulate the *service time charged through the
    I/O pipeline* for each command family — including the baseline
    command overhead for explicit commands — so they reconcile exactly
    with the sum of ``service_ns`` over the tracer's OPEN/CLOSE/FINISH/
    RESET records.  Implicit opens only charge (and only emit a trace
    record) when ``ZoneCostConfig.open_ns`` is nonzero; the transition
    itself is always counted.
    """

    explicit_opens: int = 0
    implicit_opens: int = 0
    closes: int = 0
    forced_closes: int = 0
    finishes: int = 0
    resets: int = 0
    open_ns: int = 0
    close_ns: int = 0
    finish_ns: int = 0
    reset_ns: int = 0

    @property
    def total_ns(self) -> int:
        return self.open_ns + self.close_ns + self.finish_ns + self.reset_ns


@dataclass
class Zone:
    """One zone: fixed location, sequential write pointer, state."""

    index: int
    start: int
    size: int
    state: ZoneState = ZoneState.EMPTY
    write_pointer: int = field(default=0)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"zone size must be positive, got {self.size}")
        self.write_pointer = self.start

    @property
    def end(self) -> int:
        """First byte past the zone."""
        return self.start + self.size

    @property
    def written_bytes(self) -> int:
        return self.write_pointer - self.start

    @property
    def remaining_bytes(self) -> int:
        return self.end - self.write_pointer

    @property
    def is_open(self) -> bool:
        return self.state in OPEN_STATES

    @property
    def is_active(self) -> bool:
        """Open or closed — i.e. holds device write resources."""
        return self.state in ACTIVE_STATES

    def contains(self, offset: int, length: int = 1) -> bool:
        return self.start <= offset and offset + length <= self.end

    # --- transitions ------------------------------------------------------------

    @property
    def is_dead(self) -> bool:
        return self.state in DEAD_STATES

    def die(self, state: ZoneState) -> None:
        """Failure injection: force the zone to READ_ONLY or OFFLINE."""
        if state not in DEAD_STATES:
            raise ValueError(f"die() takes READ_ONLY or OFFLINE, got {state}")
        self.state = state

    def check_writable(self, offset: int, length: int) -> None:
        """Validate a write of ``length`` bytes at ``offset``."""
        if self.state in DEAD_STATES:
            raise ZoneDeadError(
                f"zone {self.index} is {self.state.value}; writes not allowed",
                zone_index=self.index,
            )
        if self.state == ZoneState.FULL:
            raise ZoneStateError(
                f"zone {self.index} is {self.state.value}; writes not allowed"
            )
        if offset != self.write_pointer:
            raise WritePointerError(
                f"zone {self.index}: write at {offset} but write pointer is "
                f"{self.write_pointer}"
            )
        if offset + length > self.end:
            raise ZoneStateError(
                f"zone {self.index}: write of {length}B at {offset} crosses the "
                f"zone boundary at {self.end}"
            )

    def advance(self, length: int) -> None:
        """Move the write pointer after a successful write/append."""
        self.write_pointer += length
        if self.write_pointer >= self.end:
            self.state = ZoneState.FULL
        elif self.state == ZoneState.EMPTY or self.state == ZoneState.CLOSED:
            self.state = ZoneState.IMPLICIT_OPEN

    def reset(self) -> None:
        if self.state in DEAD_STATES:
            raise ZoneDeadError(
                f"zone {self.index} is {self.state.value}; cannot reset",
                zone_index=self.index,
            )
        self.write_pointer = self.start
        self.state = ZoneState.EMPTY

    # The explicit transitions validate in a separate ``check_*`` that
    # raises the typed error and changes nothing, so a device can refuse
    # an illegal command before it shows the command to the fault
    # injector.

    def check_alive(self) -> None:
        """Finishing is legal in every state but READ_ONLY / OFFLINE."""
        if self.state in DEAD_STATES:
            raise ZoneDeadError(
                f"zone {self.index} is {self.state.value}", zone_index=self.index
            )

    def finish(self) -> None:
        self.check_alive()
        self.write_pointer = self.end
        self.state = ZoneState.FULL

    def check_open(self) -> None:
        self.check_alive()
        if self.state == ZoneState.FULL:
            raise ZoneStateError(f"zone {self.index} is full; cannot open")

    def open_explicit(self) -> None:
        self.check_open()
        self.state = ZoneState.EXPLICIT_OPEN

    def check_close(self) -> None:
        if self.state not in OPEN_STATES:
            raise ZoneStateError(
                f"zone {self.index} is {self.state.value}; only open zones close"
            )

    def close(self) -> None:
        self.check_close()
        # A closed zone with nothing written reverts to empty per spec.
        if self.write_pointer == self.start:
            self.state = ZoneState.EMPTY
        else:
            self.state = ZoneState.CLOSED
