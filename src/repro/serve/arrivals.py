"""Open-loop arrival processes for the serving layer.

The closed-loop CacheBench driver issues the next request only after the
previous one completes, so it can never overload anything.  Production
traffic does not wait: requests arrive on their own schedule, queues
grow when the device falls behind, and tail latency explodes past the
saturation knee.  These processes model that schedule.

All of them draw inter-arrival gaps from one seeded
:class:`~repro.workloads.distributions.ExponentialSampler`, so the
diurnal and bursty variants are Poisson streams with a deterministic
time-varying rate — the standard thinning-free construction for a
simulation that only ever asks "when is the *next* arrival?".
"""

from __future__ import annotations

import abc
import math
from itertools import accumulate
from typing import List

from repro.errors import ConfigError
from repro.workloads.distributions import ExponentialSampler

# The shapes of the modulated tenant streams: the diurnal swing (rate ×
# (1 ± DIURNAL_AMPLITUDE) over DIURNAL_PERIOD_S) and the burst cycle
# (BURST_ON_S at the burst rate, then BURST_OFF_S below the mean).
DIURNAL_AMPLITUDE = 0.5
DIURNAL_PERIOD_S = 0.2
BURST_ON_S = 0.02
BURST_OFF_S = 0.08


class ArrivalProcess(abc.ABC):
    """Produces the next arrival timestamp given the current one."""

    @abc.abstractmethod
    def next_arrival_ns(self, now_ns: int) -> int:
        """Virtual time of the next arrival strictly after ``now_ns``."""

    def pregenerate(self, n: int) -> List[int]:
        """First ``n`` arrival timestamps of the chained stream.

        Bit-identical to ``t = next_arrival_ns(0)`` followed by
        ``t = next_arrival_ns(t)`` ``n - 1`` times — the recurrence the
        serving loop runs — but drawn in bulk.  The modulated processes
        override :meth:`rate_at`; the inverse transform here mirrors
        ``ExponentialSampler.sample_at`` exactly.
        """
        us = self._gaps.draw_uniforms(n)
        if not isinstance(us, list):
            us = us.tolist()  # C-speed unboxing; values are identical
        log = math.log
        if type(self).rate_at is ArrivalProcess.rate_at:
            # Constant rate: gaps are independent of elapsed time, so
            # they fall out of a listcomp (same per-element float op
            # order as the chained loop) and accumulate() chains them.
            rate = self.rate_ops_per_sec
            gaps = [max(1, int((-log(1.0 - u) / rate) * 1e9)) for u in us]
            return list(accumulate(gaps))
        rate_at = self.rate_at
        times: List[int] = []
        t = 0
        for u in us:
            t += max(1, int((-log(1.0 - u) / rate_at(t)) * 1e9))
            times.append(t)
        return times

    def rate_at(self, now_ns: int) -> float:
        """Instantaneous rate; constant for plain Poisson arrivals."""
        return self.rate_ops_per_sec


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a fixed mean rate."""

    def __init__(self, rate_ops_per_sec: float, seed: int = 1) -> None:
        if rate_ops_per_sec <= 0:
            raise ConfigError(
                f"rate_ops_per_sec must be positive, got {rate_ops_per_sec}"
            )
        self.rate_ops_per_sec = rate_ops_per_sec
        self._gaps = ExponentialSampler(rate_ops_per_sec, seed)

    def next_arrival_ns(self, now_ns: int) -> int:
        return now_ns + self._gaps.sample()


class DiurnalArrivals(ArrivalProcess):
    """Poisson arrivals whose rate swings sinusoidally around a mean.

    ``amplitude`` in [0, 1) scales the swing: the instantaneous rate is
    ``base * (1 + amplitude * sin(2*pi*t/period))``, the compressed
    day/night cycle of a user-facing cache fleet.
    """

    def __init__(
        self,
        rate_ops_per_sec: float,
        amplitude: float = DIURNAL_AMPLITUDE,
        period_s: float = DIURNAL_PERIOD_S,
        seed: int = 1,
    ) -> None:
        if rate_ops_per_sec <= 0:
            raise ConfigError(
                f"rate_ops_per_sec must be positive, got {rate_ops_per_sec}"
            )
        if not 0.0 <= amplitude < 1.0:
            raise ConfigError(f"amplitude must be in [0, 1), got {amplitude}")
        if period_s <= 0:
            raise ConfigError(f"period_s must be positive, got {period_s}")
        self.rate_ops_per_sec = rate_ops_per_sec
        self.amplitude = amplitude
        self.period_ns = int(period_s * 1e9)
        self._gaps = ExponentialSampler(rate_ops_per_sec, seed)

    def rate_at(self, now_ns: int) -> float:
        phase = 2.0 * math.pi * (now_ns % self.period_ns) / self.period_ns
        return self.rate_ops_per_sec * (1.0 + self.amplitude * math.sin(phase))

    def next_arrival_ns(self, now_ns: int) -> int:
        return now_ns + self._gaps.sample_at(self.rate_at(now_ns))


class BurstArrivals(ArrivalProcess):
    """On/off (interrupted Poisson) arrivals: bursts at a multiplied rate.

    During the on-phase the rate is ``base * burst_factor``; during the
    off-phase it drops so the *mean* over a full cycle equals ``base``
    (offered load comparisons against a plain Poisson tenant stay fair).
    The off-rate floor keeps the stream from stalling entirely.
    """

    def __init__(
        self,
        rate_ops_per_sec: float,
        burst_factor: float = 4.0,
        on_s: float = BURST_ON_S,
        off_s: float = BURST_OFF_S,
        seed: int = 1,
    ) -> None:
        if rate_ops_per_sec <= 0:
            raise ConfigError(
                f"rate_ops_per_sec must be positive, got {rate_ops_per_sec}"
            )
        if burst_factor < 1.0:
            raise ConfigError(f"burst_factor must be >= 1, got {burst_factor}")
        if on_s <= 0 or off_s < 0:
            raise ConfigError("on_s must be positive and off_s non-negative")
        self.rate_ops_per_sec = rate_ops_per_sec
        self.burst_factor = burst_factor
        self.on_ns = int(on_s * 1e9)
        self.off_ns = int(off_s * 1e9)
        cycle = on_s + off_s
        # Solve on_rate*on + off_rate*off = base*cycle with the burst
        # multiplier applied to the on-phase.
        self.on_rate = rate_ops_per_sec * burst_factor
        if off_s > 0:
            off_rate = (rate_ops_per_sec * cycle - self.on_rate * on_s) / off_s
            self.off_rate = max(off_rate, rate_ops_per_sec * 0.01)
        else:
            self.off_rate = self.on_rate
        self._gaps = ExponentialSampler(rate_ops_per_sec, seed)

    def rate_at(self, now_ns: int) -> float:
        cycle_ns = self.on_ns + self.off_ns
        return self.on_rate if (now_ns % cycle_ns) < self.on_ns else self.off_rate

    def next_arrival_ns(self, now_ns: int) -> int:
        return now_ns + self._gaps.sample_at(self.rate_at(now_ns))


class FlashCrowdArrivals(ArrivalProcess):
    """A one-off flash crowd: the rate jumps and decays exponentially.

    Until ``at_s`` the stream is plain Poisson at the base rate; at
    ``at_s`` the rate jumps to ``base * peak_factor`` and relaxes back
    toward the base with time constant ``decay_s``.  This is the
    post-invalidation recovery shape: a namespace bump empties the
    working set, every reader misses at once, and the refill traffic
    decays as the cache rewarms.
    """

    def __init__(
        self,
        rate_ops_per_sec: float,
        peak_factor: float = 4.0,
        at_s: float = 0.05,
        decay_s: float = 0.05,
        seed: int = 1,
    ) -> None:
        if rate_ops_per_sec <= 0:
            raise ConfigError(
                f"rate_ops_per_sec must be positive, got {rate_ops_per_sec}"
            )
        if peak_factor < 1.0:
            raise ConfigError(f"peak_factor must be >= 1, got {peak_factor}")
        if at_s < 0 or decay_s <= 0:
            raise ConfigError("at_s must be non-negative and decay_s positive")
        self.rate_ops_per_sec = rate_ops_per_sec
        self.peak_factor = peak_factor
        self.at_ns = int(at_s * 1e9)
        self.decay_ns = int(decay_s * 1e9)
        self._gaps = ExponentialSampler(rate_ops_per_sec, seed)

    def rate_at(self, now_ns: int) -> float:
        if now_ns < self.at_ns:
            return self.rate_ops_per_sec
        boost = (self.peak_factor - 1.0) * math.exp(
            -(now_ns - self.at_ns) / self.decay_ns
        )
        return self.rate_ops_per_sec * (1.0 + boost)

    def next_arrival_ns(self, now_ns: int) -> int:
        return now_ns + self._gaps.sample_at(self.rate_at(now_ns))


class StormArrivals(ArrivalProcess):
    """A bounded storm window: the rate is multiplied during one interval.

    During ``[at_s, at_s + duration_s)`` the rate is ``base *
    storm_factor``; outside it the stream is plain Poisson at the base
    rate.  Pair with a delete-heavy op mix to model a delete storm — a
    tenant tearing down its keyspace in a burst.
    """

    def __init__(
        self,
        rate_ops_per_sec: float,
        storm_factor: float = 4.0,
        at_s: float = 0.05,
        duration_s: float = 0.02,
        seed: int = 1,
    ) -> None:
        if rate_ops_per_sec <= 0:
            raise ConfigError(
                f"rate_ops_per_sec must be positive, got {rate_ops_per_sec}"
            )
        if storm_factor < 1.0:
            raise ConfigError(f"storm_factor must be >= 1, got {storm_factor}")
        if at_s < 0 or duration_s <= 0:
            raise ConfigError("at_s must be non-negative and duration_s positive")
        self.rate_ops_per_sec = rate_ops_per_sec
        self.storm_factor = storm_factor
        self.at_ns = int(at_s * 1e9)
        self.end_ns = self.at_ns + int(duration_s * 1e9)
        self._gaps = ExponentialSampler(rate_ops_per_sec, seed)

    def rate_at(self, now_ns: int) -> float:
        if self.at_ns <= now_ns < self.end_ns:
            return self.rate_ops_per_sec * self.storm_factor
        return self.rate_ops_per_sec

    def next_arrival_ns(self, now_ns: int) -> int:
        return now_ns + self._gaps.sample_at(self.rate_at(now_ns))


ARRIVAL_KINDS = ("poisson", "diurnal", "burst", "flash_crowd", "storm")
