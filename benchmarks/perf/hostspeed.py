"""Machine-speed sampling: host seconds at a reference machine speed.

The 2-core sandbox this benchmark is sized for drifts between speed
regimes a factor of ~1.8 apart that last 1-5 s each: too slow to
average out inside a run, too fast to ignore across runs (plain wall
times of the same ``Server.run()`` spread by 15-30% from run to run, and
set-up medians of two sets of ten runs differ by 26%).  So every host
time the benchmark reports is converted to *seconds at the reference
speed*; see README, "Host noise".

This module imports nothing heavy: the runner uses it to time the
import of everything else.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Dict, List

# Iterations per second of :func:`machine_speed`'s loop on the machine
# this benchmark was sized on, in its undisturbed state.
REFERENCE_SPEED = 2.6e6
SAMPLE_INTERVAL_S = 0.05
SAMPLE_ITERATIONS = 1200


def machine_speed(iterations: int = 4000) -> float:
    """Speed of this machine right now, relative to the reference: a
    fixed pure-Python loop (dict, bytes and list work; nothing from
    ``src/``, so no change to the simulator moves it)."""
    table: Dict[bytes, bytes] = {}
    page = bytes(4096)
    kept: List[bytes] = []
    total = 0
    started = time.perf_counter()
    for i in range(iterations):
        key = b"k%012d" % (i & 63)
        value = table.get(key)
        if value is None:
            table[key] = page[: 512 + 32 * (i & 63)]
        else:
            total += len(value)
            kept.append(value[16:64])
        if len(kept) > 256:
            del kept[:]
    return iterations / (time.perf_counter() - started) / REFERENCE_SPEED


class SpeedSampler:
    """Measures the machine's speed while a timed window runs.

    A ``SIGALRM`` timer interrupts the (single) thread every
    ``SAMPLE_INTERVAL_S`` and times :func:`machine_speed`; the timed
    region's wall time, less the time spent sampling, is multiplied by
    the mean of the samples.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.sampling_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(machine_speed(SAMPLE_ITERATIONS))
        self.sampling_s += time.perf_counter() - started

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(machine_speed())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(machine_speed())

    def at_reference_speed(self, wall_s: float) -> float:
        return (wall_s - self.sampling_s) * statistics.fmean(self.samples)

