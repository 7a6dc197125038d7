"""Flash admission policies.

Admission decides which sets reach the flash log at all.  ``AdmitAll``
is the paper's configuration and the engine default.
``TinyLfuAdmission`` is frequency-based admission (a seeded count-min
sketch with periodic aging, the W-TinyLFU filter idea): one-hit wonders
never reach flash.  Z-Cache (Z-CacheLib, arxiv 2410.11260) builds one
and reads the same sketch as its flush-time hot/cold classifier.
"""

from __future__ import annotations

import abc
from zlib import crc32
from typing import List, Tuple


class AdmissionPolicy(abc.ABC):
    """Decides whether a (key, value) is written to flash."""

    @abc.abstractmethod
    def admit(self, key: bytes, value: bytes) -> bool: ...


class AdmitAll(AdmissionPolicy):
    """Every set reaches flash (the paper's setup)."""

    def admit(self, key: bytes, value: bytes) -> bool:
        return True


class CountMinSketch:
    """Fixed-size frequency sketch with conservative estimates.

    Hashing is CRC32 with per-row salts derived from the seed — never the
    builtin ``hash``, whose per-process salting would make admission
    decisions (and therefore golden benchmark rows) unrepeatable.
    """

    def __init__(self, width: int, depth: int, seed: int = 42) -> None:
        if width < 8:
            raise ValueError(f"width must be >= 8, got {width}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        # One (counters, salt) pair per row: what every probe walks.
        self._rows: List[Tuple[List[int], int]] = [
            ([0] * width, crc32(f"cms.{seed}.{row}".encode()) & 0xFFFFFFFF)
            for row in range(depth)
        ]

    def estimate(self, key: bytes) -> int:
        width = self.width
        return min(
            counts[crc32(key, salt) % width] for counts, salt in self._rows
        )

    def at_least(self, key: bytes, threshold: int) -> bool:
        """``estimate(key) >= threshold``, stopping at the first row under
        it: the minimum reaches the threshold only if every row does."""
        width = self.width
        for counts, salt in self._rows:
            if counts[crc32(key, salt) % width] < threshold:
                return False
        return True

    def halve(self) -> None:
        """Age every counter (TinyLFU's periodic reset keeps the sketch
        tracking *recent* popularity instead of all-time popularity)."""
        for counts, _ in self._rows:
            counts[:] = [value >> 1 for value in counts]


class TinyLfuAdmission(AdmissionPolicy):
    """Frequency-based admission: only repeatedly-seen keys reach flash.

    Every set records the key in the sketch; the set is admitted once the
    key's estimated frequency (including the current access) reaches
    ``threshold``.  With the default threshold of 2 this is the classic
    "doorkeeper" behaviour — one-hit wonders are filtered, the second
    write within an aging window gets through.
    """

    def __init__(
        self,
        width: int = 2048,
        depth: int = 4,
        threshold: int = 2,
        decay_ops: int = 8192,
        seed: int = 42,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if decay_ops < 1:
            raise ValueError(f"decay_ops must be >= 1, got {decay_ops}")
        self.threshold = threshold
        self.decay_ops = decay_ops
        self.sketch = CountMinSketch(width, depth, seed)
        self._ops = 0

    def admit(self, key: bytes, value: bytes) -> bool:
        # Count the access and read the estimate from before it: one
        # hash per row serves both the read and the increment, so a
        # decision costs ``depth`` CRCs rather than ``2 × depth``.
        sketch = self.sketch
        width = sketch.width
        seen_before = -1
        for counts, salt in sketch._rows:
            slot = crc32(key, salt) % width
            count = counts[slot]
            if seen_before < 0 or count < seen_before:
                seen_before = count
            counts[slot] = count + 1
        self._ops += 1
        if self._ops % self.decay_ops == 0:
            sketch.halve()
        return seen_before + 1 >= self.threshold

    def frequency(self, key: bytes) -> int:
        """Frequency estimate without recording an access — the read-only
        probe Z-Cache's hot/cold classifier uses at region-flush time."""
        return self.sketch.estimate(key)
