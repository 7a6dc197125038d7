"""Per-zone region-validity bitmap.

The paper: "The bitmap is a set of 0/1 bits, and it will indicate
whether the region is valid."  One bit per region slot in the zone.
"""

from __future__ import annotations

from typing import List


class SlotBitmap:
    """Fixed-size validity bitmap with O(1) popcount tracking."""

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ValueError(f"num_slots must be positive, got {num_slots}")
        self._bits = 0
        self._num_slots = num_slots
        # Popcount of ``_bits``.  A plain attribute: victim selection
        # reads it for every finished zone on every pick.
        self.valid_count = 0

    @property
    def num_slots(self) -> int:
        return self._num_slots

    @property
    def valid_fraction(self) -> float:
        return self.valid_count / self._num_slots

    def is_set(self, slot: int) -> bool:
        if not 0 <= slot < self._num_slots:
            raise self._out_of_range(slot)
        return bool(self._bits >> slot & 1)

    def set(self, slot: int) -> None:
        if not 0 <= slot < self._num_slots:
            raise self._out_of_range(slot)
        bit = 1 << slot
        if not self._bits & bit:
            self._bits |= bit
            self.valid_count += 1

    def clear(self, slot: int) -> None:
        if not 0 <= slot < self._num_slots:
            raise self._out_of_range(slot)
        bit = 1 << slot
        if self._bits & bit:
            self._bits ^= bit
            self.valid_count -= 1

    def set_run(self, start: int, count: int) -> int:
        """Set slots ``[start, start + count)`` with one mask operation;
        returns how many of them were clear before.  A run reaching
        outside the bitmap raises ``IndexError`` and changes nothing.
        ``set`` is the run of one, without the mask arithmetic."""
        if start < 0 or count < 0 or start + count > self._num_slots:
            raise self._run_outside(start, count)
        mask = ((1 << count) - 1) << start
        fresh = mask & ~self._bits
        changed = count if fresh == mask else bin(fresh).count("1")
        self._bits |= mask
        self.valid_count += changed
        return changed

    def clear_run(self, start: int, count: int) -> int:
        """Clear slots ``[start, start + count)`` with one mask
        operation; returns how many of them were set before (range
        checked like :meth:`set_run`)."""
        if start < 0 or count < 0 or start + count > self._num_slots:
            raise self._run_outside(start, count)
        mask = ((1 << count) - 1) << start
        hit = mask & self._bits
        changed = count if hit == mask else bin(hit).count("1")
        self._bits ^= hit
        self.valid_count -= changed
        return changed

    def _run_outside(self, start: int, count: int) -> IndexError:
        return IndexError(
            f"slots [{start}, {start + count}) outside [0, {self._num_slots})"
        )

    def clear_all(self) -> None:
        self._bits = 0
        self.valid_count = 0

    def valid_slots(self) -> List[int]:
        """Indices of set bits in ascending order, one step per set bit."""
        bits = self._bits
        slots = []
        while bits:
            lowest = bits & -bits
            slots.append(lowest.bit_length() - 1)
            bits ^= lowest
        return slots

    def _out_of_range(self, slot: int) -> IndexError:
        return IndexError(f"slot {slot} outside [0, {self._num_slots})")

    def __repr__(self) -> str:
        return f"SlotBitmap({self.valid_count}/{self._num_slots})"
