"""Segment Info Table: per-section validity tracking.

Real F2FS keeps a SIT entry per segment with a validity bitmap; the
cleaner aggregates them per section.  Here the table tracks validity at
section granularity directly (sections are the cleaning unit) plus the
owner of every valid block so the cleaner can update file mappings when
it migrates data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ztl.bitmap import SlotBitmap

# (file_id, file_block_index) — who owns a valid main-area block.
BlockOwner = Tuple[int, int]


class SegmentInfoTable:
    """Validity bitmaps and block ownership for every section."""

    def __init__(self, num_sections: int, blocks_per_section: int) -> None:
        if num_sections < 1 or blocks_per_section < 1:
            raise ValueError("need at least one section and one block per section")
        self.num_sections = num_sections
        self.blocks_per_section = blocks_per_section
        self._bitmaps: List[SlotBitmap] = [
            SlotBitmap(blocks_per_section) for _ in range(num_sections)
        ]
        self._owners: Dict[int, BlockOwner] = {}
        self.total_valid_blocks = 0

    def mark_valid_run(
        self, first_addr: int, count: int, file_id: int, first_file_block: int
    ) -> None:
        """Blocks ``[first_addr, first_addr + count)`` — one run inside
        one section — now hold file blocks ``first_file_block``… of
        ``file_id``: one mask operation on the section's bitmap."""
        section, offset = divmod(first_addr, self.blocks_per_section)
        if not 0 <= section < self.num_sections:
            raise self._outside(first_addr)
        self.total_valid_blocks += self._bitmaps[section].set_run(offset, count)
        owners = self._owners
        for i in range(count):
            owners[first_addr + i] = (file_id, first_file_block + i)

    def mark_invalid_run(self, first_addr: int, count: int) -> None:
        """Blocks ``[first_addr, first_addr + count)`` (inside one
        section) are stale; already-invalid ones stay so."""
        section, offset = divmod(first_addr, self.blocks_per_section)
        if not 0 <= section < self.num_sections:
            raise self._outside(first_addr)
        self.total_valid_blocks -= self._bitmaps[section].clear_run(offset, count)
        forget = self._owners.pop
        for block_addr in range(first_addr, first_addr + count):
            forget(block_addr, None)

    def mark_valid(self, block_addr: int, owner: BlockOwner) -> None:
        self.mark_valid_run(block_addr, 1, owner[0], owner[1])

    def mark_invalid(self, block_addr: int) -> None:
        self.mark_invalid_run(block_addr, 1)

    def is_valid(self, block_addr: int) -> bool:
        section, offset = self._split(block_addr)
        return self._bitmaps[section].is_set(offset)

    def owner_of(self, block_addr: int) -> Optional[BlockOwner]:
        return self._owners.get(block_addr)

    def valid_count(self, section: int) -> int:
        return self._bitmaps[section].valid_count

    def valid_fraction(self, section: int) -> float:
        return self._bitmaps[section].valid_fraction

    def valid_blocks(self, section: int) -> List[int]:
        """Block addresses of valid blocks in a section (ascending)."""
        base = section * self.blocks_per_section
        return [base + offset for offset in self._bitmaps[section].valid_slots()]

    def wipe_section(self, section: int) -> None:
        """Clear a section after cleaning (all blocks already migrated)."""
        base = section * self.blocks_per_section
        bitmap = self._bitmaps[section]
        self.total_valid_blocks -= bitmap.valid_count
        for offset in list(bitmap.valid_slots()):
            self._owners.pop(base + offset, None)
        bitmap.clear_all()

    # --- persistence ------------------------------------------------------------

    def to_state(self) -> dict:
        """Serializable snapshot for checkpoints."""
        return {
            "valid": {
                str(addr): list(owner) for addr, owner in self._owners.items()
            },
        }

    @classmethod
    def from_state(
        cls, state: dict, num_sections: int, blocks_per_section: int
    ) -> "SegmentInfoTable":
        table = cls(num_sections, blocks_per_section)
        for addr_str, owner in state["valid"].items():
            table.mark_valid(int(addr_str), (owner[0], owner[1]))
        return table

    def _split(self, block_addr: int) -> Tuple[int, int]:
        section, offset = divmod(block_addr, self.blocks_per_section)
        if not 0 <= section < self.num_sections:
            raise self._outside(block_addr)
        return section, offset

    @staticmethod
    def _outside(block_addr: int) -> IndexError:
        return IndexError(f"block {block_addr} outside the main area")
