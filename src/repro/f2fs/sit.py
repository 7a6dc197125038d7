"""Segment Info Table: per-section validity tracking.

Real F2FS keeps a SIT entry per segment with a validity bitmap; the
cleaner aggregates them per section.  Here the table tracks validity at
section granularity directly (sections are the cleaning unit), and each
section's entry stores the owner of every block — ``None`` when the
block is free — so a block is valid exactly when it has an owner, and
the cleaner reads the file mapping to update from the same entry.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Tuple

from repro.errors import SectionInUseError

# (file_id, file_block_index) — who owns a valid main-area block.
BlockOwner = Tuple[int, int]


class SectionEntry:
    """One section: ``owners[offset]`` is the block's owner or ``None``,
    and ``valid_count`` how many blocks have one."""

    __slots__ = ("owners", "valid_count")

    def __init__(self, blocks: int) -> None:
        self.owners: List[Optional[BlockOwner]] = [None] * blocks
        self.valid_count = 0


class SegmentInfoTable:
    """One :class:`SectionEntry` per section."""

    def __init__(self, num_sections: int, blocks_per_section: int) -> None:
        if num_sections < 1 or blocks_per_section < 1:
            raise ValueError("need at least one section and one block per section")
        self.num_sections = num_sections
        self.blocks_per_section = blocks_per_section
        self.sections: List[SectionEntry] = [
            SectionEntry(blocks_per_section) for _ in range(num_sections)
        ]
        self.total_valid_blocks = 0

    def mark_valid_run(
        self, first_addr: int, count: int, file_id: int, first_file_block: int
    ) -> None:
        """Blocks ``[first_addr, first_addr + count)`` — one run inside
        one section — now hold file blocks ``first_file_block``… of
        ``file_id``: one slice store into the section's owners."""
        per_section = self.blocks_per_section
        section, offset = divmod(first_addr, per_section)
        end = offset + count
        if not 0 <= section < self.num_sections or not offset <= end <= per_section:
            raise self._outside(first_addr, count)
        entry = self.sections[section]
        owners = entry.owners
        fresh = owners[offset:end].count(None)
        owners[offset:end] = zip(
            repeat(file_id, count), range(first_file_block, first_file_block + count)
        )
        entry.valid_count += fresh
        self.total_valid_blocks += fresh

    def mark_invalid_run(self, first_addr: int, count: int) -> None:
        """Blocks ``[first_addr, first_addr + count)`` (inside one
        section) are stale; already-invalid ones stay so."""
        per_section = self.blocks_per_section
        section, offset = divmod(first_addr, per_section)
        end = offset + count
        if not 0 <= section < self.num_sections or not offset <= end <= per_section:
            raise self._outside(first_addr, count)
        entry = self.sections[section]
        owners = entry.owners
        gone = count - owners[offset:end].count(None)
        owners[offset:end] = repeat(None, count)
        entry.valid_count -= gone
        self.total_valid_blocks -= gone

    def mark_valid(self, block_addr: int, owner: BlockOwner) -> None:
        self.mark_valid_run(block_addr, 1, owner[0], owner[1])

    def mark_invalid(self, block_addr: int) -> None:
        self.mark_invalid_run(block_addr, 1)

    def is_valid(self, block_addr: int) -> bool:
        return self.owner_of(block_addr) is not None

    def owner_of(self, block_addr: int) -> Optional[BlockOwner]:
        section, offset = divmod(block_addr, self.blocks_per_section)
        if not 0 <= section < self.num_sections:
            raise self._outside(block_addr)
        return self.sections[section].owners[offset]

    def valid_count(self, section: int) -> int:
        return self.sections[section].valid_count

    def valid_fraction(self, section: int) -> float:
        return self.sections[section].valid_count / self.blocks_per_section

    def valid_blocks(self, section: int) -> List[int]:
        """Block addresses of valid blocks in a section (ascending)."""
        base = section * self.blocks_per_section
        owners = self.sections[section].owners
        return [base + offset for offset, owner in enumerate(owners) if owner is not None]

    def require_empty(self, section: int) -> None:
        """Refuse a section that still owns a valid block: cleaning moves
        or drops every block of its victim before the section is reset."""
        valid = self.sections[section].valid_count
        if valid:
            raise SectionInUseError(
                f"section {section} still owns {valid} valid blocks"
            )

    # --- persistence ------------------------------------------------------------

    def to_state(self) -> dict:
        """Serializable snapshot for checkpoints."""
        per_section = self.blocks_per_section
        return {
            "valid": {
                str(section * per_section + offset): list(owner)
                for section, entry in enumerate(self.sections)
                for offset, owner in enumerate(entry.owners)
                if owner is not None
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

    @staticmethod
    def _outside(first_addr: int, count: int = 1) -> IndexError:
        return IndexError(
            f"blocks [{first_addr}, {first_addr + count}) outside one section "
            "of the main area"
        )
