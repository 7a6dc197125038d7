"""Leveled compaction.

L0 flushes stack up overlapping tables; when the trigger count is
reached they merge with the overlapping part of L1.  Deeper levels spill
into the next level when they exceed their size target (growing by a
multiplier per level, as in RocksDB's level compaction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.lsm.block import MIN_BLOCK_SIZE
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.lsm.table_space import TableSpace
from repro.lsm.version import Version

TOMBSTONE = b"\x00"  # value-type prefix for deletes; puts use b"\x01"+value


@dataclass(frozen=True)
class CompactionConfig:
    l0_trigger: int = 4
    l1_target_bytes: int = 4 * 1024 * 1024
    level_multiplier: int = 8
    max_table_bytes: int = 512 * 1024
    block_size: int = 4096
    bits_per_key: int = 10

    def __post_init__(self) -> None:
        minimums = (
            ("l0_trigger", 1),
            ("l1_target_bytes", 1),
            ("level_multiplier", 1),
            ("max_table_bytes", 1),
            ("block_size", MIN_BLOCK_SIZE),
            ("bits_per_key", 1),
        )
        for name, minimum in minimums:
            if getattr(self, name) < minimum:
                raise ConfigError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)}"
                )


class Compactor:
    """Merges tables level by level; owns table-id allocation."""

    def __init__(
        self, version: Version, space: TableSpace, config: CompactionConfig
    ) -> None:
        self.version = version
        self.space = space
        self.config = config
        self._next_table_id = 1
        self.compactions_run = 0
        self.bytes_compacted = 0

    def next_table_id(self) -> int:
        table_id = self._next_table_id
        self._next_table_id += 1
        return table_id

    def level_target_bytes(self, level: int) -> int:
        if level < 1:
            raise ValueError("targets are defined for L1+")
        return self.config.l1_target_bytes * (
            self.config.level_multiplier ** (level - 1)
        )

    # --- triggers -------------------------------------------------------------------

    def maybe_compact(self) -> int:
        """Run compactions until no trigger fires; returns runs executed."""
        runs = 0
        while True:
            if len(self.version.levels[0]) >= self.config.l0_trigger:
                self._compact_l0()
                runs += 1
                continue
            leveled = self._pick_oversized_level()
            if leveled is not None:
                self._compact_level(leveled)
                runs += 1
                continue
            return runs

    def _pick_oversized_level(self) -> Optional[int]:
        for level in range(1, self.version.num_levels - 1):
            if self.version.level_bytes(level) > self.level_target_bytes(level):
                return level
        return None

    # --- merges -----------------------------------------------------------------------

    def _compact_l0(self) -> None:
        l0 = list(self.version.levels[0])
        l1 = list(self.version.levels[1])
        smallest = min(t.smallest for t in l0)
        largest = max(t.largest for t in l0)
        overlapping = [
            t for t in l1 if not (t.largest < smallest or t.smallest > largest)
        ]
        keep = [t for t in l1 if t not in overlapping]
        # Precedence: L1 (oldest) first, then L0 oldest → newest.
        inputs = overlapping + list(reversed(l0))
        outputs = self._merge(inputs, output_level=1)
        self.version.clear_l0()
        self.version.install_level(1, keep + outputs)
        self._release(inputs)

    def _compact_level(self, level: int) -> None:
        table = self.version.levels[level][0]  # oldest-first rotation
        next_level = level + 1
        overlapping = [
            t
            for t in self.version.levels[next_level]
            if not (t.largest < table.smallest or t.smallest > table.largest)
        ]
        keep_next = [t for t in self.version.levels[next_level] if t not in overlapping]
        inputs = overlapping + [table]
        outputs = self._merge(inputs, output_level=next_level)
        self.version.remove(level, table)
        self.version.install_level(next_level, keep_next + outputs)
        self._release(inputs)

    def _merge(self, inputs: List[SSTable], output_level: int) -> List[SSTable]:
        """Merge inputs (lowest precedence first) into new tables."""
        merged: Dict[bytes, bytes] = {}
        for table in inputs:
            for key, value in table.iter_entries():
                merged[key] = value
            self.bytes_compacted += table.extent_size
        drop_tombstones = output_level == self.version.num_levels - 1
        outputs: List[SSTable] = []
        builder: Optional[SSTableBuilder] = None
        built = 0
        for key in sorted(merged):
            value = merged[key]
            if drop_tombstones and value == TOMBSTONE:
                continue
            if builder is None:
                builder = SSTableBuilder(
                    self.next_table_id(),
                    self.space,
                    self.config.block_size,
                    self.config.bits_per_key,
                )
                built = 0
            builder.add(key, value)
            built += len(key) + len(value)
            if built >= self.config.max_table_bytes:
                table = builder.finish()
                if table is not None:
                    outputs.append(table)
                builder = None
        if builder is not None:
            table = builder.finish()
            if table is not None:
                outputs.append(table)
        self.compactions_run += 1
        return outputs

    def _release(self, tables: List[SSTable]) -> None:
        for table in tables:
            table.release()
