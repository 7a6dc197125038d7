"""Filesystem consistency checker (fsck) for the F2FS-like filesystem.

Cross-checks the NAT (file block maps), SIT (block validity + owners),
node map, log heads and zone write pointers.  Used by tests as a
whole-filesystem invariant and available to users debugging a substrate
issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.f2fs.fs import F2fs


@dataclass
class FsckReport:
    """Outcome of a consistency check."""

    errors: List[str] = field(default_factory=list)
    checked_blocks: int = 0
    checked_files: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors

    def add(self, message: str) -> None:
        self.errors.append(message)

    def __repr__(self) -> str:
        status = "clean" if self.clean else f"{len(self.errors)} errors"
        return f"FsckReport({status}, blocks={self.checked_blocks})"


def fsck(fs: F2fs) -> FsckReport:
    """Run all consistency checks; returns a report (never raises)."""
    report = FsckReport()
    _check_nat_vs_sit(fs, report)
    _check_node_map(fs, report)
    _check_no_shared_blocks(fs, report)
    _check_sit_owners_resolve(fs, report)
    _check_log_heads(fs, report)
    _check_valid_below_write_pointer(fs, report)
    return report


def _check_nat_vs_sit(fs: F2fs, report: FsckReport) -> None:
    """Every NAT-mapped data block must be SIT-valid with the right owner."""
    for name in list(fs.nat.file_names()):
        file_id = fs.nat.lookup_file(name)
        report.checked_files += 1
        for file_block in range(fs.nat.size_of(file_id) // fs.layout.block_size + 1):
            addr = fs.nat.get_block(file_id, file_block)
            if addr is None:
                continue
            report.checked_blocks += 1
            if not fs.sit.is_valid(addr):
                report.add(
                    f"file {name!r} block {file_block} maps to {addr}, "
                    "which SIT marks invalid"
                )
                continue
            owner = fs.sit.owner_of(addr)
            if owner != (file_id, file_block):
                report.add(
                    f"block {addr} owner mismatch: SIT says {owner}, "
                    f"NAT says ({file_id}, {file_block})"
                )


def _check_node_map(fs: F2fs, report: FsckReport) -> None:
    """Every node block must be SIT-valid with a node owner."""
    for (file_id, group), addr in fs._node_addr.items():
        report.checked_blocks += 1
        if not fs.sit.is_valid(addr):
            report.add(f"node block {addr} (file {file_id}, group {group}) invalid in SIT")
            continue
        owner = fs.sit.owner_of(addr)
        if owner != (-file_id, group):
            report.add(
                f"node block {addr} owner mismatch: {owner} != ({-file_id}, {group})"
            )


def _check_no_shared_blocks(fs: F2fs, report: FsckReport) -> None:
    """No two file blocks may share a main-area address."""
    seen = {}
    for name in list(fs.nat.file_names()):
        file_id = fs.nat.lookup_file(name)
        for file_block in range(fs.nat.size_of(file_id) // fs.layout.block_size + 1):
            addr = fs.nat.get_block(file_id, file_block)
            if addr is None:
                continue
            if addr in seen:
                report.add(
                    f"block {addr} shared by {seen[addr]} and "
                    f"({file_id}, {file_block})"
                )
            seen[addr] = (file_id, file_block)


def _check_sit_owners_resolve(fs: F2fs, report: FsckReport) -> None:
    """Every SIT-valid block's owner must resolve back through NAT/nodes."""
    for section in range(fs.layout.num_sections):
        for addr in fs.sit.valid_blocks(section):
            owner = fs.sit.owner_of(addr)
            if owner is None:
                report.add(f"valid block {addr} has no owner")
                continue
            file_id, index = owner
            if file_id < 0:
                if fs._node_addr.get((-file_id, index)) != addr:
                    report.add(
                        f"node block {addr} not referenced by the node map"
                    )
            else:
                try:
                    mapped = fs.nat.get_block(file_id, index)
                except KeyError:
                    report.add(f"valid block {addr} owned by unknown file {file_id}")
                    continue
                if mapped != addr:
                    report.add(
                        f"valid block {addr} not referenced by NAT "
                        f"(file {file_id} block {index} -> {mapped})"
                    )


def _check_log_heads(fs: F2fs, report: FsckReport) -> None:
    """Log heads must sit on in-use sections."""
    for stream, head in fs.logs._heads.items():
        if head.section is None:
            continue
        if not 0 <= head.section < fs.layout.num_sections:
            report.add(f"log head {stream.value} on invalid section {head.section}")
        elif fs.logs.is_free(head.section):
            report.add(f"log head {stream.value} points at a free section")


def _check_valid_below_write_pointer(fs: F2fs, report: FsckReport) -> None:
    """No SIT-valid block lies at or past its zone's write pointer."""
    for zone in fs.data_device.zones[: fs.layout.num_sections]:
        for addr in fs.sit.valid_blocks(zone.index):
            if fs.layout.device_offset(addr) >= zone.write_pointer:
                report.add(f"valid block {addr} is past its zone's write pointer")
