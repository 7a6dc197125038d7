"""F2FS-like log-structured filesystem on a ZNS SSD (File-Cache substrate).

The paper's first scheme runs CacheLib on a ZNS-compatible filesystem
(F2FS) so that "all the low-level operations including zone allocation,
zone cleaning with GC, and indexing are applied and managed by the file
system" (§3.1).  This package implements the parts of F2FS that matter
for that analysis:

* **Zoned main area** — sections map 1:1 onto device zones; multi-head
  logs (hot data, cold data, node) append sequentially, so the zone
  write-pointer rule is always respected.
* **Conventional metadata area** — NAT/SIT checkpoints land on a
  separate :class:`~repro.flash.NullBlkDevice`, mirroring the paper's
  6 GiB nullblk device.
* **Block-granular mapping** — 4 KiB indexing, the "additional mapping
  overhead" the paper contrasts with the middle layer's region map.
* **Section cleaning** — the filesystem's own
  :class:`~repro.reclaim.ReclaimEngine` (``fs.reclaim``) over a section
  source: cost-benefit / greedy victim selection with background pacing
  (small increments), which is why File-Cache shows the *lowest* tail
  latency in Figure 5(d) despite its overheads.
* **Provisioning** — a reserved fraction of sections (default 20%),
  the "additional space provisioning" the paper charges against F2FS.

The filesystem actually persists: ``checkpoint()`` serializes NAT/SIT to
the metadata device and ``F2fs.mount`` restores them, so tests can
verify remount-consistency.
"""

from repro.f2fs.layout import F2fsConfig, F2fsLayout
from repro.f2fs.sit import SegmentInfoTable
from repro.f2fs.nat import NodeAddressTable
from repro.f2fs.segment import LogManager, LogStream
from repro.f2fs.gc import CleanerConfig
from repro.f2fs.file import F2fsFile
from repro.f2fs.fs import F2fs, F2fsStats
from repro.f2fs.fsck import FsckReport, fsck

__all__ = [
    "F2fsConfig",
    "F2fsLayout",
    "SegmentInfoTable",
    "NodeAddressTable",
    "LogManager",
    "LogStream",
    "CleanerConfig",
    "F2fsFile",
    "F2fs",
    "F2fsStats",
    "FsckReport",
    "fsck",
]
