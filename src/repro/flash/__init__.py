"""Simulated storage devices.

This package provides the hardware substrate the paper's evaluation runs
on, re-implemented as deterministic simulators:

* :class:`BlockSsd` — a conventional block-interface SSD with a
  page-mapped FTL, over-provisioning, and greedy device-level garbage
  collection (the paper's WD SN540 stand-in).
* :class:`ZnsSsd` — a Zoned Namespace SSD with the full zone state
  machine, write pointers, append/reset/finish, and *no* device GC (the
  paper's WD ZN540 stand-in).
* :class:`NullBlkDevice` — a RAM-backed block device (the paper uses
  nullblk for F2FS's conventional metadata area).
* :class:`HddDevice` — a seek+rotation hard drive model used as the
  RocksDB backend in the end-to-end experiments.

All devices share one :class:`~repro.sim.SimClock` and account host vs
media writes so write amplification can be measured exactly.
"""

from repro.sim.io import IoCompletion, IoTracer, PoolConfig
from repro.flash.nand import NandGeometry, NandTiming
from repro.flash.device import BlockDevice, DeviceStats
from repro.flash.blockssd import BlockSsd, BlockSsdConfig
from repro.flash.ftl import PageMappedFtl, FtlConfig
from repro.flash.zone import Zone, ZoneState
from repro.flash.znsssd import ZnsSsd, ZnsConfig
from repro.flash.nullblk import NullBlkDevice
from repro.flash.hdd import HddDevice, HddConfig

__all__ = [
    "NandGeometry",
    "NandTiming",
    "BlockDevice",
    "DeviceStats",
    "IoCompletion",
    "IoTracer",
    "PoolConfig",
    "BlockSsd",
    "BlockSsdConfig",
    "PageMappedFtl",
    "FtlConfig",
    "Zone",
    "ZoneState",
    "ZnsSsd",
    "ZnsConfig",
    "NullBlkDevice",
    "HddDevice",
    "HddConfig",
]
