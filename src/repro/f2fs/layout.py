"""On-device layout math for the F2FS-like filesystem.

F2FS divides its main area into *segments* (the allocation unit) grouped
into *sections* (the cleaning unit).  On a zoned device the section size
must equal the zone size so that cleaning a section corresponds exactly
to resetting a zone — this is how mainline F2FS supports ZNS, and it is
the configuration the paper benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigError
from repro.units import KIB


@dataclass(frozen=True)
class F2fsConfig:
    """Filesystem tuning knobs.

    ``provision_ratio`` reserves a fraction of sections for cleaning
    headroom (the paper cites ~20% for F2FS on ZNS).  ``meta_batch_blocks``
    models NAT/SIT journaling: one 4 KiB metadata write to the
    conventional device per that many mapping updates.
    ``cpu_ns_per_block`` charges the per-block indexing overhead that
    makes a filesystem heavier than the region middle layer.
    """

    block_size: int = 4 * KIB
    segments_per_section: int = 4
    provision_ratio: float = 0.20
    meta_batch_blocks: int = 64
    # Per-block indexing CPU (node tree walk, NAT lookup, SIT update).
    # Deliberately heavy relative to the middle layer's single map probe:
    # this is the "internal indexing ... not designed and optimized for
    # cache" overhead of §1/§3.1.
    cpu_ns_per_block: int = 20_000
    # One node block is written to the NODE log per this many mapped data
    # blocks (direct-node granularity).  Node writes are the filesystem's
    # own WA contribution on top of cleaning.
    blocks_per_node: int = 512
    checkpoint_interval_blocks: int = 4096

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigError("block_size must be positive")
        if self.segments_per_section < 1:
            raise ConfigError("segments_per_section must be >= 1")
        if not 0.0 <= self.provision_ratio < 0.9:
            raise ConfigError("provision_ratio must be in [0, 0.9)")
        if self.meta_batch_blocks < 1:
            raise ConfigError("meta_batch_blocks must be >= 1")
        if self.cpu_ns_per_block < 0:
            raise ConfigError("cpu_ns_per_block must be >= 0")
        if self.blocks_per_node < 1:
            raise ConfigError("blocks_per_node must be >= 1")
        if self.checkpoint_interval_blocks < 1:
            raise ConfigError("checkpoint_interval_blocks must be >= 1")


@dataclass(frozen=True)
class F2fsLayout:
    """Derived geometry binding the filesystem to a zoned device."""

    zone_size: int
    num_sections: int
    block_size: int
    segments_per_section: int
    reserved_sections: int

    @classmethod
    def for_device(
        cls, zone_size: int, num_zones: int, config: F2fsConfig
    ) -> "F2fsLayout":
        if zone_size % (config.block_size * config.segments_per_section) != 0:
            raise ValueError(
                f"zone size {zone_size} must be a multiple of "
                f"{config.segments_per_section} segments of blocks"
            )
        reserved = max(2, int(num_zones * config.provision_ratio))
        if reserved >= num_zones:
            raise ValueError(
                f"provisioning reserves {reserved} of {num_zones} sections; "
                "nothing left for data"
            )
        return cls(
            zone_size=zone_size,
            num_sections=num_zones,
            block_size=config.block_size,
            segments_per_section=config.segments_per_section,
            reserved_sections=reserved,
        )

    @cached_property
    def blocks_per_section(self) -> int:
        return self.zone_size // self.block_size

    @property
    def blocks_per_segment(self) -> int:
        return self.blocks_per_section // self.segments_per_section

    @property
    def usable_sections(self) -> int:
        """Sections available for live data (total minus provisioning)."""
        return self.num_sections - self.reserved_sections

    @property
    def usable_blocks(self) -> int:
        return self.usable_sections * self.blocks_per_section

    @property
    def usable_bytes(self) -> int:
        return self.usable_blocks * self.block_size

    def section_of_block(self, block_addr: int) -> int:
        return block_addr // self.blocks_per_section

    def block_offset_in_section(self, block_addr: int) -> int:
        return block_addr % self.blocks_per_section

    def device_offset(self, block_addr: int) -> int:
        """Byte offset on the zoned device for a main-area block address.

        A section is exactly one zone and a zone a whole number of
        blocks, so section ``s``, block ``o`` sits at ``s * zone_size +
        o * block_size`` — the block address times the block size.
        """
        return block_addr * self.block_size

    def block_addr(self, section: int, offset: int) -> int:
        return section * self.blocks_per_section + offset
