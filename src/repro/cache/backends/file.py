"""File-Cache backend: regions inside one large file on the filesystem.

The paper's first scheme (§3.1, Figure 1a): CacheLib's file engine on a
pre-allocated file, with the filesystem (our F2FS-like substrate on ZNS)
handling allocation, cleaning and indexing — convenient, but it pays
block-granular mapping overhead, filesystem WA, and provisioning space.
"""

from __future__ import annotations

from repro.cache.backends.base import RegionStore, WafRaw
from repro.errors import CacheConfigError
from repro.f2fs.file import F2fsFile
from repro.f2fs.fs import F2fs
from repro.reclaim import GcHints


class FileRegionStore(RegionStore):
    """Region store over a single file on :class:`~repro.f2fs.F2fs`."""

    DEFAULT_FILE_NAME = "cachelib.navy"

    def __init__(
        self,
        fs: F2fs,
        region_size: int,
        num_regions: int,
        file_name: str = DEFAULT_FILE_NAME,
    ) -> None:
        block_size = fs.layout.block_size
        if region_size <= 0 or region_size % block_size != 0:
            raise CacheConfigError(
                f"region_size {region_size} must be a positive multiple of the "
                f"filesystem block size {block_size}"
            )
        if num_regions * region_size > fs.usable_bytes:
            raise CacheConfigError(
                f"cache of {num_regions}×{region_size}B does not fit in the "
                f"filesystem's usable {fs.usable_bytes}B"
            )
        super().__init__(region_size, num_regions, block_size, fs.tracer)
        self.fs = fs
        if fs.exists(file_name):
            self.file: F2fsFile = fs.open(file_name)
        else:
            self.file = fs.create(file_name)

    @property
    def scheme_name(self) -> str:
        return "File-Cache"

    def write_region(self, region_id: int, payload: bytes) -> int:
        if not 0 <= region_id < self.num_regions or len(payload) != self.region_size:
            self.check_write(region_id, payload)  # raises
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("backend", "write_region", length=len(payload)):
                return self.fs.pwrite(
                    self.file.file_id, region_id * self.region_size, payload
                )
        return self.fs.pwrite(self.file.file_id, region_id * self.region_size, payload)

    def _read_window(self, region_id: int, offset: int, length: int) -> bytes:
        return self.fs.pread(
            self.file.file_id, region_id * self.region_size + offset, length
        )

    def invalidate_region(self, region_id: int) -> None:
        """No-op: a file offers no way to declare a range dead.

        This transparency loss is one of the File-Cache costs the paper
        calls out — the filesystem will dutifully migrate dead cache
        bytes during cleaning because it cannot know they are dead.
        The §3.4 repair is :meth:`bind_gc_hints`: let the *cleaner* ask
        the cache about region worth at migration time instead.
        """
        if not 0 <= region_id < self.num_regions:
            self.check_region_id(region_id)  # raises

    def bind_gc_hints(self, hints: GcHints) -> None:
        """Hand the cache's §3.4 hints to the filesystem cleaner.

        The cleaner works in main-area blocks; this binds the block →
        cache-region ownership lookup (via SIT ownership of this store's
        file) with them, so condemned regions' blocks are unmapped
        instead of migrated to the cold log.
        """
        source = self.fs.reclaim.source
        source.region_of_block = self._region_of_block
        source.hints = hints

    def _region_of_block(self, block_addr: int):
        """Cache region owning a main-area block, or None for node
        blocks (negative file ids), other files, and tail slack."""
        owner = self.fs.sit.owner_of(block_addr)
        if owner is None:
            return None
        owner_id, file_block = owner
        if owner_id != self.file.file_id:
            return None
        region_id = file_block * self.fs.layout.block_size // self.region_size
        return region_id if region_id < self.num_regions else None

    def waf_raw(self) -> WafRaw:
        fs_stats = self.fs.stats
        dev_stats = self.fs.data_device.stats
        return WafRaw(
            app_host=fs_stats.host_write_bytes,
            app_total=fs_stats.data_write_bytes + fs_stats.meta_write_bytes,
            dev_host=dev_stats.host_write_bytes,
            dev_total=dev_stats.media_write_bytes,
        )
