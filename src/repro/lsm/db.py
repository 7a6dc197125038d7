"""The database facade (RocksDB stand-in).

``Db`` wires WAL + memtable + levels + compaction over the HDD, with the
DRAM block cache and optional CacheLib secondary cache on the read path.
All I/O flows through the simulated devices, so ``get`` latencies
reflect where each block was found: memtable (ns), DRAM (ns), secondary
flash cache (µs), or HDD (ms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigError, DbClosedError, LsmError
from repro.flash.device import BlockDevice
from repro.lsm.block import MAX_KEY_LEN, MAX_VALUE_LEN, block_get
from repro.lsm.bloom import bloom_hashes
from repro.lsm.block_cache import BlockCache, SecondaryCache
from repro.lsm.compaction import TOMBSTONE, CompactionConfig, Compactor
from repro.lsm.iterator import scan_range
from repro.lsm.manifest import Manifest
from repro.lsm.memtable import Memtable
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.lsm.table_space import TableSpace
from repro.lsm.version import Version
from repro.lsm.wal import WalFullError, WriteAheadLog
from repro.sim.clock import SimClock
from repro.sim.stats import LatencyRecorder, RatioStat
from repro.units import KIB, MIB


@dataclass(frozen=True)
class DbConfig:
    """RocksDB-ish tuning, scaled to the simulation (see DESIGN.md)."""

    memtable_bytes: int = 1 * MIB
    block_cache_bytes: int = 128 * KIB
    wal_bytes: int = 2 * MIB
    manifest_bytes: int = 256 * KIB
    num_levels: int = 4
    compaction: CompactionConfig = field(default_factory=CompactionConfig)
    cpu_get_ns: int = 2_000
    cpu_put_ns: int = 1_500

    def __post_init__(self) -> None:
        minimums = (
            ("memtable_bytes", 1024),  # the memtable's own floor
            ("block_cache_bytes", 0),
            ("wal_bytes", 1),
            ("manifest_bytes", 1),
            ("num_levels", 2),  # L0 plus at least one sorted level
            ("cpu_get_ns", 0),
            ("cpu_put_ns", 0),
        )
        for name, minimum in minimums:
            if getattr(self, name) < minimum:
                raise ConfigError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)}"
                )


@dataclass
class DbStats:
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    memtable_flushes: int = 0
    get_latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("db.get")
    )
    found: RatioStat = field(default_factory=lambda: RatioStat("db.found"))


class Db:
    """LSM key-value store on one block device."""

    def __init__(
        self,
        clock: SimClock,
        device: BlockDevice,
        config: DbConfig = DbConfig(),
        secondary_cache: Optional[SecondaryCache] = None,
    ) -> None:
        self._clock = clock
        self.device = device
        self.config = config
        self.space = TableSpace(device)
        wal_offset = self.space.allocate(config.wal_bytes)
        self.wal = WriteAheadLog(device, wal_offset, config.wal_bytes)
        manifest_offset = self.space.allocate(config.manifest_bytes)
        self.manifest = Manifest(device, manifest_offset, config.manifest_bytes)
        self.memtable = Memtable(config.memtable_bytes)
        self.version = Version(config.num_levels)
        self.compactor = Compactor(self.version, self.space, config.compaction)
        self.block_cache = BlockCache(config.block_cache_bytes, secondary_cache)
        self.stats = DbStats()
        self._open = True

    # --- write path -----------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        # Checked before any effect; values are stored behind a 1-byte tag.
        if len(key) > MAX_KEY_LEN or len(value) >= MAX_VALUE_LEN:
            raise LsmError(
                f"a {len(key)}B key / {len(value)}B value exceeds the limits of "
                f"{MAX_KEY_LEN}B / {MAX_VALUE_LEN - 1}B"
            )
        self._clock.advance(self.config.cpu_put_ns)
        record = b"\x01" + len(key).to_bytes(2, "little") + key + value
        self._wal_append(record)
        self.memtable.put(key, b"\x01" + value)
        self.stats.puts += 1
        if self.memtable.is_full:
            self.flush_memtable()

    def delete(self, key: bytes) -> None:
        self._check_open()
        if len(key) > MAX_KEY_LEN:
            raise LsmError(f"a {len(key)}B key exceeds the {MAX_KEY_LEN}B limit")
        self._clock.advance(self.config.cpu_put_ns)
        self._wal_append(b"\x00" + len(key).to_bytes(2, "little") + key)
        self.memtable.put(key, TOMBSTONE)
        self.stats.deletes += 1
        if self.memtable.is_full:
            self.flush_memtable()

    def _wal_append(self, record: bytes) -> None:
        try:
            self.wal.append(record)
        except WalFullError:
            # The log extent filled before the memtable did: flush (which
            # starts a new WAL epoch) and retry once.
            self.flush_memtable()
            self.wal.append(record)

    def flush_memtable(self) -> None:
        """Memtable → L0 table; triggers compaction as needed."""
        if len(self.memtable) == 0:
            return
        self.wal.sync()
        builder = SSTableBuilder(
            self.compactor.next_table_id(),
            self.space,
            self.config.compaction.block_size,
            self.config.compaction.bits_per_key,
        )
        for key, value in self.memtable.sorted_entries():
            builder.add(key, value)
        table = builder.finish()
        if table is not None:
            self.version.add_l0(table)
        self.memtable.clear()
        self.wal.reset()
        self.stats.memtable_flushes += 1
        self.compactor.maybe_compact()
        self._persist_manifest()

    # --- read path --------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        start_ns = self._clock.now
        self._clock.advance(self.config.cpu_get_ns)
        self.stats.gets += 1
        encoded = self.memtable.get(key)
        if encoded is None:
            encoded = self._search_tables(key)
        self.stats.get_latency.record(self._clock.now - start_ns)
        if encoded is None or encoded == TOMBSTONE:
            self.stats.found.record(False)
            return None
        self.stats.found.record(True)
        return encoded[1:]

    def _search_tables(self, key: bytes) -> Optional[bytes]:
        hashes = bloom_hashes(key)  # once, for every table probed
        for table in self.version.candidates_for(key):  # key is in their ranges
            if not table.bloom.may_contain(key, hashes):
                continue
            handle = table.block_for(key)
            if handle is None:
                continue
            cache_key = (table.table_id, handle.offset)
            blob = self.block_cache.get(cache_key)
            if blob is None:
                blob = table.read_block(handle)
                self.block_cache.put(cache_key, blob)
            value = block_get(blob, key)
            if value is not None:
                return value
        return None

    # --- iteration --------------------------------------------------------------------

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> "Iterator[Tuple[bytes, bytes]]":
        """Ordered (key, value) pairs in ``[start, end)`` across all levels."""
        self._check_open()
        sources = [iter(self.memtable.sorted_entries())]
        for table in self.version.levels[0]:
            sources.append(table.iter_entries())
        for level in range(1, self.version.num_levels):
            for table in self.version.levels[level]:
                sources.append(table.iter_entries())
        return scan_range(sources, start, end)

    def items(self) -> "Iterator[Tuple[bytes, bytes]]":
        """Full ordered scan."""
        return self.scan()

    # --- durability --------------------------------------------------------------------

    def _persist_manifest(self) -> None:
        levels = [
            [(t.table_id, t.extent_offset, t.extent_size) for t in level]
            for level in self.version.levels
        ]
        self.manifest.store(
            levels, self.compactor._next_table_id, self.wal.epoch
        )

    def sync_wal(self) -> None:
        """Force buffered WAL records to the device (fsync semantics).

        Without this, records still in the WAL's write buffer are lost on
        a crash — exactly like RocksDB without per-write WAL fsync.
        """
        self._check_open()
        self.wal.sync()

    def simulate_crash(self) -> None:
        """Power loss: all volatile state is gone, nothing is flushed.

        The device keeps the tables, manifest and WAL; use
        :meth:`reopen` on the same device to recover.
        """
        self.memtable.clear()
        self._open = False

    @classmethod
    def reopen(
        cls,
        clock: SimClock,
        device: BlockDevice,
        config: DbConfig = DbConfig(),
        secondary_cache: Optional[SecondaryCache] = None,
    ) -> "Db":
        """Recover a database from its manifest, table footers, and WAL."""
        db = cls(clock, device, config, secondary_cache)
        state = db.manifest.load()
        if state is None:
            # Crash before the first flush: no tables yet, recover the
            # initial WAL epoch alone.
            state = {
                "levels": [[] for _ in range(config.num_levels)],
                "next_table_id": db.compactor._next_table_id,
                "wal_epoch": 1,
            }
        for level_index, records in enumerate(state["levels"]):
            tables = []
            for _table_id, extent_offset, extent_size in records:
                db.space.reserve(extent_offset, extent_size)
                tables.append(SSTable.open(db.space, extent_offset, extent_size))
            if level_index == 0:
                for table in reversed(tables):  # stored newest-first
                    db.version.add_l0(table)
            else:
                db.version.install_level(level_index, tables)
        db.compactor._next_table_id = state["next_table_id"]
        # Replay the live WAL epoch into the memtable, then flush so the
        # recovered state is durable again.
        db.wal.epoch = state["wal_epoch"]
        replayed = 0
        for record in db.wal.replay(db.wal.epoch):
            kind = record[0]
            key_len = int.from_bytes(record[1:3], "little")
            key = record[3 : 3 + key_len]
            if kind == 1:
                db.memtable.put(key, b"\x01" + record[3 + key_len :])
            else:
                db.memtable.put(key, TOMBSTONE)
            replayed += 1
        if replayed:
            db.flush_memtable()
        else:
            db.wal.reset()
        return db

    # --- lifecycle -----------------------------------------------------------------------

    def close(self) -> None:
        """Flush outstanding state and refuse further operations."""
        if self._open:
            self.flush_memtable()
            self._open = False

    def level_stats(self) -> Dict[str, int]:
        return self.version.stats()

    def _check_open(self) -> None:
        if not self._open:
            raise DbClosedError("database is closed")

    def __repr__(self) -> str:
        return (
            f"Db(tables={self.version.table_count()}, "
            f"memtable={self.memtable.size_bytes}B, "
            f"gets={self.stats.gets}, puts={self.stats.puts})"
        )
