"""The database facade (RocksDB stand-in).

``Db`` wires WAL + memtable + levels + compaction over the HDD, with the
DRAM block cache and optional CacheLib secondary cache on the read path.
All I/O flows through the simulated devices, so ``get`` latencies
reflect where each block was found: memtable (ns), DRAM (ns), secondary
flash cache (µs), or HDD (ms).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigError, DbClosedError, LsmError, LsmTypeError
from repro.flash.device import BlockDevice
from repro.lsm.block import MAX_KEY_LEN, MAX_VALUE_LEN
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
        # Key plus value bytes of the longest put or delete: its record is
        # a 1-byte kind and a 2-byte key length ahead of them.
        self._max_put_bytes = self.wal.max_record_bytes - 3
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
        if not self._open:
            raise DbClosedError("database is closed")
        if type(key) is not bytes or type(value) is not bytes:
            self._refuse_type(key, value)
        key_len, value_len = len(key), len(value)
        # Checked before any effect; values are stored behind a 1-byte tag.
        if (
            key_len > MAX_KEY_LEN
            or value_len >= MAX_VALUE_LEN
            or key_len + value_len > self._max_put_bytes
        ):
            self._refuse(key_len, value_len)
        self._clock.now += self.config.cpu_put_ns  # validated >= 0
        record = b"\x01" + key_len.to_bytes(2, "little") + key + value
        wal = self.wal
        try:
            wal.append(record)
        except WalFullError:
            # The log extent filled before the memtable did: flush (which
            # starts a new WAL epoch, which holds any record put accepts)
            # and retry once.
            self.flush_memtable()
            wal.append(record)
        self.stats.puts += 1
        if self.memtable.put(key, b"\x01" + value):
            self.flush_memtable()

    def delete(self, key: bytes) -> None:
        if not self._open:
            raise DbClosedError("database is closed")
        if type(key) is not bytes:
            self._refuse_type(key)
        key_len = len(key)
        if key_len > MAX_KEY_LEN or key_len > self._max_put_bytes:
            self._refuse(key_len, 0)
        self._clock.now += self.config.cpu_put_ns
        record = b"\x00" + key_len.to_bytes(2, "little") + key
        wal = self.wal
        try:
            wal.append(record)
        except WalFullError:
            self.flush_memtable()
            wal.append(record)
        self.stats.deletes += 1
        if self.memtable.put(key, TOMBSTONE):
            self.flush_memtable()

    @staticmethod
    def _refuse_type(*objects: object) -> None:
        raise LsmTypeError(
            "keys and values must be bytes, got "
            + " and ".join(type(o).__name__ for o in objects)
        )

    def _refuse(self, key_len: int, value_len: int) -> None:
        raise LsmError(
            f"a {key_len}B key / {value_len}B value exceeds the limits of "
            f"{MAX_KEY_LEN}B / {MAX_VALUE_LEN - 1}B, or the "
            f"{self._max_put_bytes}B of key and value one "
            f"{self.config.wal_bytes}B WAL epoch holds"
        )

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
        builder.add_run(self.memtable.sorted_entries())
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
        if not self._open:
            raise DbClosedError("database is closed")
        if type(key) is not bytes:  # before any effect, and any plan
            self._refuse_type(key)
        clock = self._clock
        start_ns = clock.now
        clock.now = start_ns + self.config.cpu_get_ns  # validated >= 0
        stats = self.stats
        stats.gets += 1
        encoded = self.memtable.get(key)
        if encoded is None:
            encoded = self._search_tables(key)
        recorder = stats.get_latency
        recorder._samples.append(clock.now - start_ns)
        recorder._sorted = None
        found = stats.found
        found.total += 1
        if encoded is None or encoded == TOMBSTONE:
            return None
        found.hits += 1
        return encoded[1:]

    def _search_tables(self, key: bytes) -> Optional[bytes]:
        """The newest stored entry of ``key``: its read plan's steps in
        order (built by ``Version.read_plan`` on first use), stopping at
        the first table that holds it."""
        plans = self.version.plans
        plan = plans.get(key)
        if plan is None:
            plan = self.version.read_plan(key)
        else:
            plans.move_to_end(key)
        block_cache = self.block_cache
        for table, block, block_key in plan:
            blob = block_cache.get(block_key)
            if blob is None:
                blob = table.read_block(self.device, table.index_handles[block])
                block_cache.put(block_key, blob)
            index = table.entry_indexes[block]
            if index is None:
                index = table.index_block(block, blob)
            keys, starts, ends = index
            slot = bisect_left(keys, key)
            if slot < len(keys) and keys[slot] == key:
                return blob[starts[slot] : ends[slot]]
        return None

    # --- iteration --------------------------------------------------------------------

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> "Iterator[Tuple[bytes, bytes]]":
        """Ordered (key, value) pairs in ``[start, end)`` across all levels."""
        self._check_open()
        sources = [iter(self.memtable.sorted_entries())]
        for level in self.version.levels:  # L0 newest first, then L1+
            for table in level:
                sources.append(table.iter_entries(self.device))
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
            # A new epoch, so no stale block of the old one (a torn tail)
            # is replayed after the next record, recorded in the manifest
            # as a flush records it: else the next recovery replays the
            # old epoch and loses every record written in this one.
            db.wal.reset()
            db._persist_manifest()
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
