"""On-flash entry format and index locations.

Entries are byte-packed into regions: a 16-byte header (key length,
value length, absolute expiry time in ns — 0 means no TTL) followed by
key and value bytes.  The index remembers the exact (region, offset,
length) so a get is a single ranged read; the key is stored on flash too
so reads can verify they decoded the entry they were looking for (guards
against stale index entries in tests), and the expiry travels with the
entry exactly as CacheLib keeps it in the item header.

Checksummed entries (``CacheConfig.checksums``) append a CRC32 after the
value and set the high bit of the stored key length, so the format stays
self-describing and the default (non-checksummed) layout is byte-for-byte
unchanged.  The CRC is salted with the owning region's *generation*: a
torn flush can leave a region holding a valid-looking tail from the
previous generation, and only a generation-salted checksum can tell the
two apart during crash recovery (:meth:`EntryCodec.scan_region`).
"""

from __future__ import annotations

import struct
import zlib
from functools import partial
from typing import List, NamedTuple, Tuple

from repro.errors import EntryCorruptError

_HEADER = struct.Struct("<IIQ")  # key length, value length, expiry (ns, 0=none)
# The latest expiry the header can carry; a later one is refused at set().
MAX_EXPIRY_NS = (1 << 64) - 1
_HEADER_SIZE = _HEADER.size
_CRC = struct.Struct("<I")
_CHECKSUM_FLAG = 0x8000_0000


class EntryLocation(NamedTuple):
    """Where an entry lives on flash (a tuple: one is built per set)."""

    region_id: int
    offset: int
    length: int


# ``location_of((region_id, offset, length))``: an :class:`EntryLocation`
# from a plain triple, skipping the namedtuple's Python-level ``__new__``.
location_of = partial(tuple.__new__, EntryLocation)


class DecodedEntry(NamedTuple):
    """One decoded cache entry, as region scans and tests hold it (a
    flash hit reads the bare tuple: :meth:`EntryCodec.read_entry`)."""

    key: bytes
    value: bytes
    expiry_ns: int = 0

    def is_expired(self, now_ns: int) -> bool:
        return self.expiry_ns != 0 and now_ns >= self.expiry_ns


class EntryCodec:
    """Serialize/deserialize cache entries."""

    HEADER_SIZE = _HEADER.size
    CRC_SIZE = _CRC.size

    @classmethod
    def encode(
        cls,
        key: bytes,
        value: bytes,
        expiry_ns: int = 0,
        checksum: bool = False,
        salt: int = 0,
    ) -> bytes:
        """Pack one entry; total size is ``entry_size(key, value, checksum)``."""
        if not checksum:
            return _HEADER.pack(len(key), len(value), expiry_ns) + key + value
        header = _HEADER.pack(len(key) | _CHECKSUM_FLAG, len(value), expiry_ns)
        crc = cls._crc(key, value, expiry_ns, salt)
        return header + key + value + _CRC.pack(crc)

    # ``pack_header_into(buffer, offset, key_len, value_len, expiry_ns)``:
    # the in-place half of :meth:`encode` for an unchecksummed entry.  A
    # writer that owns its buffer copies the key to ``offset +
    # HEADER_SIZE`` and the value right behind it, then stamps the header
    # — last, so a key or value the buffer refuses leaves no parseable
    # entry behind.  ``HybridCache.set`` is the one such writer.
    pack_header_into = _HEADER.pack_into

    @classmethod
    def entry_size(cls, key: bytes, value: bytes, checksum: bool = False) -> int:
        size = cls.HEADER_SIZE + len(key) + len(value)
        return size + cls.CRC_SIZE if checksum else size

    @classmethod
    def decode(cls, blob: bytes) -> Tuple[bytes, bytes]:
        """Unpack (key, value) from ``blob`` (must start at the header)."""
        return cls.read_entry(blob)[:2]

    @classmethod
    def decode_entry(cls, blob: bytes, salt: int = 0) -> DecodedEntry:
        """Unpack a full :class:`DecodedEntry` including expiry (see
        :meth:`read_entry` for what it raises)."""
        return DecodedEntry(*cls.read_entry(blob, salt))

    @classmethod
    def read_entry(cls, blob: bytes, salt: int = 0) -> Tuple[bytes, bytes, int]:
        """``(key, value, expiry_ns)`` of the entry ``blob`` starts with:
        one header unpack, one slice each for key and value.

        Raises :class:`ValueError` on a truncated blob and
        :class:`EntryCorruptError` when a checksummed entry fails its
        salted CRC (torn write or stale previous-generation bytes).
        """
        size = len(blob)
        if size < _HEADER_SIZE:
            raise ValueError(f"entry blob too short: {size}B")
        raw_key_len, value_len, expiry_ns = _HEADER.unpack_from(blob)
        has_crc = raw_key_len & _CHECKSUM_FLAG
        key_end = _HEADER_SIZE + (raw_key_len & ~_CHECKSUM_FLAG)
        need = key_end + value_len
        total = need + _CRC.size if has_crc else need
        if size < total:
            raise ValueError(f"entry blob truncated: {size} < {total}")
        key = blob[_HEADER_SIZE:key_end]
        value = blob[key_end:need]
        if has_crc:
            (stored,) = _CRC.unpack_from(blob, need)
            if stored != cls._crc(key, value, expiry_ns, salt):
                raise EntryCorruptError(
                    f"checksum mismatch for key {key[:24]!r}"
                )
        return key, value, expiry_ns

    @classmethod
    def scan_region(
        cls, payload: bytes, salt: int = 0, require_checksum: bool = False
    ) -> Tuple[List[Tuple[int, int, DecodedEntry]], bool]:
        """Walk packed entries from offset 0 of a region payload.

        Returns ``(entries, torn)`` where each element of ``entries`` is
        ``(offset, length, DecodedEntry)``.  The walk stops at zero
        padding (both stored lengths zero).  ``torn`` is True when the
        payload ends in a truncated or checksum-failing entry — the
        crash-recovery signal for a flush interrupted by a power cut.
        ``require_checksum`` additionally treats non-checksummed bytes
        as torn (a checksummed cache never writes them, so they must be
        stale remnants of an earlier life of the region).
        """
        entries: List[Tuple[int, int, DecodedEntry]] = []
        offset = 0
        size = len(payload)
        while offset + cls.HEADER_SIZE <= size:
            raw_key_len, value_len, _ = _HEADER.unpack_from(payload, offset)
            if raw_key_len == 0 and value_len == 0:
                return entries, False  # zero padding: clean end of data
            has_crc = bool(raw_key_len & _CHECKSUM_FLAG)
            key_len = raw_key_len & ~_CHECKSUM_FLAG
            length = cls.HEADER_SIZE + key_len + value_len
            if has_crc:
                length += cls.CRC_SIZE
            if offset + length > size:
                return entries, True  # entry runs off the end: torn
            if require_checksum and not has_crc:
                return entries, True
            try:
                entry = cls.decode_entry(
                    payload[offset : offset + length], salt=salt
                )
            except (ValueError, EntryCorruptError):
                return entries, True
            entries.append((offset, length, entry))
            offset += length
        # Ran out of payload mid-header: torn iff the tail is not padding.
        return entries, any(payload[offset:])

    @classmethod
    def scan_keys(cls, payload) -> List[bytes]:
        """Keys of the packed entries, in order, from a header-only walk.

        Visits the same entries as :meth:`scan_region` on an intact
        payload (it stops at zero padding or at an entry running off
        the end) but decodes no value and verifies no checksum, and
        ``payload`` may be any buffer — a ``memoryview`` of an open
        region included.
        """
        keys: List[bytes] = []
        header = cls.HEADER_SIZE
        unpack_from = _HEADER.unpack_from
        size = len(payload)
        offset = 0
        while offset + header <= size:
            raw_key_len, value_len, _ = unpack_from(payload, offset)
            if raw_key_len == 0 and value_len == 0:
                break
            key_end = offset + header + (raw_key_len & ~_CHECKSUM_FLAG)
            end = key_end + value_len
            if raw_key_len & _CHECKSUM_FLAG:
                end += cls.CRC_SIZE
            if end > size:
                break
            keys.append(bytes(payload[offset + header : key_end]))
            offset = end
        return keys

    @staticmethod
    def _crc(key: bytes, value: bytes, expiry_ns: int, salt: int) -> int:
        crc = zlib.crc32(salt.to_bytes(8, "little", signed=False))
        crc = zlib.crc32(_HEADER.pack(len(key), len(value), expiry_ns), crc)
        crc = zlib.crc32(key, crc)
        return zlib.crc32(value, crc)
