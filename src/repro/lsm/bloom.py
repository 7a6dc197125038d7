"""Bloom filter for SSTables (RocksDB's full-filter equivalent).

Without filters every point lookup would probe a data block in each
overlapping table; with ~10 bits/key the false-positive rate is <1%, so
a get usually touches exactly one data block — which is what makes the
secondary cache's hit ratio, not probe count, dominate read latency.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Optional, Tuple

import numpy as np

_DIGEST = struct.Struct("<QQ")
# Keys hashed per step of the bulk build: bounds its transient arrays
# (16 B of digest and num_hashes 8-byte bit positions per key).
CHUNK_KEYS = 4096


def bloom_hashes(key: bytes) -> Tuple[int, int]:
    """The double-hashing pair of ``key``: one digest serves the probe of
    every table a read plan visits."""
    h1, h2 = _DIGEST.unpack(hashlib.blake2b(key, digest_size=16).digest())
    return h1, h2 | 1


class BloomFilter:
    """Double-hashing bloom filter over byte keys."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 8:
            raise ValueError("num_bits must be >= 8")
        if not 1 <= num_hashes <= 16:
            raise ValueError("num_hashes must be in [1, 16]")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray(-(-num_bits // 8))

    @classmethod
    def for_keys(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """The filter of ``keys``, byte for byte what :meth:`add` of each
        key builds, set in bulk: per chunk of keys, one blake2b digest
        each into a joined buffer, every probe bit ``(h1 + i*h2) %
        num_bits`` as one array (reduced first, so nothing overflows 64
        bits) and one ``packbits`` at the end."""
        keys = list(keys)
        num_bits = max(64, len(keys) * bits_per_key)
        num_hashes = max(1, min(12, int(bits_per_key * 0.69)))
        bloom = cls(num_bits, num_hashes)
        blake2b, modulus = hashlib.blake2b, np.uint64(num_bits)
        probes = np.arange(num_hashes, dtype=np.uint64)
        bits = np.zeros(num_bits, dtype=np.bool_)
        for start in range(0, len(keys), CHUNK_KEYS):
            digests = b"".join(
                [
                    blake2b(key, digest_size=16).digest()
                    for key in keys[start : start + CHUNK_KEYS]
                ]
            )
            h1, h2 = np.frombuffer(digests, dtype="<u8").reshape(-1, 2).T
            h1, h2 = h1 % modulus, (h2 | np.uint64(1)) % modulus
            bits[(h1[:, None] + h2[:, None] * probes) % modulus] = True
        bloom._bits = bytearray(np.packbits(bits, bitorder="little").tobytes())
        return bloom

    def add(self, key: bytes) -> None:
        """Set ``key``'s bits (the reference :meth:`for_keys` must match)."""
        h1, h2 = bloom_hashes(key)
        for i in range(self.num_hashes):
            bit = (h1 + i * h2) % self.num_bits
            self._bits[bit >> 3] |= 1 << (bit & 7)

    def may_contain(
        self, key: bytes, hashes: Optional[Tuple[int, int]] = None
    ) -> bool:
        """Probe; ``hashes`` is ``bloom_hashes(key)`` if the caller has it."""
        h1, h2 = hashes if hashes is not None else bloom_hashes(key)
        bits, num_bits = self._bits, self.num_bits
        bit, step = h1 % num_bits, h2 % num_bits
        for _ in range(self.num_hashes):
            if not bits[bit >> 3] >> (bit & 7) & 1:
                return False
            bit += step
            if bit >= num_bits:
                bit -= num_bits
        return True

    def to_bytes(self) -> bytes:
        header = self.num_bits.to_bytes(4, "little") + bytes([self.num_hashes])
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        num_bits = int.from_bytes(blob[:4], "little")
        num_hashes = blob[4]
        bloom = cls(num_bits, num_hashes)
        bloom._bits = bytearray(blob[5 : 5 + len(bloom._bits)])
        return bloom
