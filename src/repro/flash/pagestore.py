"""The byte store under every simulated device.

All four devices (ZNS SSD, block SSD, nullblk, HDD) keep their media
contents here: sparse, fixed-size ``bytearray`` chunks allocated on the
first write that touches them.  ``store`` / ``load`` / ``move`` /
``clear`` are slice copies over whole extents, never per-page loops, and
``store`` accepts any buffer (``bytes``, ``bytearray``, a read-only
``memoryview`` of a region buffer) without materialising it first.

Ownership rule: the store **copies in and copies out**.  It never keeps
a reference to a caller's buffer, and ``load`` returns fresh ``bytes``,
so a caller may recycle its buffer the moment ``store`` returns and may
keep a loaded payload across any later reset.  Bytes that only change
place inside the store (a GC survivor) never leave it: ``move`` copies
chunk to chunk.  A chunk is a ``bytearray`` or, once :meth:`freeze`
ran, an immutable ``bytes`` — never a ``memoryview`` — so no chunk can
pin or alias a buffer it was handed.  ``copy.deepcopy`` shares a
``bytes`` chunk rather than copying it: a frozen store and all its deep
copies hold those bytes once, and the first ``store`` / ``move`` /
``clear`` that changes a frozen chunk copies it into a ``bytearray`` of
that store's own first, so a copy never sees another's writes.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple, Union

from repro.units import KIB

# A ``bytearray`` is resident from the moment it exists, so the chunk is
# what a partly written zone or a lone block on a sparse disk costs in
# memory.  64 KiB keeps that slack small, holds a default region in one
# chunk (one slice copy per flush), divides every zone and erase block
# the benches use (resets and discards drop whole chunks), and stays
# below the allocator's mmap threshold, so dropping a zone's chunks on
# reset and taking fresh ones on the next write never leaves the heap.
CHUNK_BYTES = 64 * KIB


class PageStore:
    """Sparse byte-addressed media contents; unwritten space reads as zeros.

    ``chunk_size`` is the allocation unit: a chunk exists from the first
    write that touches it until a :meth:`clear` covers it (zone reset,
    discard), so the bytes held track the bytes live.  A new chunk that
    a write covers whole is created from the written bytes (one copy, no
    zero fill first — a reset zone is refilled a whole chunk at a time);
    one written in part starts zero-filled, so unwritten space reads as
    zeros.  Range checks are the owning device's job (each raises its
    own typed errors before it gets here).
    """

    def __init__(self, chunk_size: int = CHUNK_BYTES) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        # bytearray, or bytes after freeze() (shared with deep copies).
        self._chunks: Dict[int, Union[bytearray, bytes]] = {}

    @property
    def allocated_bytes(self) -> int:
        """Bytes of chunk storage currently held."""
        return len(self._chunks) * self.chunk_size

    def freeze(self) -> None:
        """Make every held chunk an immutable ``bytes``, which deep copies
        of this store share; each is copied back into a ``bytearray`` by
        the first write that changes it."""
        chunks = self._chunks
        for index, chunk in chunks.items():
            chunks[index] = bytes(chunk)

    def store(self, offset: int, data) -> None:
        """Copy ``data`` (any buffer) to ``offset``; one slice copy per chunk."""
        size = self.chunk_size
        chunks = self._chunks
        index, start = divmod(offset, size)
        length = len(data)
        if start + length <= size:
            chunk = chunks.get(index)
            if type(chunk) is not bytearray:  # missing, or frozen
                if length == size:
                    chunks[index] = bytearray(data)
                    return
                chunk = chunks[index] = (
                    bytearray(size) if chunk is None else bytearray(chunk)
                )
            # A memoryview target copies straight from the source buffer;
            # ``chunk[a:b] = data`` would first materialise a temporary
            # bytearray of the whole payload.
            memoryview(chunk)[start : start + length] = data
            return
        view = memoryview(data)
        pos = 0
        while pos < length:
            end = min(size, start + length - pos)
            piece = view[pos : pos + end - start]
            chunk = chunks.get(index)
            if type(chunk) is bytearray:
                memoryview(chunk)[start:end] = piece
            elif end - start == size:
                chunks[index] = bytearray(piece)
            else:
                chunk = chunks[index] = (
                    bytearray(size) if chunk is None else bytearray(chunk)
                )
                memoryview(chunk)[start:end] = piece
            pos += end - start
            index += 1
            start = 0

    def load(self, offset: int, length: int) -> bytes:
        """A fresh ``bytes`` copy of ``[offset, offset + length)``."""
        size = self.chunk_size
        index, start = divmod(offset, size)
        if start + length > size:
            return b"".join(
                self.load(piece * size + a, b - a)
                for piece, a, b in self._spans(offset, length)
            )
        chunk = self._chunks.get(index)
        if chunk is None:
            return bytes(length)
        return bytes(memoryview(chunk)[start : start + length])

    def move(self, src: int, dst: int, length: int) -> None:
        """Copy ``[src, src + length)`` to ``dst``, chunk to chunk.

        The same result as ``store(dst, load(src, length))`` with one
        slice copy per piece and no intermediate ``bytes``.
        """
        if abs(src - dst) < length:
            # Overlapping extents: a piece copied early could overwrite
            # source bytes a later piece still has to read.
            self.store(dst, self.load(src, length))
            return
        size = self.chunk_size
        chunks = self._chunks
        while length > 0:
            from_index, from_start = divmod(src, size)
            index, start = divmod(dst, size)
            take = min(size - from_start, size - start, length)
            source = chunks.get(from_index)
            piece = (
                bytes(take)
                if source is None
                else memoryview(source)[from_start : from_start + take]
            )
            chunk = chunks.get(index)
            if type(chunk) is bytearray:
                memoryview(chunk)[start : start + take] = piece
            elif take == size:
                chunks[index] = bytearray(piece)
            else:
                chunk = chunks[index] = (
                    bytearray(size) if chunk is None else bytearray(chunk)
                )
                memoryview(chunk)[start : start + take] = piece
            src += take
            dst += take
            length -= take

    def clear(self, offset: int, length: int) -> None:
        """Zero a range; chunks it covers entirely are dropped."""
        chunks = self._chunks
        size = self.chunk_size
        index, start = divmod(offset, size)
        while length > 0:
            stop = min(size, start + length)
            if stop - start == size:
                chunks.pop(index, None)
            else:
                chunk = chunks.get(index)
                if chunk is not None:
                    if type(chunk) is bytes:
                        chunk = chunks[index] = bytearray(chunk)
                    memoryview(chunk)[start:stop] = bytes(stop - start)
            length -= stop - start
            index += 1
            start = 0

    # --- internals ---------------------------------------------------------------

    def _spans(self, offset: int, length: int) -> Iterator[Tuple[int, int, int]]:
        """The ``(chunk index, start, stop)`` pieces of an extent, in order."""
        size = self.chunk_size
        index, start = divmod(offset, size)
        while length > 0:
            take = min(size - start, length)
            yield index, start, start + take
            length -= take
            index += 1
            start = 0
