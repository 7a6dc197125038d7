"""Node Address Table: file-id + file-block-index → main-area block address.

Real F2FS resolves file offsets through inode/node blocks indexed by the
NAT.  We collapse that indirection into a per-file block map while
keeping the property the paper cares about: every remap is a metadata
update that must eventually reach the conventional metadata device.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import FileExistsInFsError, FileNotFoundInFsError


class NodeAddressTable:
    """Per-file block maps plus file metadata (name → file id, sizes)."""

    def __init__(self) -> None:
        self._next_file_id = 1
        self._names: Dict[str, int] = {}
        self._sizes: Dict[int, int] = {}
        # (file_id, file_block_index) -> main-area block address
        self._maps: Dict[int, Dict[int, int]] = {}

    # --- file namespace --------------------------------------------------------

    def create_file(self, name: str) -> int:
        if name in self._names:
            raise FileExistsInFsError(f"file {name!r} already exists")
        file_id = self._next_file_id
        self._next_file_id += 1
        self._names[name] = file_id
        self._sizes[file_id] = 0
        self._maps[file_id] = {}
        return file_id

    def lookup_file(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise FileNotFoundInFsError(f"no such file: {name!r}") from None

    def has_file(self, name: str) -> bool:
        return name in self._names

    def remove_file(self, name: str) -> Dict[int, int]:
        """Delete a file; returns its block map so callers can invalidate."""
        file_id = self.lookup_file(name)
        del self._names[name]
        del self._sizes[file_id]
        return self._maps.pop(file_id)

    def file_names(self) -> Iterator[str]:
        return iter(self._names)

    # --- sizes -------------------------------------------------------------------

    def size_of(self, file_id: int) -> int:
        return self._sizes[file_id]

    def update_size(self, file_id: int, size: int) -> None:
        if size > self._sizes[file_id]:
            self._sizes[file_id] = size

    # --- block mapping --------------------------------------------------------------

    def block_map(self, file_id: int) -> Dict[int, int]:
        """The live ``file block -> main-area block`` map of one file
        (read-only to callers: a ranged read walks it directly)."""
        return self._maps[file_id]

    def get_block(self, file_id: int, file_block: int) -> Optional[int]:
        return self._maps[file_id].get(file_block)

    def set_block(self, file_id: int, file_block: int, block_addr: int) -> Optional[int]:
        """Map a file block; returns the previous address (now stale)."""
        old = self._maps[file_id].get(file_block)
        self._maps[file_id][file_block] = block_addr
        return old

    def set_blocks(
        self, file_id: int, first_block: int, addresses: List[int]
    ) -> List[Optional[int]]:
        """Map consecutive file blocks from ``first_block`` on; returns
        their previous addresses (now stale; None where unmapped)."""
        block_map = self._maps[file_id]
        blocks = range(first_block, first_block + len(addresses))
        old = list(map(block_map.get, blocks))
        block_map.update(zip(blocks, addresses))
        return old

    def clear_block(self, file_id: int, file_block: int) -> Optional[int]:
        """Unmap one file block (§3.4 GC drop); returns the old address."""
        return self._maps[file_id].pop(file_block, None)

    # --- persistence ------------------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "next_file_id": self._next_file_id,
            "names": dict(self._names),
            "sizes": {str(k): v for k, v in self._sizes.items()},
            "maps": {
                str(fid): {str(b): addr for b, addr in fmap.items()}
                for fid, fmap in self._maps.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "NodeAddressTable":
        table = cls()
        table._next_file_id = state["next_file_id"]
        table._names = dict(state["names"])
        table._sizes = {int(k): v for k, v in state["sizes"].items()}
        table._maps = {
            int(fid): {int(b): addr for b, addr in fmap.items()}
            for fid, fmap in state["maps"].items()
        }
        return table
