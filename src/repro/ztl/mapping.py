"""Region-id to zone-slot mapping.

The paper stores "the mapping between the region ID and the in-zone
address of ZNS SSDs ... in a mapping (e.g., an ordered map)"; reads
"look up the mapping by the region ID, and compute the real physical
address using the in-region offset and in-zone address".
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.errors import RegionNotMappedError


class RegionLocation(NamedTuple):
    """Physical placement of a region: which zone, which slot within it.

    A tuple, so the reverse map hashes and compares its keys in C.
    """

    zone_index: int
    slot: int


class RegionMap:
    """Bidirectional region↔slot map (one entry per live region)."""

    def __init__(self) -> None:
        self._forward: Dict[int, RegionLocation] = {}
        self._reverse: Dict[RegionLocation, int] = {}

    def __len__(self) -> int:
        return len(self._forward)

    def __contains__(self, region_id: int) -> bool:
        return region_id in self._forward

    def lookup(self, region_id: int) -> RegionLocation:
        """Location of ``region_id``; raises if the region is not mapped."""
        try:
            return self._forward[region_id]
        except KeyError:
            raise RegionNotMappedError(f"region {region_id} has no mapping") from None

    def get(self, region_id: int) -> Optional[RegionLocation]:
        return self._forward.get(region_id)

    def region_at(self, location: RegionLocation) -> Optional[int]:
        """Region currently stored at ``location``, if any."""
        return self._reverse.get(location)

    def bind(self, region_id: int, location: RegionLocation) -> None:
        """Map ``region_id`` to ``location``, replacing any previous binding
        of either side (rewrite and relocation both funnel through here)."""
        forward, reverse = self._forward, self._reverse
        # The two dicts are exact inverses, so each stale entry is known
        # to be there and the new ones overwrite in place.
        old_location = forward.get(region_id)
        if old_location is not None:
            del reverse[old_location]
        old_region = reverse.get(location)
        if old_region is not None:
            del forward[old_region]
        forward[region_id] = location
        reverse[location] = region_id

    def unbind(self, region_id: int) -> Optional[RegionLocation]:
        """Remove ``region_id``'s mapping; returns the freed location."""
        location = self._forward.pop(region_id, None)
        if location is not None:
            self._reverse.pop(location, None)
        return location

    def __repr__(self) -> str:
        return f"RegionMap(live={len(self._forward)})"
