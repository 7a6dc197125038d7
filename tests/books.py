"""The ZTL books check the fault, power-cut and layer tests share.

The layer stores each fact once: ``layer.map`` sends a region to its
(zone, slot), and ``ZoneRecord.owners`` sends a slot back to its region.
"""

from __future__ import annotations


def assert_ztl_books_agree(layer) -> None:
    """``layer.map`` and the zones' slot owners are exact inverses, each
    zone's ``valid_count`` is its number of owned slots, and every owned
    slot ends at or below its zone's write pointer.  A dead zone owns
    nothing: the layer dropped its regions when it retired the zone."""
    mapping, region_size = layer.map, layer.region_size
    mapped = 0
    for record in layer.book.records:
        zone = record.zone
        owned = 0
        for slot, region_id in enumerate(record.owners):
            if region_id is None:
                continue
            owned += 1
            assert mapping.get(region_id) == (record.zone_index, slot), (
                record, slot, region_id,
            )
            assert zone.start + (slot + 1) * region_size <= zone.write_pointer, (
                record, slot,
            )
        assert record.valid_count == owned, record
        mapped += owned
    assert mapped == len(mapping)
