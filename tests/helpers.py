"""Helpers that several test modules share.

* :func:`python_calls`: the Python frames a body enters, for the frame
  pins of the read, write, LSM and trace cost tests;
* :func:`full_field_digest`: a sha256 over every field of every trace
  record, for the pinned trace-stream digests;
* :func:`make_layer` / :func:`payload`: a small ZTL over a ZNS SSD, for
  the ZTL layer and power-cut tests.
"""

from __future__ import annotations

import hashlib
import sys

from repro.cache.backends import ZtlRegionStore
from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
from repro.reclaim import GcHints
from repro.sim import SimClock
from repro.units import KIB
from repro.ztl import GcConfig, RegionTranslationLayer, ZtlConfig


def python_calls(body) -> list:
    """Names of the Python-level functions ``body`` calls (itself excluded)."""
    names = []

    def profiler(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        body()
    finally:
        sys.setprofile(None)
    return names[1:]  # names[0] is body's own frame


TRACE_FIELDS = (
    "record_id", "parent_id", "layer", "op", "offset", "length", "zone",
    "background", "submitted_ns", "completed_ns", "wait_ns", "service_ns",
    "channel",
)


def full_field_digest(tracers):
    """``(records, sha256)`` over every field of every record, one
    record per line."""
    digest = hashlib.sha256()
    count = 0
    for tracer in tracers:
        for record in tracer.records:
            line = "|".join(str(getattr(record, name)) for name in TRACE_FIELDS)
            digest.update(line.encode() + b"\n")
            count += 1
    return count, digest.hexdigest()


REGION = 64 * KIB


def make_layer(
    num_blocks=256,
    zone_blocks=4,
    region_size=REGION,
    min_empty=4,
    threshold=0.2,
    hint=None,
    on_drop=None,
    faults=None,
    host_open=2,
):
    clock = SimClock()
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=num_blocks)
    zns = ZnsSsd(
        clock,
        ZnsConfig(geometry=geometry, zone_size=zone_blocks * geometry.block_size),
        faults=faults,
    )
    layer = RegionTranslationLayer(
        zns,
        ZtlConfig(
            region_size=region_size,
            host_open_zones=host_open,
            gc=GcConfig(min_empty_zones=min_empty, victim_valid_threshold=threshold),
        ),
    )
    if hint is not None:
        store = ZtlRegionStore(layer, layer.total_slots - 1)
        store.bind_gc_hints(GcHints(hint, on_drop or (lambda region_id: None)))
    return layer


def payload(region_id: int, size: int = REGION) -> bytes:
    return bytes([region_id % 256]) * size
