"""Knob ratchet: the pinned inventory of every ``*Config`` dataclass and
of every scheme builder's keywords.

Each field of a ``*Config`` class under ``src/repro`` is a switch the
tests have to cover, and so is each keyword a ``build_*_cache`` builder
takes (``build_scheme`` forwards its keywords to them).  This file pins
the sorted (class, field) inventory and the sorted keyword parameters of
every builder, read from the source with the AST (no imports, so nothing
a module does at import time can hide a knob), so a change that adds,
renames or removes a knob has to edit ``PINNED`` or ``PINNED_BUILDERS``
below, where the diff shows it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

PINNED: Dict[str, Tuple[str, ...]] = {
    "AdmissionConfig": (
        "max_value_bytes", "policy", "probability", "seed", "tinylfu_decay_ops",
        "tinylfu_depth", "tinylfu_threshold", "tinylfu_width",
    ),
    "BlockSsdConfig": (
        "ftl", "ftl_cpu_ns_per_page", "geometry", "maintenance_interval_bytes",
        "maintenance_ns", "timing",
    ),
    "CacheBenchConfig": (
        "delete_ratio", "get_ratio", "key_size", "num_keys", "num_ops", "seed",
        "set_on_miss", "set_ratio", "value_sizes", "value_weights", "warmup_ops",
        "zipf_theta",
    ),
    "CacheConfig": (
        "admission", "checksums", "cpu", "eviction_policy", "lifecycle", "num_regions",
        "ram_bytes", "reclaim_window", "region_size", "retry",
    ),
    "CleanerConfig": (
        "emergency_sections", "low_watermark", "pace_blocks", "policy",
        "urgent_sections", "victim_valid_threshold",
    ),
    "CompactionConfig": (
        "bits_per_key", "block_size", "l0_trigger", "l1_target_bytes",
        "level_multiplier", "max_table_bytes",
    ),
    "DbBenchConfig": (
        "cache_zones", "dram_block_cache_bytes", "exp_range", "hdd_bytes", "key_size",
        "num_keys", "num_reads", "op_zones", "scheme", "seed", "value_size",
        "warmup_reads",
    ),
    "DbConfig": (
        "block_cache_bytes", "compaction", "cpu_get_ns", "cpu_put_ns",
        "manifest_bytes", "memtable_bytes", "num_levels", "wal_bytes",
    ),
    "F2fsConfig": (
        "block_size", "blocks_per_node", "checkpoint_interval_blocks",
        "cpu_ns_per_block", "meta_batch_blocks", "provision_ratio",
        "segments_per_section",
    ),
    "FtlConfig": (
        "gc_high_watermark", "gc_low_watermark", "gc_policy", "gc_urgent_watermark",
        "op_ratio",
    ),
    "GcConfig": (
        "copy_tokens_per_step", "dead_first", "emergency_empty_zones",
        "min_empty_zones", "pace_regions", "policy", "urgent_empty_zones",
        "victim_valid_threshold",
    ),
    "HddConfig": (
        "avg_seek_ns", "block_size", "capacity_bytes", "full_stroke_seek_ns",
        "rotation_ns", "sequential_window", "transfer_bytes_per_ns",
    ),
    "LifecycleConfig": (
        "dead_first_eviction", "gc_hints", "hint_drop_position", "hint_layers",
        "versioning",
    ),
    "PacerConfig": (
        "background", "copy_tokens_per_step", "emergency", "pace_units", "target",
        "urgent", "victim_valid_threshold",
    ),
    "PoolConfig": ("channels", "queue_depth", "stripe_bytes"),
    "ReplicationConfig": (
        "down_after_failures", "hint_limit", "probe_interval_ms", "replicas",
        "suspect_after_failures", "track_writes",
    ),
    "RoutingConfig": (
        "headroom_weight", "max_reroute_distance", "policy", "reroute_level",
        "stall_weight",
    ),
    "ServerConfig": ("max_queue_depth",),
    "TenantConfig": (
        "arrival", "burst_factor", "burst_off_s", "burst_on_s", "diurnal_amplitude",
        "diurnal_period_s", "flash_crowd_at_s", "flash_crowd_decay_s",
        "flash_crowd_factor", "key_prefix", "name", "rate_limit_burst",
        "rate_limit_ops_per_sec", "rate_ops_per_sec", "seed", "slo_p99_ms",
        "storm_at_s", "storm_duration_s", "storm_factor", "versioned_keys", "workload",
    ),
    "ZnsConfig": (
        "geometry", "max_active_zones", "max_open_zones", "timing", "zone_costs",
        "zone_size",
    ),
    "ZoneCostConfig": ("close_ns", "finish_ns", "forced_close", "open_ns", "reset_ns"),
    "ZtlConfig": (
        "gc", "host_groups", "host_open_zones", "region_size", "usable_zones",
        "use_zone_append",
    ),
}

# Keyword parameters (defaulted, keyword-only, and the ``**`` catch-all)
# of every ``build_*_cache`` function, private ones included.
PINNED_BUILDERS: Dict[str, Tuple[str, ...]] = {
    "_build_ztl_cache": ("**cache_overrides", "faults", "gc", "zone_costs"),
    "build_block_cache": ("**cache_overrides", "faults", "ftl", "zone_costs"),
    "build_file_cache": (
        "**cache_overrides", "cleaner", "faults", "provision_ratio", "zone_costs",
    ),
    "build_region_cache": ("**cache_overrides", "faults", "gc", "zone_costs"),
    "build_zone_cache": ("**cache_overrides", "cache_bytes", "faults", "zone_costs"),
}


def _source_nodes():
    for path in sorted(SRC.rglob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(), str(path)))


def config_inventory() -> Dict[str, Tuple[str, ...]]:
    """``{class: sorted annotated field names}`` for every class named
    ``*Config`` defined under ``src/repro``."""
    inventory: Dict[str, Tuple[str, ...]] = {}
    for node in _source_nodes():
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Config")):
            continue
        assert node.name not in inventory, f"two classes named {node.name}"
        inventory[node.name] = tuple(
            sorted(
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            )
        )
    return inventory


def builder_inventory() -> Dict[str, Tuple[str, ...]]:
    """``{builder: sorted keyword parameters}`` for every function named
    ``build_*_cache`` (or ``_build_*_cache``) defined under ``src/repro``."""
    inventory: Dict[str, Tuple[str, ...]] = {}
    for node in _source_nodes():
        if not (
            isinstance(node, ast.FunctionDef)
            and re.fullmatch(r"_?build_\w+_cache", node.name)
        ):
            continue
        assert node.name not in inventory, f"two builders named {node.name}"
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        names = [arg.arg for arg in defaulted + args.kwonlyargs]
        if args.kwarg is not None:
            names.append("**" + args.kwarg.arg)
        inventory[node.name] = tuple(sorted(names))
    return inventory


def test_config_inventory_is_pinned():
    inventory = config_inventory()
    found = sorted((cls, name) for cls, names in inventory.items() for name in names)
    pinned = sorted((cls, name) for cls, names in PINNED.items() for name in names)
    assert sorted(set(found) - set(pinned)) == [], "new knobs: pin them here"
    assert sorted(set(pinned) - set(found)) == [], "knobs gone: unpin them here"
    assert sorted(inventory) == sorted(PINNED)


def test_builder_keywords_are_pinned():
    assert builder_inventory() == PINNED_BUILDERS, "builder knobs: pin them here"


def test_pin_is_sorted():
    for pin in (PINNED, PINNED_BUILDERS):
        assert list(pin) == sorted(pin)
        for owner, names in pin.items():
            assert list(names) == sorted(set(names)), owner
