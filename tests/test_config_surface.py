"""Knob ratchet: the pinned inventory of every ``*Config`` dataclass, of
every scheme builder's keywords, and of every mechanism selector.

Each field of a ``*Config`` class under ``src/repro`` is a switch the
tests have to cover, and so is each keyword a ``build_*_cache`` builder
takes (``build_scheme`` forwards its keywords to them), and each choice a
selector tuple offers (``EVICTION_POLICIES``, ``POLICY_NAMES``,
``ARRIVAL_KINDS``, ...: a name ending in ``_POLICIES``, ``_KINDS``,
``_CHOICES``, ``_PRESETS``, ``_MIXES`` or ``_MODES``, or ``POLICY_NAMES``).
This file pins the sorted (class, field) inventory, the sorted keyword
parameters of every builder and the choices of every selector, read from
the source with the AST (no imports, so nothing a module does at import
time can hide a knob), so a change that adds, renames or removes a knob
or a selectable mechanism has to edit ``PINNED``, ``PINNED_BUILDERS`` or
``PINNED_SELECTORS`` below, where the diff shows it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

PINNED: Dict[str, Tuple[str, ...]] = {
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
        "checksums", "cpu", "eviction_policy", "lifecycle", "num_regions",
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
        "dead_first", "emergency_empty_zones", "min_empty_zones", "pace_regions",
        "policy", "urgent_empty_zones", "victim_valid_threshold",
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
        "background", "emergency", "pace_units", "target", "urgent",
        "victim_valid_threshold",
    ),
    "ReplicationConfig": ("hint_limit", "replicas", "track_writes"),
    "RoutingConfig": ("policy",),
    "ServerConfig": ("max_queue_depth",),
    "TenantConfig": (
        "arrival", "burst_factor", "flash_crowd_at_s", "flash_crowd_decay_s",
        "flash_crowd_factor", "key_prefix", "name", "rate_limit_burst",
        "rate_limit_ops_per_sec", "rate_ops_per_sec", "seed", "slo_p99_ms",
        "storm_at_s", "storm_duration_s", "storm_factor", "versioned_keys", "workload",
    ),
    "ZnsConfig": (
        "geometry", "max_active_zones", "max_open_zones", "timing", "zone_costs",
        "zone_size",
    ),
    "ZoneCostConfig": ("close_ns", "finish_ns", "forced_close", "open_ns", "reset_ns"),
    "ZtlConfig": ("gc", "host_groups", "host_open_zones", "region_size"),
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


# The choices of every selector tuple, in source order (the first is
# not necessarily the default; the order is what error messages print).
PINNED_SELECTORS: Dict[str, Tuple[str, ...]] = {
    "ARRIVAL_KINDS": ("poisson", "diurnal", "burst", "flash_crowd", "storm"),
    "EVICTION_POLICIES": ("lru", "fifo"),
    "HINT_LAYER_CHOICES": ("ztl", "all"),
    "HINT_MODES": ("off", "ztl", "full"),
    "PACING_MODES": ("static", "adaptive"),
    "POLICY_NAMES": ("greedy", "cost_benefit", "age_threshold", "random", "cold_defer"),
    "RECLAIM_PRESETS": ("default", "qos", "storm"),
    "ROUTING_POLICIES": ("static", "gc_aware"),
    "TENANT_MIXES": ("steady", "diurnal", "storm"),
}

SELECTOR_NAME = re.compile(
    r"[A-Z][A-Z_]*_(POLICIES|KINDS|CHOICES|PRESETS|MIXES|MODES)|POLICY_NAMES"
)


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


def selector_inventory() -> Dict[str, Tuple[str, ...]]:
    """``{name: choices}`` for every assignment under ``src/repro`` whose
    target is a selector name; a selector must be a literal tuple of
    strings, so the pin can read it without importing anything."""
    inventory: Dict[str, Tuple[str, ...]] = {}
    for node in _source_nodes():
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and SELECTOR_NAME.fullmatch(target.id):
                value = node.value
                assert isinstance(value, ast.Tuple) and all(
                    isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    for elt in value.elts
                ), f"{target.id} must be a literal tuple of strings"
                assert target.id not in inventory, f"two selectors named {target.id}"
                inventory[target.id] = tuple(elt.value for elt in value.elts)
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


def test_selector_choices_are_pinned():
    assert selector_inventory() == PINNED_SELECTORS, "selectors: pin them here"


def test_pin_is_sorted():
    for pin in (PINNED, PINNED_BUILDERS):
        assert list(pin) == sorted(pin)
        for owner, names in pin.items():
            assert list(names) == sorted(set(names)), owner
    assert list(PINNED_SELECTORS) == sorted(PINNED_SELECTORS)
    for name, choices in PINNED_SELECTORS.items():
        assert len(set(choices)) == len(choices), name


def test_pin_counts():
    """20 ``*Config`` classes carrying 133 fields."""
    assert len(PINNED) == 20
    assert sum(len(names) for names in PINNED.values()) == 133


def test_no_code_outside_the_devices_branches_on_armed_faults():
    """One write path whether faults are armed or not: outside
    ``repro/sim`` (the injector and the pipeline) and ``repro/flash``
    (the devices it gates), no code reads ``<...>.pipeline.faults`` — a
    layer that did could fork a path no fault-free benchmark runs."""
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] in ("sim", "flash"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Attribute) and node.attr == "faults"):
                continue
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "pipeline") or (
                isinstance(owner, ast.Name) and owner.id == "pipeline"
            ):
                readers.append(f"{relative}:{node.lineno}")
    assert readers == [], "fault-armed path selection outside the devices"
