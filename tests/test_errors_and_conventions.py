"""Cross-cutting tests: error hierarchy, clock conventions, RNG streams."""

import pytest

from repro import errors
from repro.f2fs import CleanerConfig, F2fsConfig
from repro.flash import BlockSsdConfig, HddConfig, NandGeometry, NandTiming
from repro.flash.zone import ZoneCostConfig
from repro.lsm.compaction import CompactionConfig
from repro.lsm.db import DbConfig
from repro.sim import FaultKind, FaultRule, RetryPolicy, ZoneFault, make_rng
from repro.sim.clock import SimClock
from repro.units import KIB


# Region stores over small devices, so a geometry refusal in a store
# constructor can sit in the config-nonsense table beside the configs
# (each factory is named after the class it builds, which names the case).
def _device_geometry():
    from repro.flash import NandGeometry

    return NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=64)


def BlockRegionStore(region_size=64 * KIB, num_regions=8):
    from repro.cache.backends import BlockRegionStore as Store
    from repro.flash import BlockSsd

    device = BlockSsd(SimClock(), BlockSsdConfig(geometry=_device_geometry()))
    return Store(device, region_size, num_regions)


def ZoneRegionStore(num_regions=0):
    from repro.cache.backends import ZoneRegionStore as Store
    from repro.flash import ZnsConfig, ZnsSsd

    config = ZnsConfig(geometry=_device_geometry(), zone_size=256 * KIB)
    return Store(ZnsSsd(SimClock(), config), num_regions)


def ZtlRegionStore(num_regions=4):
    from repro.cache.backends import ZtlRegionStore as Store
    from repro.flash import ZnsConfig, ZnsSsd
    from repro.ztl import RegionTranslationLayer, ZtlConfig

    config = ZnsConfig(geometry=_device_geometry(), zone_size=256 * KIB)
    layer = RegionTranslationLayer(
        ZnsSsd(SimClock(), config), ZtlConfig(region_size=64 * KIB)
    )
    return Store(layer, num_regions)


def NullBlkDevice(**kwargs):
    from repro.flash import NullBlkDevice as Device

    return Device(SimClock(), **kwargs)


def FileRegionStore(region_size=64 * KIB, num_regions=4):
    from repro.cache.backends import FileRegionStore as Store
    from repro.f2fs import F2fs
    from repro.flash import NullBlkDevice, ZnsConfig, ZnsSsd

    clock = SimClock()
    config = ZnsConfig(geometry=_device_geometry(), zone_size=256 * KIB)
    fs = F2fs(clock, ZnsSsd(clock, config), NullBlkDevice(clock, capacity_bytes=4 << 20))
    fs.mkfs()
    return Store(fs, region_size, num_regions)


class TestErrorHierarchy:
    def test_all_errors_descend_from_repro_error(self):
        leaf_errors = [
            errors.OutOfRangeError,
            errors.AlignmentError,
            errors.ZoneStateError,
            errors.WritePointerError,
            errors.ZoneResourceError,
            errors.DeviceFullError,
            errors.NoSpaceError,
            errors.FileNotFoundInFsError,
            errors.FileExistsInFsError,
            errors.RegionNotMappedError,
            errors.TranslationFullError,
            errors.CacheConfigError,
            errors.ObjectTooLargeError,
            errors.InvalidTtlError,
            errors.DbClosedError,
        ]
        for leaf in leaf_errors:
            assert issubclass(leaf, errors.ReproError), leaf

    def test_layer_bases(self):
        assert issubclass(errors.WritePointerError, errors.ZoneStateError)
        assert issubclass(errors.ZoneStateError, errors.DeviceError)
        assert issubclass(errors.NoSpaceError, errors.FilesystemError)
        assert issubclass(errors.RegionNotMappedError, errors.TranslationError)
        assert issubclass(errors.ObjectTooLargeError, errors.CacheError)
        assert issubclass(errors.DbClosedError, errors.LsmError)

    def test_catching_the_base_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.WritePointerError("x")

    def test_invalid_ttl_is_a_cache_error_and_a_value_error(self):
        assert issubclass(errors.InvalidTtlError, errors.CacheError)
        assert issubclass(errors.InvalidTtlError, ValueError)

    @pytest.mark.parametrize(
        "zns, ztl, match",
        [
            ({"zone_size": 3 * 4096}, {}, "NAND block"),
            ({"max_open_zones": 0}, {}, "max_open_zones"),
            ({"max_open_zones": 8, "max_active_zones": 4}, {}, "max_active_zones"),
            ({"zone_size": 1 << 30}, {}, "even one zone"),
            ({}, {"region_size": 48 * 1024}, "divide zone size"),
            ({}, {"region_size": 2048}, "page size"),
            ({}, {"host_groups": 0}, "host_groups"),
            ({"max_open_zones": 4}, {"host_open_zones": 2, "host_groups": 2}, "GC stream"),
        ],
    )
    def test_zns_and_ztl_geometry_nonsense_is_a_config_error(self, zns, ztl, match):
        from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
        from repro.ztl import RegionTranslationLayer, ZtlConfig

        geometry = NandGeometry(page_size=4096, pages_per_block=16, num_blocks=64)
        with pytest.raises(errors.ConfigError, match=match):
            config = ZnsConfig(**{"geometry": geometry, "zone_size": 1 << 18, **zns})
            RegionTranslationLayer(
                ZnsSsd(SimClock(), config),
                ZtlConfig(**{"region_size": 64 * 1024, **ztl}),
            )

    def test_unknown_scheme_and_missing_budget_are_config_errors(self):
        from repro.bench.schemes import SchemeScale, build_scheme

        with pytest.raises(errors.ConfigError, match="Z-Cache"):
            build_scheme("Quantum-Cache", SimClock(), SchemeScale(), 1 << 24, 1 << 23)
        with pytest.raises(errors.ConfigError, match="cache_bytes"):
            build_scheme("Region-Cache", SimClock(), SchemeScale(), 1 << 24)

    def test_unknown_hint_mode_is_a_config_error(self):
        from repro.bench.experiments import _hint_lifecycle

        with pytest.raises(errors.ConfigError, match="full"):
            _hint_lifecycle("partial")

    def test_unknown_experiment_names_the_valid_ones(self):
        from repro.bench.experiments import run_sweep

        with pytest.raises(errors.ConfigError, match="hint-sweep"):
            run_sweep("fig99")

    @pytest.mark.parametrize(
        "name, override", [("fig2", "requests_per_tenant"), ("failover", "num_ops")]
    )
    def test_override_neither_axis_nor_cell_field_is_rejected(self, name, override):
        """An override is accepted only if it is an axis of the sweep or
        a field of its cell; the error names what would have been."""
        from repro.bench.experiments import run_sweep

        with pytest.raises(errors.ConfigError, match="accepts"):
            run_sweep(name, "smoke", **{override: 1})

    @pytest.mark.parametrize(
        "config, kwargs",
        [
            (F2fsConfig, {"block_size": 0}),
            (F2fsConfig, {"segments_per_section": 0}),
            (F2fsConfig, {"provision_ratio": 0.95}),
            (F2fsConfig, {"meta_batch_blocks": 0}),
            (F2fsConfig, {"cpu_ns_per_block": -1}),
            (F2fsConfig, {"blocks_per_node": 0}),
            (F2fsConfig, {"checkpoint_interval_blocks": 0}),
            (CleanerConfig, {"victim_valid_threshold": 2.0}),
            (CleanerConfig, {"low_watermark": 3, "emergency_sections": 9}),
            (CleanerConfig, {"urgent_sections": -2}),
            (CleanerConfig, {"policy": "lifo"}),
            (HddConfig, {"capacity_bytes": 5000}),
            (HddConfig, {"block_size": 0}),
            (HddConfig, {"transfer_bytes_per_ns": 0.0}),
            (BlockSsdConfig, {"maintenance_ns": -1}),
            (BlockSsdConfig, {"ftl_cpu_ns_per_page": -1}),
            (NandGeometry, {"parallelism": 0}),
            (NandTiming, {"command_overhead_ns": -1}),
            (NandTiming, {"bus_ns_per_byte": -0.5}),
            (NullBlkDevice, {"capacity_bytes": 5000}),
            (NullBlkDevice, {"latency_ns": -1}),
            (ZoneCostConfig, {"finish_ns": -1}),
            (RetryPolicy, {"max_attempts": 0}),
            (RetryPolicy, {"multiplier": 0}),
            (FaultRule, {"kind": FaultKind.MEDIA_ERROR, "probability": 1.5}),
            (FaultRule, {"kind": FaultKind.LATENCY, "extra_latency_ns": 0}),
            (ZoneFault, {"zone_index": 0, "at_ns": -1}),
            (DbConfig, {"cpu_get_ns": -1}),
            (DbConfig, {"memtable_bytes": 512}),
            (DbConfig, {"num_levels": 1}),
            (CompactionConfig, {"level_multiplier": 0}),
            (CompactionConfig, {"l0_trigger": 0}),
            (CompactionConfig, {"block_size": 0}),
            (BlockRegionStore, {"region_size": 1000}),
            (BlockRegionStore, {"num_regions": 1 << 20}),
            (ZoneRegionStore, {"num_regions": 1 << 20}),
            (ZtlRegionStore, {"num_regions": 0}),
            (ZtlRegionStore, {"num_regions": 1 << 20}),
            (FileRegionStore, {"region_size": 1000}),
            (FileRegionStore, {"num_regions": 1 << 20}),
        ],
        ids=lambda value: (
            value.__name__ if callable(value) else list(value)[-1]
        ),
    )
    def test_config_nonsense_is_a_config_error(self, config, kwargs):
        """A config — or a device's or a region store's geometry — rejects
        a nonsense value when it is built, with a ``ConfigError`` (a
        store's is a ``CacheConfigError``) — never later, and never a bare
        ``ValueError``."""
        store = config.__name__.endswith("RegionStore")
        with pytest.raises(errors.CacheConfigError if store else errors.ConfigError):
            config(**kwargs)


    @pytest.mark.parametrize("field", ["wal_bytes", "manifest_bytes"])
    def test_lsm_extent_off_the_block_grid_is_a_config_error(self, field):
        """A WAL or manifest extent that is not a whole number of device
        blocks is refused, naming the field — was a bare ``ValueError``."""
        from repro.flash import HddConfig, HddDevice
        from repro.lsm import Db

        clock = SimClock()
        hdd = HddDevice(clock, HddConfig(capacity_bytes=1 << 24))
        with pytest.raises(errors.ConfigError, match=field):
            Db(clock, hdd, DbConfig(**{field: 5000}))

class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = make_rng(5, "workload")
        b = make_rng(5, "workload")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_streams_decorrelated(self):
        a = make_rng(5, "workload")
        b = make_rng(5, "device")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_empty_stream_uses_raw_seed(self):
        import random

        assert make_rng(5).random() == random.Random(5).random()


class TestClockConventions:
    def test_devices_advance_shared_clock(self):
        """Every device moves the one shared clock — the core simulation
        convention (DESIGN.md)."""
        from repro.flash import (
            BlockSsd,
            HddConfig,
            HddDevice,
            NullBlkDevice,
            ZnsSsd,
        )
        from repro.units import MIB

        clock = SimClock()
        devices = [
            BlockSsd(clock),
            ZnsSsd(clock),
            NullBlkDevice(clock, capacity_bytes=1 * MIB),
            HddDevice(clock, HddConfig(capacity_bytes=16 * MIB)),
        ]
        for device in devices:
            before = clock.now
            device.write(0, b"\x00" * 4096)
            assert clock.now > before, type(device).__name__

    def test_background_io_does_not_advance_clock(self):
        from repro.flash import ZnsSsd

        clock = SimClock()
        zns = ZnsSsd(clock)
        before = clock.now
        zns.write(0, b"\x00" * 4096, background=True)
        assert clock.now == before
        # But the device is busy: the next foreground op queues.
        latency = zns.read(0, 4096).latency_ns
        clock2 = SimClock()
        zns2 = ZnsSsd(clock2)
        zns2.write(0, b"\x00" * 4096)
        baseline = zns2.read(0, 4096).latency_ns
        assert latency > baseline


class TestFaultTaxonomy:
    """The retry/fatal split every fault handler in the stack relies on."""

    def test_transient_errors_are_retryable(self):
        for leaf in (
            errors.TransientMediaError,
            errors.AppendFailedError,
            errors.ZoneResourceError,
        ):
            assert issubclass(leaf, errors.RetryableError), leaf
            assert issubclass(leaf, errors.DeviceError), leaf

    def test_fatal_errors_are_not_retryable(self):
        assert issubclass(errors.FatalDeviceError, errors.DeviceError)
        assert not issubclass(errors.FatalDeviceError, errors.RetryableError)

    def test_zone_death_is_both_zone_state_and_fatal(self):
        # ZoneDeadError must stay catchable by legacy zone-state checks
        # *and* by the fault handlers' fatal branch.
        assert issubclass(errors.ZoneDeadError, errors.ZoneStateError)
        assert issubclass(errors.ZoneDeadError, errors.FatalDeviceError)
        assert not issubclass(errors.ZoneDeadError, errors.RetryableError)
        error = errors.ZoneDeadError("zone 7 went read-only", zone_index=7)
        assert error.zone_index == 7

    def test_power_cut_is_neither_retryable_nor_fatal(self):
        # Handlers must re-raise it before their retry/fatal branches:
        # making it either would silently eat the cut.
        assert issubclass(errors.PowerCutError, errors.DeviceError)
        assert not issubclass(errors.PowerCutError, errors.RetryableError)
        assert not issubclass(errors.PowerCutError, errors.FatalDeviceError)

    def test_corrupt_entry_is_a_cache_error(self):
        assert issubclass(errors.EntryCorruptError, errors.CacheError)
        assert not issubclass(errors.EntryCorruptError, errors.DeviceError)

    def test_retryable_split_partitions_device_failures(self):
        # Catching RetryableError then FatalDeviceError covers every
        # injected fault kind; nothing is both.
        for leaf in (
            errors.TransientMediaError,
            errors.AppendFailedError,
            errors.ZoneResourceError,
            errors.ZoneDeadError,
        ):
            retryable = issubclass(leaf, errors.RetryableError)
            fatal = issubclass(leaf, errors.FatalDeviceError)
            assert retryable != fatal, leaf


class TestImportsAtModuleScope:
    """An ``import`` statement inside a function runs the import
    machinery on every call (``check_alignment`` paid ~2 µs a call for
    one).  The only exceptions are the profiler modules ``cli.py`` loads
    when ``--profile`` is asked for; optional dependencies are guarded
    at module scope (``try: import numpy``)."""

    ALLOWED = {("cli.py", "_run_profile", "cProfile"), ("cli.py", "_run_profile", "pstats")}

    def test_no_import_inside_a_function_under_src(self):
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        found = set()
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        continue
                    for module in modules:
                        found.add((str(path.relative_to(root)), func.name, module))
        assert found <= self.ALLOWED, sorted(found - self.ALLOWED)


class TestLayering:
    """The two middle layers are siblings over the ZNS device: F2FS
    (File-Cache) and the ZTL (Region-Cache, Z-Cache) each keep their own
    books, so neither imports the other.  Each block or slot records its
    owner in its own layer's table (the SIT's section entries, the
    ZTL's ``ZoneRecord.owners``)."""

    SIBLINGS = (("f2fs", "repro.ztl"), ("ztl", "repro.f2fs"))

    def test_f2fs_and_ztl_import_nothing_from_each_other(self):
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        found = []
        for package, forbidden in self.SIBLINGS:
            for path in sorted((root / package).rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        base = node.module or ""
                        if node.level:  # relative: resolve against the package
                            parts = ["repro", package] + list(
                                path.relative_to(root / package).parent.parts
                            )
                            parts = parts[: len(parts) - node.level + 1]
                            base = ".".join(parts + ([base] if base else []))
                        modules = [base]
                    else:
                        continue
                    for module in modules:
                        if module == forbidden or module.startswith(forbidden + "."):
                            found.append((str(path.relative_to(root)), module))
        assert found == [], found
