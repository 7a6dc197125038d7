"""Cross-cutting tests: error hierarchy, clock conventions, RNG streams."""

import pytest

from repro import errors
from repro.f2fs import F2fsConfig
from repro.flash import BlockSsdConfig, HddConfig
from repro.flash.zone import ZoneCostConfig
from repro.lsm.compaction import CompactionConfig
from repro.lsm.db import DbConfig
from repro.sim import FaultKind, FaultRule, RetryPolicy, ZoneFault, make_rng
from repro.sim.clock import SimClock


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
        "kwargs", [{"channels": 0}, {"queue_depth": 0}, {"stripe_bytes": -1}]
    )
    def test_pool_config_rejects_nonsense_with_config_error(self, kwargs):
        from repro.sim import PoolConfig

        with pytest.raises(errors.ConfigError):
            PoolConfig(**kwargs)

    @pytest.mark.parametrize(
        "zns, ztl, match",
        [
            ({"zone_size": 3 * 4096}, {}, "NAND block"),
            ({"max_open_zones": 0}, {}, "max_open_zones"),
            ({"max_open_zones": 8, "max_active_zones": 4}, {}, "max_active_zones"),
            ({"zone_size": 1 << 30}, {}, "even one zone"),
            ({}, {"region_size": 48 * 1024}, "divide zone size"),
            ({}, {"region_size": 2048}, "page size"),
            ({}, {"usable_zones": 1}, "usable_zones"),
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
            (HddConfig, {"capacity_bytes": 5000}),
            (HddConfig, {"block_size": 0}),
            (HddConfig, {"transfer_bytes_per_ns": 0.0}),
            (BlockSsdConfig, {"maintenance_ns": -1}),
            (BlockSsdConfig, {"ftl_cpu_ns_per_page": -1}),
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
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else list(value)[-1],
    )
    def test_config_nonsense_is_a_config_error(self, config, kwargs):
        """A config rejects a nonsense value when it is built, with a
        ``ConfigError`` — never later, and never a bare ``ValueError``."""
        with pytest.raises(errors.ConfigError):
            config(**kwargs)


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
