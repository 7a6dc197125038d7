"""Fault-injection torture tests.

Three guarantees, checked across every scheme backend:

* **availability** — with transient media errors, open-resource
  exhaustion, latency spikes and mid-run zone deaths injected, the cache
  keeps answering gets and sets instead of crashing;
* **accounting** — every injected fault is visible somewhere: the
  injector's own :class:`FaultStats` plus the retry / degraded-miss /
  quarantine counters the stack layers keep;
* **determinism** — the same seed and the same fault plan reproduce the
  same injections, the same stats and the same final sim-clock instant.
"""

import random

import pytest

from repro.bench.schemes import SchemeScale, build_scheme
from repro.errors import (
    AppendFailedError,
    PowerCutError,
    TransientMediaError,
    ZoneResourceError,
)
from repro.sim import (
    FaultInjector,
    FaultKind,
    FaultRule,
    IoOp,
    IoRequest,
    RetryPolicy,
    SimClock,
    ZoneFault,
)
from repro.units import KIB, MIB

SCALE = SchemeScale(
    zone_size=1 * MIB,
    region_size=16 * KIB,
    pages_per_block=64,
    ram_bytes=64 * KIB,
)
# Zone-Cache's region *is* the zone, so it gets small zones — otherwise
# the whole working set sits in the open region buffer and the device
# sees no traffic to inject faults into.
ZONE_SCALE = SchemeScale(
    zone_size=128 * KIB,
    region_size=16 * KIB,
    pages_per_block=16,
    ram_bytes=64 * KIB,
)
MEDIA = 16 * MIB
CACHE = 8 * MIB
SCHEMES = ("Block-Cache", "Zone-Cache", "File-Cache", "Region-Cache")


def build(scheme, clock, faults):
    scale = ZONE_SCALE if scheme == "Zone-Cache" else SCALE
    return build_scheme(scheme, clock, scale, MEDIA, CACHE, faults=faults)


def run_workload(stack, ops=2000, keys=300, seed=1):
    """Mixed set/get churn; returns (hits, misses) over the gets.

    Values are ~1 KiB so the working set spills well past the 64 KiB RAM
    tier: gets reach flash and sets force region flushes — without real
    device traffic the fault gate would have nothing to inject into.
    """
    rng = random.Random(seed)
    cache = stack.cache
    hits = misses = 0
    for i in range(ops):
        key = f"key{rng.randrange(keys):04d}".encode()
        if rng.random() < 0.5:
            cache.set(key, f"v{i}".encode() * 200)
        elif cache.get(key) is not None:
            hits += 1
        else:
            misses += 1
    return hits, misses


def stack_retries(stack) -> int:
    """Transient retries recorded anywhere in the scheme's layers."""
    total = stack.cache.stats.retries
    layer = stack.substrate.get("layer")
    if layer is not None:
        total += layer.stats.gc_retries
    fs = stack.substrate.get("fs")
    if fs is not None:
        total += fs.stats.io_retries + fs.cleaner.io_retries
    return total


class TestFaultPlanValidation:
    def test_rule_rejects_scheduled_kinds(self):
        with pytest.raises(ValueError):
            FaultRule(FaultKind.ZONE_OFFLINE)
        with pytest.raises(ValueError):
            FaultRule(FaultKind.POWER_CUT)

    def test_rule_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultRule(FaultKind.MEDIA_ERROR, probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(FaultKind.MEDIA_ERROR, probability=-0.1)

    def test_latency_rule_needs_extra_latency(self):
        with pytest.raises(ValueError):
            FaultRule(FaultKind.LATENCY)
        FaultRule(FaultKind.LATENCY, extra_latency_ns=1000)  # ok

    def test_zone_fault_kind_restricted(self):
        with pytest.raises(ValueError):
            ZoneFault(at_ns=0, zone_index=0, kind=FaultKind.MEDIA_ERROR)
        ZoneFault(at_ns=0, zone_index=0, kind=FaultKind.ZONE_READONLY)  # ok

    def test_retry_policy_backoff_grows(self):
        policy = RetryPolicy(max_attempts=4, backoff_ns=100, multiplier=3)
        assert [policy.backoff_for(i) for i in range(3)] == [100, 300, 900]
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestInjectorGate:
    """Direct inspect() behaviour, no device underneath."""

    def gate(self, injector, op=IoOp.READ, layer="block", zone=None):
        request = IoRequest(op=op, offset=0, length=4096, zone=zone, layer=layer)
        return injector.inspect("block", request, service_ns=1000)

    def test_error_kinds_raise_their_types(self):
        cases = [
            (FaultKind.MEDIA_ERROR, TransientMediaError, IoOp.READ),
            (FaultKind.ZONE_RESOURCE, ZoneResourceError, IoOp.WRITE),
            (FaultKind.APPEND_ERROR, AppendFailedError, IoOp.APPEND),
        ]
        for kind, error, op in cases:
            injector = FaultInjector(seed=1, rules=(FaultRule(kind),))
            injector.bind(SimClock(), None)
            with pytest.raises(error):
                self.gate(injector, op=op)
            assert injector.stats.count(kind) == 1

    def test_append_rule_ignores_non_append_ops(self):
        injector = FaultInjector(seed=1, rules=(FaultRule(FaultKind.APPEND_ERROR),))
        injector.bind(SimClock(), None)
        assert self.gate(injector, op=IoOp.WRITE) == 0

    def test_latency_rule_returns_extra_and_accounts(self):
        rule = FaultRule(FaultKind.LATENCY, extra_latency_ns=5000)
        injector = FaultInjector(seed=1, rules=(rule,))
        injector.bind(SimClock(), None)
        assert self.gate(injector) == 5000
        assert self.gate(injector) == 5000
        assert injector.stats.latency_injected_ns == 10_000
        assert injector.stats.count(FaultKind.LATENCY) == 2

    def test_after_requests_and_max_injections(self):
        rule = FaultRule(FaultKind.MEDIA_ERROR, after_requests=2, max_injections=1)
        injector = FaultInjector(seed=1, rules=(rule,))
        injector.bind(SimClock(), None)
        assert self.gate(injector) == 0  # warm-up 1
        assert self.gate(injector) == 0  # warm-up 2
        with pytest.raises(TransientMediaError):
            self.gate(injector)  # fires once
        assert self.gate(injector) == 0  # capped
        assert injector.stats.count(FaultKind.MEDIA_ERROR) == 1

    def test_filters_layer_op_zone(self):
        rule = FaultRule(FaultKind.MEDIA_ERROR, layer="ztl", op="read", zone=3)
        injector = FaultInjector(seed=1, rules=(rule,))
        injector.bind(SimClock(), None)
        assert self.gate(injector, layer="block", zone=3) == 0
        assert self.gate(injector, layer="ztl.gc", op=IoOp.WRITE, zone=3) == 0
        assert self.gate(injector, layer="ztl.gc", zone=1) == 0
        with pytest.raises(TransientMediaError):
            self.gate(injector, layer="ztl.gc", zone=3)

    def test_disabled_injector_is_transparent(self):
        injector = FaultInjector(seed=1, rules=(FaultRule(FaultKind.MEDIA_ERROR),))
        injector.bind(SimClock(), None)
        injector.disable()
        for _ in range(50):
            assert self.gate(injector) == 0
        assert injector.stats.total_injected == 0

    def test_probability_stream_is_seed_deterministic(self):
        def fire_pattern(seed):
            rule = FaultRule(FaultKind.MEDIA_ERROR, probability=0.3)
            injector = FaultInjector(seed=seed, rules=(rule,))
            injector.bind(SimClock(), None)
            pattern = []
            for _ in range(200):
                try:
                    self.gate(injector)
                    pattern.append(0)
                except TransientMediaError:
                    pattern.append(1)
            return pattern

        a, b = fire_pattern(9), fire_pattern(9)
        assert a == b
        assert 0 < sum(a) < 200  # actually probabilistic
        assert fire_pattern(10) != a  # and seed-sensitive

    def test_zone_faults_due_in_order_and_consumed_once(self):
        plan = (
            ZoneFault(at_ns=500, zone_index=2),
            ZoneFault(at_ns=100, zone_index=1, kind=FaultKind.ZONE_READONLY),
        )
        injector = FaultInjector(seed=1, zone_faults=plan)
        assert injector.due_zone_faults(50) == []
        due = injector.due_zone_faults(100)
        assert [fault.zone_index for fault in due] == [1]
        assert injector.due_zone_faults(100) == []  # consumed
        assert [f.zone_index for f in injector.due_zone_faults(10_000)] == [2]

    def test_torn_write_window(self):
        injector = FaultInjector(seed=1, power_cut_at_ns=1_000_000)
        injector.bind(SimClock(), None)
        # Write completes before the cut: untouched.
        assert injector.torn_write_bytes(0, 500_000, 8192, 4096) is None
        # Cut lands mid-write: an aligned prefix survives.
        keep = injector.torn_write_bytes(900_000, 200_000, 8192, 4096)
        assert keep == 4096
        assert injector.stats.torn_writes == 1
        assert injector.stats.torn_bytes_dropped == 8192 - 4096
        # Write issued after the cut: nothing survives.
        assert injector.torn_write_bytes(1_000_000, 100, 8192, 4096) == 0

    def test_power_trip_and_restore(self):
        clock = SimClock()
        injector = FaultInjector(seed=1, power_cut_at_ns=1_000)
        injector.bind(clock, None)
        clock.advance(2_000)
        request = IoRequest(op=IoOp.READ, length=512)
        with pytest.raises(PowerCutError):
            injector.inspect("block", request, 100)
        with pytest.raises(PowerCutError):  # stays dead until restored
            injector.inspect("block", IoRequest(op=IoOp.READ, length=512), 100)
        assert injector.stats.power_cuts == 1
        injector.restore_power()
        assert injector.inspect("block", IoRequest(op=IoOp.READ, length=512), 100) == 0


def one_rule_injector(kind, seed=11):
    if kind is FaultKind.MEDIA_ERROR:
        rule = FaultRule(kind, probability=0.05, op="read", after_requests=20)
    elif kind is FaultKind.ZONE_RESOURCE:
        rule = FaultRule(kind, probability=0.05, op="write")
    else:
        rule = FaultRule(kind, probability=0.1, extra_latency_ns=500_000)
    return FaultInjector(seed=seed, rules=(rule,))


class TestFaultMatrix:
    """kind x backend: every scheme survives every per-request fault."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "kind",
        [FaultKind.MEDIA_ERROR, FaultKind.ZONE_RESOURCE, FaultKind.LATENCY],
        ids=lambda kind: kind.value,
    )
    def test_scheme_survives_and_accounts(self, scheme, kind):
        clock = SimClock()
        faults = one_rule_injector(kind)
        stack = build(scheme, clock, faults)
        hits, misses = run_workload(stack)
        assert faults.stats.count(kind) > 0, "fault plan never fired"
        assert hits > 0, "cache stopped serving under faults"
        if kind is FaultKind.LATENCY:
            rule = faults.rules[0]
            assert faults.stats.latency_injected_ns == (
                faults.stats.count(kind) * rule.extra_latency_ns
            )
        else:
            # Every raised fault surfaced as a retry, a degraded miss or
            # a failed operation somewhere in the stack.
            survived = (
                stack_retries(stack)
                + stack.cache.stats.degraded_misses
                + stack.cache.stats.io_errors
            )
            assert survived > 0

    def test_append_errors_on_zone_append_ztl(self):
        # Zone append is an opt-in ZTL mode (use_zone_append), so the
        # append-failure kind gets a hand-built Region-Cache stack.
        from repro.cache import CacheConfig, HybridCache
        from repro.cache.backends import ZtlRegionStore
        from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
        from repro.ztl import GcConfig, RegionTranslationLayer, ZtlConfig

        clock = SimClock()
        faults = FaultInjector(
            seed=11, rules=(FaultRule(FaultKind.APPEND_ERROR, probability=0.05),)
        )
        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=256)
        device = ZnsSsd(
            clock,
            ZnsConfig(geometry=geometry, zone_size=4 * geometry.block_size),
            faults=faults,
        )
        layer = RegionTranslationLayer(
            device,
            ZtlConfig(
                region_size=16 * KIB,
                use_zone_append=True,
                gc=GcConfig(min_empty_zones=2),
            ),
        )
        store = ZtlRegionStore(layer, 160)
        config = CacheConfig(region_size=16 * KIB, num_regions=160, ram_bytes=8 * KIB)
        cache = HybridCache(clock, store, config)
        rng = random.Random(1)
        hits = 0
        for i in range(2000):
            key = f"key{rng.randrange(300):04d}".encode()
            if rng.random() < 0.5:
                cache.set(key, f"v{i}".encode() * 200)
            elif cache.get(key) is not None:
                hits += 1
        assert faults.stats.count(FaultKind.APPEND_ERROR) > 0
        assert hits > 0
        assert cache.stats.retries + layer.stats.gc_retries > 0

    @pytest.mark.parametrize("scheme", SCHEMES[:2])
    def test_same_seed_reproduces_run(self, scheme):
        def run():
            clock = SimClock()
            faults = FaultInjector(
                seed=13,
                rules=(
                    FaultRule(FaultKind.MEDIA_ERROR, probability=0.01, op="read"),
                    FaultRule(FaultKind.ZONE_RESOURCE, probability=0.005, op="write"),
                    FaultRule(
                        FaultKind.LATENCY, probability=0.02, extra_latency_ns=100_000
                    ),
                ),
            )
            stack = build(scheme, clock, faults)
            hits, misses = run_workload(stack)
            return (
                hits,
                misses,
                clock.now,
                dict(faults.stats.injected),
                faults.stats.latency_injected_ns,
                stack.cache.stats.snapshot(),
            )

        first, second = run(), run()
        assert first == second


class TestZoneDeath:
    def test_zone_cache_survives_zone_flip(self):
        clock = SimClock()
        faults = FaultInjector(
            seed=5,
            zone_faults=(
                ZoneFault(
                    at_ns=2_000_000, zone_index=2, kind=FaultKind.ZONE_READONLY
                ),
            ),
        )
        stack = build("Zone-Cache", clock, faults)
        hits, _ = run_workload(stack, ops=2500)
        assert faults.stats.zone_faults_applied == 1
        assert hits > 0
        device = stack.substrate["device"]
        assert device.zones[2].is_dead

    def test_region_cache_retires_dead_zone(self):
        clock = SimClock()
        faults = FaultInjector(
            seed=5,
            zone_faults=(ZoneFault(at_ns=2_000_000, zone_index=1),),
        )
        stack = build_scheme("Region-Cache", clock, SCALE, MEDIA, CACHE, faults=faults)
        hits, _ = run_workload(stack, ops=2500)
        assert faults.stats.zone_faults_applied == 1
        assert hits > 0
        layer = stack.substrate["layer"]
        assert layer.stats.dead_zones >= 1
        assert layer.book.dead_count >= 1

    def test_file_cache_retires_dead_section(self):
        clock = SimClock()
        faults = FaultInjector(
            seed=5,
            zone_faults=(ZoneFault(at_ns=2_000_000, zone_index=1),),
        )
        stack = build_scheme("File-Cache", clock, SCALE, MEDIA, CACHE, faults=faults)
        hits, _ = run_workload(stack, ops=2500)
        assert faults.stats.zone_faults_applied == 1
        assert hits > 0
        fs = stack.substrate["fs"]
        assert fs.stats.dead_sections >= 1

    def test_block_cache_has_no_zones_to_kill(self):
        clock = SimClock()
        faults = FaultInjector(
            seed=5,
            zone_faults=(ZoneFault(at_ns=2_000_000, zone_index=1),),
        )
        stack = build_scheme("Block-Cache", clock, SCALE, MEDIA, CACHE, faults=faults)
        hits, _ = run_workload(stack)
        assert faults.stats.zone_faults_applied == 0
        assert hits > 0


class TestPowerCutSmoke:
    """The detailed recovery oracle lives in test_warm_restart; here we
    check the cut itself fires deterministically through a full stack."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cut_interrupts_the_workload(self, scheme):
        clock = SimClock()
        faults = FaultInjector(seed=3, power_cut_at_ns=20_000_000)
        stack = build(scheme, clock, faults)
        with pytest.raises(PowerCutError):
            run_workload(stack, ops=100_000)
        assert faults.stats.power_cuts == 1
        assert clock.now >= 20_000_000
        # Still dark: the next flush that reaches the device fails too
        # (a buffered set alone never leaves RAM, so force the flush).
        with pytest.raises(PowerCutError):
            stack.cache.set(b"after", b"the-lights-went-out")
            stack.cache.flush()


class RecordingInjector(FaultInjector):
    """Notes every command it is shown and what the device looked like
    at that moment."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []
        self.snapshot = lambda: None

    def inspect(self, pipeline_name, request, service_ns):
        self.seen.append(
            (pipeline_name, request.op.value, request.offset, request.length,
             self.snapshot())
        )
        return super().inspect(pipeline_name, request, service_ns)


def _zns_device(clock, faults):
    from repro.flash import NandGeometry, ZnsConfig, ZnsSsd

    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    return ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=256 * KIB), faults=faults)


def _block_device(clock, faults):
    from repro.flash import BlockSsd, BlockSsdConfig, NandGeometry

    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    return BlockSsd(clock, BlockSsdConfig(geometry=geometry), faults=faults)


def _nullblk_device(clock, faults):
    from repro.flash import NullBlkDevice

    return NullBlkDevice(clock, capacity_bytes=1 * MIB, faults=faults)


def _hdd_device(clock, faults):
    from repro.flash import HddConfig, HddDevice

    return HddDevice(clock, HddConfig(capacity_bytes=16 * MIB), faults=faults)


class TestChargeRoutineUnderFaults:
    """Every device's ``read`` and ``write`` charge through
    ``IoPipeline.charge``.  Armed, the injector sees each command exactly
    once and before the device has changed anything for it, so a raised
    fault leaves the device as it was and the command can be retried."""

    @pytest.mark.parametrize(
        "make, name",
        [
            pytest.param(_zns_device, "znsssd", id="znsssd"),
            pytest.param(_block_device, "blockssd", id="blockssd"),
            pytest.param(_nullblk_device, "nullblk", id="nullblk"),
            pytest.param(_hdd_device, "hdd", id="hdd"),
        ],
    )
    def test_each_command_seen_once_before_any_state_change(self, make, name):
        clock = SimClock()
        # The second write command fails, once.
        faults = RecordingInjector(
            seed=1,
            rules=(
                FaultRule(
                    FaultKind.MEDIA_ERROR, op="write", after_requests=1,
                    max_injections=1,
                ),
            ),
        )
        device = make(clock, faults)
        faults.snapshot = lambda: (
            clock.now,
            device.media.allocated_bytes,
            device.stats.host_write_bytes,
            device.stats.host_read_bytes,
            device.pipeline.pool.requests_served,
        )
        first, second = bytes([1]) * (8 * KIB), bytes([2]) * (8 * KIB)
        device.write(0, first)
        assert faults.seen == [(name, "write", 0, 8 * KIB, (0, 0, 0, 0, 0))]
        device.read(4 * KIB, 4 * KIB)
        assert [entry[:4] for entry in faults.seen[1:]] == [
            (name, "read", 4 * KIB, 4 * KIB)
        ]
        assert faults.seen[1][4][3] == 0  # shown before it was counted

        before = faults.snapshot()
        with pytest.raises(TransientMediaError):
            device.write(8 * KIB, second)
        assert faults.snapshot() == before
        assert device.read(8 * KIB, 8 * KIB).data == bytes(8 * KIB)
        del faults.seen[:]
        device.write(8 * KIB, second)  # the retry lands where the fault was
        assert device.read(0, 16 * KIB).data == first + second
        assert [entry[:4] for entry in faults.seen] == [
            (name, "write", 8 * KIB, 8 * KIB),
            (name, "read", 0, 16 * KIB),
        ]
        assert device.stats.host_write_bytes == 16 * KIB

    @pytest.mark.parametrize("scheme", SCHEMES + ("Z-Cache",))
    def test_transient_read_faults_cost_what_they_did(self, scheme):
        """Read faults → engine retries → degraded misses, in the numbers
        of the commit before the devices shared one charge routine."""
        assert _read_fault_outcome(scheme) == PARENT_READ_FAULT_OUTCOMES[scheme]

    @pytest.mark.parametrize("scheme", SCHEMES + ("Z-Cache",))
    def test_power_cut_tears_the_same_write(self, scheme):
        assert _power_cut_outcome(scheme) == PARENT_POWER_CUT_OUTCOMES[scheme]


def _fail_once(op):
    """An injector whose first ``op`` command raises a media error."""
    return FaultInjector(
        seed=1,
        rules=(FaultRule(FaultKind.MEDIA_ERROR, op=op, max_injections=1),),
    )


def _zns_state(device):
    """Everything a zone-management command may change on a ZnsSsd."""
    from dataclasses import astuple

    return (
        [(zone.state, zone.write_pointer) for zone in device.zones],
        astuple(device.zone_mgmt),
        dict(device._open_touch),
        device._clock.now,
        device.pipeline.pool.requests_served,
        device.media.allocated_bytes,
        device.stats.erase_count,
    )


class TestManagementCommandsUnderFaults:
    """Zone management and discard consult the injector before they
    change anything, as data commands do: a faulted command leaves the
    device exactly as it was, and the retry then succeeds."""

    @pytest.mark.parametrize("op", ["finish", "open", "close", "reset"])
    def test_faulted_zone_command_changes_nothing(self, op):
        from repro.flash.zone import ZoneState

        device = _zns_device(SimClock(), _fail_once(op))
        device.write(0, bytes([7]) * (8 * KIB))  # zone 0: IMPLICIT_OPEN
        zone_index = 1 if op == "open" else 0
        command = getattr(device, f"{op}_zone")
        before = _zns_state(device)
        with pytest.raises(TransientMediaError):
            command(zone_index)
        assert _zns_state(device) == before
        assert device.read(0, 8 * KIB).data == bytes([7]) * (8 * KIB)
        command(zone_index)  # the retry is a plain command
        want = {
            "finish": ZoneState.FULL,
            "open": ZoneState.EXPLICIT_OPEN,
            "close": ZoneState.CLOSED,
            "reset": ZoneState.EMPTY,
        }[op]
        assert device.zones[zone_index].state is want

    def test_faulted_forced_close_changes_nothing(self):
        from repro.flash import NandGeometry, ZnsConfig, ZnsSsd
        from repro.flash.zone import ZoneCostConfig, ZoneState

        geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
        device = ZnsSsd(
            SimClock(),
            ZnsConfig(
                geometry=geometry,
                zone_size=256 * KIB,
                max_open_zones=1,
                max_active_zones=2,
                zone_costs=ZoneCostConfig(close_ns=20_000, forced_close=True),
            ),
            faults=_fail_once("close"),
        )
        payload = bytes([3]) * (4 * KIB)
        device.write(0, payload)
        before = _zns_state(device)
        # Opening zone 1 must force zone 0 closed; that close faults.
        with pytest.raises(TransientMediaError):
            device.write(256 * KIB, payload)
        assert _zns_state(device) == before
        assert device.zones[0].state is ZoneState.IMPLICIT_OPEN
        device.write(256 * KIB, payload)
        assert device.zones[0].state is ZoneState.CLOSED
        assert device.zones[1].state is ZoneState.IMPLICIT_OPEN
        assert device.zone_mgmt.forced_closes == 1

    def test_faulted_discard_changes_nothing(self):
        device = _block_device(SimClock(), _fail_once("discard"))
        data = bytes(range(256)) * 32
        device.write(0, data)
        ftl = device.ftl

        def state():
            return (
                dict(ftl._l2p),
                ftl.total_host_pages,
                device.media.load(0, len(data)),
                device._clock.now,
                device.pipeline.pool.requests_served,
            )

        before = state()
        with pytest.raises(TransientMediaError):
            device.discard(0, 4 * KIB)
        assert state() == before
        device.discard(0, 4 * KIB)
        assert device.read(0, 8 * KIB).data == bytes(4 * KIB) + data[4 * KIB:]


def _faulty_stack(scheme, faults):
    scale = ZONE_SCALE if scheme == "Zone-Cache" else SCALE
    cache = None if scheme == "Zone-Cache" else CACHE
    return build_scheme(scheme, SimClock(), scale, MEDIA, cache, faults=faults)


def _read_fault_outcome(scheme):
    faults = FaultInjector(
        seed=17,
        rules=(
            FaultRule(FaultKind.MEDIA_ERROR, probability=0.3, op="read"),
            FaultRule(FaultKind.LATENCY, probability=0.05, extra_latency_ns=150_000),
        ),
    )
    stack = _faulty_stack(scheme, faults)
    hits, misses = run_workload(stack, ops=1500)
    stats = stack.cache.stats
    return (
        hits, misses, stats.retries, stats.degraded_misses, stats.io_errors,
        faults.stats.count(FaultKind.MEDIA_ERROR),
        faults.stats.latency_injected_ns, stack.clock.now,
    )


# Cut instants that land inside a device write on each scheme.
CUT_AT_NS = {"Zone-Cache": 6_500_000, "File-Cache": 5_000_000}


def _power_cut_outcome(scheme):
    faults = FaultInjector(seed=3, power_cut_at_ns=CUT_AT_NS.get(scheme, 9_000_000))
    stack = _faulty_stack(scheme, faults)
    with pytest.raises(PowerCutError):
        run_workload(stack, ops=100_000)
    device = stack.substrate["device"]
    return (
        stack.clock.now, faults.stats.torn_writes, faults.stats.torn_bytes_dropped,
        device.stats.host_write_bytes, device.media.allocated_bytes,
        stack.cache.stats.sets, stack.cache.stats.flushes,
    )


# Recorded on the last commit whose BlockSsd / NullBlkDevice / HddDevice
# gated their commands in ``IoPipeline._dispatch``.
# (hits, misses, retries, degraded_misses, io_errors, media errors
# injected, latency injected, final sim instant)
PARENT_READ_FAULT_OUTCOMES = {
    "Block-Cache": (440, 271, 118, 8, 8, 118, 1350000, 81287031),
    "Zone-Cache": (440, 271, 102, 8, 8, 102, 1200000, 58164737),
    "File-Cache": (413, 298, 245, 35, 35, 245, 4650000, 155027785),
    "Region-Cache": (440, 271, 118, 8, 8, 118, 1350000, 79227031),
    "Z-Cache": (440, 271, 118, 8, 8, 118, 1350000, 79227031),
}
# (sim instant of the cut, torn writes, torn bytes dropped, device host
# write bytes, media bytes held, sets, flushes)
PARENT_POWER_CUT_OUTCOMES = {
    "Block-Cache": (9000000, 1, 12288, 167936, 196608, 224, 10),
    "Zone-Cache": (6500000, 1, 126976, 135168, 196608, 332, 1),
    "File-Cache": (5000000, 1, 4096, 73728, 131072, 91, 3),
    "Region-Cache": (9000000, 1, 8192, 172032, 262144, 224, 10),
    "Z-Cache": (9000000, 1, 8192, 172032, 262144, 224, 10),
}
