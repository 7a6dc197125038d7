"""Tests for the unified I/O pipeline: pool model, batching, tracing.

Covers four guarantees the refactor makes:

* a serial ``ResourcePool`` (channels=1, queue_depth=1) reproduces
  ``ResourceTimeline`` arithmetic exactly — the seed's golden latency and
  WAF numbers are locked in below;
* wider pools (channels/queue_depth > 1) demonstrably overlap batched
  submissions and cut tail latency;
* the tracer links one cache ``set()`` to the device commands it caused,
  across every scheme stack;
* cross-layer write attribution (``bytes_written_by_layer``) accounts for
  the device's media writes exactly.
"""

import random

import pytest

from repro.bench.experiments import run_sweep
from repro.bench.schemes import SchemeScale, build_scheme
from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    HddConfig,
    HddDevice,
    NandGeometry,
    ZnsConfig,
    ZnsSsd,
)
from repro.flash.ftl import FtlConfig
from repro.sim import (
    IoOp,
    IoPipeline,
    IoRequest,
    IoTracer,
    PoolConfig,
    ResourcePool,
    ResourceTimeline,
    SimClock,
)
from repro.units import KIB, MIB


class TestPoolConfig:
    def test_defaults_are_serial(self):
        config = PoolConfig()
        assert config.channels == 1
        assert config.queue_depth == 1
        assert config.total_slots == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"channels": 0},
            {"channels": -2},
            {"queue_depth": 0},
            {"stripe_bytes": -1},
        ],
    )
    def test_invalid_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PoolConfig(**kwargs)

    def test_total_slots(self):
        assert PoolConfig(channels=4, queue_depth=8).total_slots == 32


class TestResourcePoolSerial:
    """A 1×1 pool must be bit-identical to the old serial timeline."""

    def test_random_workload_matches_timeline(self):
        rng = random.Random(42)
        pool = ResourcePool()
        line = ResourceTimeline()
        now = 0
        for _ in range(500):
            now += rng.randrange(0, 2_000)
            service = rng.randrange(0, 5_000)
            if rng.random() < 0.3:
                done_pool, _, channel = pool.reserve_background(now, service)
                done_line = line.reserve_background(now, service)
            else:
                done_pool, _, channel = pool.acquire(now, service)
                done_line = line.acquire(now, service)
            assert done_pool == done_line
            assert channel == 0
            assert pool.busy_until == line.busy_until
            assert pool.wait_time(now) == line.wait_time(now)
        assert pool.total_busy_ns == line.total_busy_ns
        assert pool.total_wait_ns == line.total_wait_ns

    def test_background_wait_not_charged(self):
        pool = ResourcePool()
        pool.acquire(0, 100)
        pool.reserve_background(40, 200)
        assert pool.total_wait_ns == 0
        done, wait, _ = pool.acquire(150, 10)
        assert done == 310 and wait == 150
        assert pool.total_wait_ns == 150

    def test_negative_service_rejected(self):
        pool = ResourcePool()
        with pytest.raises(ValueError):
            pool.acquire(0, -1)
        with pytest.raises(ValueError):
            pool.reserve_background(0, -1)


class TestResourcePoolParallel:
    def test_two_channels_overlap(self):
        pool = ResourcePool(config=PoolConfig(channels=2))
        done_a, wait_a, ch_a = pool.acquire(0, 100)
        done_b, wait_b, ch_b = pool.acquire(0, 100)
        assert (done_a, wait_a) == (100, 0)
        assert (done_b, wait_b) == (100, 0)
        assert {ch_a, ch_b} == {0, 1}

    def test_queue_depth_slots_overlap_within_channel(self):
        pool = ResourcePool(config=PoolConfig(channels=1, queue_depth=2))
        assert pool.acquire(0, 100)[0] == 100
        assert pool.acquire(0, 100)[0] == 100
        # Third request finds both slots busy and queues.
        done, wait, _ = pool.acquire(0, 100)
        assert done == 200 and wait == 100

    def test_stripe_routes_by_offset(self):
        pool = ResourcePool(config=PoolConfig(channels=4, stripe_bytes=4096))
        for i in range(8):
            _, _, channel = pool.acquire(0, 10, offset=i * 4096)
            assert channel == i % 4

    def test_burst_p99_drops_with_queue_depth(self):
        """The headline parallelism claim: deeper queues cut tail latency."""

        def burst_latencies(config):
            pool = ResourcePool(config=config)
            return sorted(pool.acquire(0, 1_000)[0] - 0 for _ in range(16))

        serial = burst_latencies(PoolConfig())
        deep = burst_latencies(PoolConfig(queue_depth=4))
        # p99 ~ max of the 16-burst here.
        assert serial[-1] == 16_000
        assert deep[-1] == 4_000
        assert deep[-1] < serial[-1]

    def test_utilization_accounts_all_channels(self):
        pool = ResourcePool(config=PoolConfig(channels=2))
        pool.acquire(0, 100)
        pool.acquire(0, 100)
        assert pool.utilization(100) == pytest.approx(1.0)
        assert pool.utilization(200) == pytest.approx(0.5)

    def test_snapshot_keys(self):
        pool = ResourcePool(config=PoolConfig(channels=2, queue_depth=3))
        pool.acquire(0, 10)
        snap = pool.snapshot()
        assert snap["channels"] == 2
        assert snap["queue_depth"] == 3
        assert snap["requests"] == 1
        assert snap["total_busy_ns"] == 10


class TestIoPipeline:
    def test_foreground_advances_clock(self):
        clock = SimClock()
        pipeline = IoPipeline(clock)
        completion = pipeline.submit(IoRequest(IoOp.WRITE, 0, 4096), 500)
        assert clock.now == 500
        assert completion.latency_ns == 500
        assert completion.wait_ns == 0
        assert completion.service_ns == 500

    def test_background_reserves_without_blocking(self):
        clock = SimClock()
        pipeline = IoPipeline(clock)
        completion = pipeline.submit(
            IoRequest(IoOp.GC, background=True), 1_000
        )
        assert clock.now == 0
        assert completion.latency_ns == 0
        assert pipeline.pool.busy_until == 1_000
        # The next foreground command queues behind the reservation.
        completion = pipeline.submit(IoRequest(IoOp.READ), 100)
        assert completion.wait_ns == 1_000
        assert clock.now == 1_100

    def test_submit_many_serial_equals_loop(self):
        """On a serial pool a batch is arithmetically a synchronous loop."""
        batch = [(IoRequest(IoOp.WRITE, i * 4096, 4096), 300 + i) for i in range(10)]
        loop_clock = SimClock()
        loop_pipeline = IoPipeline(loop_clock)
        for request, service in [
            (IoRequest(IoOp.WRITE, i * 4096, 4096), 300 + i) for i in range(10)
        ]:
            loop_pipeline.submit(request, service)
        batch_clock = SimClock()
        batch_pipeline = IoPipeline(batch_clock)
        completions = batch_pipeline.submit_many(batch)
        assert batch_clock.now == loop_clock.now
        assert completions[-1].completed_ns == loop_clock.now
        assert (
            batch_pipeline.pool.total_busy_ns == loop_pipeline.pool.total_busy_ns
        )

    def test_submit_many_pipelines_across_channels(self):
        serial_clock = SimClock()
        serial = IoPipeline(serial_clock, config=PoolConfig())
        serial.submit_many(
            [(IoRequest(IoOp.WRITE, i * 4096, 4096), 1_000) for i in range(8)]
        )
        wide_clock = SimClock()
        wide = IoPipeline(wide_clock, config=PoolConfig(channels=4))
        wide.submit_many(
            [(IoRequest(IoOp.WRITE, i * 4096, 4096), 1_000) for i in range(8)]
        )
        assert serial_clock.now == 8_000
        assert wide_clock.now == 2_000

    def test_batch_mixes_background_and_foreground(self):
        clock = SimClock()
        pipeline = IoPipeline(clock)
        completions = pipeline.submit_many(
            [
                (IoRequest(IoOp.WRITE, 0, 4096), 100),
                (IoRequest(IoOp.GC, background=True), 10_000),
                (IoRequest(IoOp.WRITE, 4096, 4096), 100),
            ]
        )
        # Barrier is the last *foreground* completion; the background
        # reservation extends the pool, not the clock.
        assert clock.now == 10_200
        assert completions[1].latency_ns == 0
        assert pipeline.pool.busy_until == 10_200

    def test_requests_parented_to_open_span(self):
        clock = SimClock()
        tracer = IoTracer(clock).enable()
        pipeline = IoPipeline(clock, tracer=tracer)
        with tracer.span("backend", "write_region", length=4096):
            pipeline.submit(IoRequest(IoOp.WRITE, 0, 4096, layer="zns"), 100)
        write = tracer.find(layer="zns", op="write")[0]
        assert tracer.layer_chain(write.record_id) == ["backend", "zns"]

    def test_disabled_tracer_records_nothing(self):
        clock = SimClock()
        pipeline = IoPipeline(clock)
        with pipeline.tracer.span("engine", "set"):
            pipeline.submit(IoRequest(IoOp.WRITE, 0, 4096), 100)
        assert len(pipeline.tracer) == 0


class TestSpanLifecycle:
    """The record is its own span handle: what enter/exit stamp, when it
    is emitted, and that the stack survives every way a span can end."""

    def test_three_deep_nesting_links_each_span_to_its_opener(self):
        clock = SimClock()
        tracer = IoTracer(clock).enable()
        with tracer.span("a", "outer", offset=1, length=2, zone=3):
            clock.advance(10)
            with tracer.span("b", "middle"):
                clock.advance(5)
                with tracer.span("c", "inner"):
                    clock.advance(1)
                tracer.emit_event("c", "after_inner")
        inner, event, middle, outer = tracer.records  # emitted at close
        assert [r.record_id for r in (outer, middle, inner, event)] == [1, 2, 3, 4]
        assert outer.parent_id is None
        assert middle.parent_id == outer.record_id
        assert inner.parent_id == middle.record_id
        assert event.parent_id == middle.record_id
        assert (outer.offset, outer.length, outer.zone) == (1, 2, 3)
        assert (outer.submitted_ns, outer.completed_ns, outer.service_ns) == (
            0, 16, 16
        )
        assert (inner.submitted_ns, inner.latency_ns, inner.wait_ns) == (15, 1, 0)
        assert outer.channel == -1 and outer.background is False
        assert tracer.layer_chain(inner.record_id) == ["a", "b", "c"]
        assert tracer.current_parent is None

    def test_span_closed_by_power_cut_mid_flush_is_emitted_and_balanced(self):
        from repro.errors import PowerCutError
        from repro.sim import FaultInjector

        clock = SimClock()
        faults = FaultInjector(seed=3, power_cut_at_ns=2_000_000)
        stack = build_scheme(
            "Region-Cache", clock, SMALL_SCALE, 16 * MIB, 8 * MIB, faults=faults
        )
        tracer = stack.cache.store.tracer.enable()
        with pytest.raises(PowerCutError):
            for i in range(100_000):
                stack.cache.set(f"key-{i}".encode(), b"v" * 2048)
        assert tracer.current_parent is None  # every open span popped
        # The spans the error unwound through were emitted innermost
        # first, each parented to the one that was open around it.
        ztl, backend, engine = tracer.records[-3:]
        assert (ztl.layer, ztl.op) == ("ztl", "write_region")
        assert (backend.layer, backend.op) == ("backend", "write_region")
        assert (engine.layer, engine.op) == ("engine", "set")
        assert ztl.parent_id == backend.record_id
        assert backend.parent_id == engine.record_id
        assert engine.parent_id is None
        assert engine.completed_ns == clock.now
        # A span opened afterwards starts from a clean stack.
        with tracer.span("probe", "after_cut"):
            pass
        assert tracer.records[-1].parent_id is None

    def test_subscribe_and_disable_inside_an_open_span(self):
        clock = SimClock()
        tracer = IoTracer(clock).enable()
        seen = []
        with tracer.span("a", "outer"):
            tracer.subscribe(seen.append)
            with tracer.span("b", "inner"):
                tracer.disable()  # capture off; the subscriber keeps it enabled
            with tracer.span("c", "late"):
                pass
        # Capture stopped before any span closed; the subscriber, added
        # while "outer" was open, saw all three close — the same objects
        # ``records`` would have held.
        assert tracer.records == []
        assert [(r.layer, r.parent_id) for r in seen] == [
            ("b", 1), ("c", 1), ("a", None)
        ]
        assert tracer.enabled and tracer.current_parent is None

    def test_disable_with_no_subscriber_inside_a_span_still_balances(self):
        clock = SimClock()
        tracer = IoTracer(clock).enable()
        with tracer.span("a", "outer"):
            tracer.disable()
            assert tracer.span("b", "inner") is IoTracer().span("x", "y")
        assert tracer.records == []  # closed after capture stopped
        assert tracer.current_parent is None
        tracer.enable()
        with tracer.span("a", "again"):
            pass
        assert tracer.records[0].parent_id is None

    def test_enabled_tracer_without_a_clock_returns_the_shared_noop(self):
        tracer = IoTracer().enable()
        assert tracer.enabled
        noop = tracer.span("engine", "set")
        assert noop is IoTracer().span("engine", "set")  # the disabled path's
        with noop:
            pass
        tracer.emit_event("engine", "event")
        assert tracer.records == [] and tracer.current_parent is None


class TestDeviceParallelism:
    """channels > 1 visibly changes device-level tail latency."""

    def _fill_zone(self, io):
        clock = SimClock()
        device = ZnsSsd(
            clock,
            ZnsConfig(geometry=NandGeometry(num_blocks=64)),
            io=io,
        )
        zone = device.zones[0]
        page = device.block_size
        items = [
            (zone.start + i * page, bytes([i % 251]) * page)
            for i in range(device.zone_size // page)
        ]
        device.write_many(items)
        return clock.now, device.stats.write_latency.p99()

    def test_channels_cut_zone_fill_time_and_p99(self):
        serial_ns, serial_p99 = self._fill_zone(PoolConfig())
        wide_ns, wide_p99 = self._fill_zone(PoolConfig(channels=4, queue_depth=2))
        assert wide_ns < serial_ns
        assert wide_p99 < serial_p99
        # 8 slots should shrink the batch barrier close to 8x.
        assert wide_ns <= serial_ns // 4


class TestGoldenSeed:
    """Golden values captured from the seed's serial model.

    The default PoolConfig must reproduce them bit-for-bit: any drift
    here means the pipeline changed simulated physics, not just plumbing.
    """

    def test_blockssd_golden(self):
        clock = SimClock()
        device = BlockSsd(
            clock,
            BlockSsdConfig(
                geometry=NandGeometry(num_blocks=64),
                ftl=FtlConfig(op_ratio=0.25),
            ),
        )
        rng = random.Random(11)
        block = device.block_size
        blocks = device.capacity_bytes // block
        for i in range(4 * blocks):
            device.write(rng.randrange(blocks) * block, bytes([i % 251]) * block)
        assert clock.now == 9_515_826_972
        assert device.stats.media_write_bytes == 92_323_840
        assert device.stats.erase_count == 296
        assert device.stats.write_latency.p99() == 615_276
        assert device.stats.gc_runs == 32

    def test_zns_golden(self):
        clock = SimClock()
        device = ZnsSsd(clock, ZnsConfig(geometry=NandGeometry(num_blocks=64)))
        for rep in range(3):
            for index in range(device.num_zones):
                zone = device.zones[index]
                if zone.written_bytes > 0 or rep > 0:
                    device.reset_zone(index)
                device.write(zone.start, b"z" * device.zone_size)
        assert clock.now == 1_346_089_316
        assert device.stats.media_write_bytes == 50_331_648
        assert device.stats.erase_count == 128
        assert device.stats.write_latency.p99() == 128_171_443

    def test_hdd_golden(self):
        clock = SimClock()
        device = HddDevice(clock, HddConfig(capacity_bytes=64 * MIB), seed=7)
        rng = random.Random(5)
        blocks = device.capacity_bytes // device.block_size
        for i in range(200):
            offset = rng.randrange(blocks) * device.block_size
            if i % 2 == 0:
                device.read(offset, device.block_size)
            else:
                device.write(offset, b"h" * device.block_size)
        assert clock.now == 2_152_060_005
        assert device.stats.read_latency.p99() == 16_055_567
        assert device.stats.write_latency.p99() == 15_999_019

    @pytest.mark.slow
    def test_fig2_golden(self, sweep_rows):
        rows = sweep_rows("fig2")  # zones=12, cache 9, file 18, 4000 ops
        expected = {
            "Block-Cache": dict(
                cache_mib=36.0,
                get_p99_us=83.453,
                hit_ratio=0.8438775510204082,
                set_p99_us=1796.701,
                throughput_mops_per_min=1.6520145648141498,
                waf_app=1.0,
                waf_device=1.640625,
            ),
            "File-Cache": dict(
                cache_mib=36.0,
                get_p99_us=127.453,
                hit_ratio=0.8438775510204082,
                set_p99_us=2663.977,
                throughput_mops_per_min=1.6990825723549836,
                waf_app=1.078125,
                waf_device=1.0,
            ),
            "Region-Cache": dict(
                cache_mib=36.0,
                get_p99_us=11150.904,
                hit_ratio=0.8438775510204082,
                set_p99_us=1732.821,
                throughput_mops_per_min=0.4709803702141237,
                waf_app=8.805555555555555,
                waf_device=1.0,
            ),
            "Zone-Cache": dict(
                cache_mib=48.0,
                get_p99_us=75.453,
                hit_ratio=0.8811224489795918,
                set_p99_us=1.36,
                throughput_mops_per_min=0.926339694528708,
                waf_app=1.0,
                waf_device=1.0,
            ),
        }
        assert len(rows) == len(expected)
        for row in rows:
            want = expected[row["scheme"]]
            for key, value in want.items():
                assert row[key] == pytest.approx(value, rel=1e-9), (
                    f"{row['scheme']}.{key}"
                )
            # The new per-device report columns ride along on every row.
            assert row["io_channels"] == 1
            assert row["io_queue_depth"] == 1
            assert row["dev_wait_ms"] >= 0.0
            assert row["dev_busy_ms"] > 0.0
            assert 0.0 < row["dev_util"] <= 1.0


SMALL_SCALE = SchemeScale(
    zone_size=1 * MIB,
    region_size=16 * KIB,
    pages_per_block=64,
    ram_bytes=64 * KIB,
)

TRACE_CASES = [
    # (scheme, media_bytes, cache_bytes, expected set() chain)
    ("Block-Cache", 16 * MIB, 8 * MIB, ["engine", "backend", "block"]),
    ("Zone-Cache", 16 * MIB, 16 * MIB, ["engine", "backend", "zns"]),
    ("Region-Cache", 16 * MIB, 8 * MIB, ["engine", "backend", "ztl", "zns"]),
    ("File-Cache", 32 * MIB, 8 * MIB, ["engine", "backend", "f2fs", "zns"]),
]


class TestEndToEndTrace:
    """One cache set() yields a causally-linked chain down to the device."""

    @pytest.mark.parametrize(
        "scheme,media_bytes,cache_bytes,expected",
        TRACE_CASES,
        ids=[case[0] for case in TRACE_CASES],
    )
    def test_set_chain(self, scheme, media_bytes, cache_bytes, expected):
        clock = SimClock()
        stack = build_scheme(scheme, clock, SMALL_SCALE, media_bytes, cache_bytes)
        tracer = stack.cache.store.tracer
        tracer.enable()
        value = b"v" * (stack.cache.config.region_size // 8)
        i = 0
        while stack.cache.stats.flushes == 0:
            stack.cache.set(f"key-{i}".encode(), value)
            i += 1
            assert i < 10_000, "cache never flushed a region"
        device_layer = expected[-1]
        writes = [
            record
            for record in tracer.records
            if record.layer == device_layer and record.op in ("write", "append")
        ]
        assert writes, f"no device writes traced for {scheme}"
        chains = {tuple(tracer.layer_chain(r.record_id)) for r in writes}
        assert tuple(expected) in chains
        # Attribution query sees the host's media writes under the device.
        assert tracer.bytes_written_by_layer()[device_layer] > 0

    def test_get_chain_on_flash_hit(self):
        clock = SimClock()
        stack = build_scheme("Block-Cache", clock, SMALL_SCALE, 16 * MIB, 8 * MIB)
        cache = stack.cache
        value = b"v" * (cache.config.region_size // 8)
        # Fill past the RAM tier so early keys are only on flash.
        for i in range(200):
            cache.set(f"key-{i}".encode(), value)
        tracer = cache.store.tracer
        tracer.enable()
        assert cache.get(b"key-0") == value
        reads = tracer.find(layer="block", op="read")
        assert reads
        assert tracer.layer_chain(reads[-1].record_id) == [
            "engine",
            "backend",
            "block",
        ]


class TestWafAttribution:
    """bytes_written_by_layer decomposes media writes exactly."""

    def test_ftl_gc_traffic_attributed(self):
        clock = SimClock()
        tracer = IoTracer().enable()
        device = BlockSsd(
            clock,
            BlockSsdConfig(
                geometry=NandGeometry(num_blocks=64),
                ftl=FtlConfig(op_ratio=0.25),
            ),
            tracer=tracer,
        )
        rng = random.Random(3)
        block = device.block_size
        blocks = device.capacity_bytes // block
        for i in range(4 * blocks):
            device.write(rng.randrange(blocks) * block, bytes([i % 251]) * block)
        by_layer = tracer.bytes_written_by_layer()
        assert by_layer["block"] == device.stats.host_write_bytes
        assert by_layer["ftl.gc"] > 0
        assert (
            by_layer["block"] + by_layer["ftl.gc"]
            == device.stats.media_write_bytes
        )


class TestFaultGolden:
    """Fault injection is fully deterministic: the same workload seed and
    the same fault plan reproduce every bench column bit-for-bit —
    including the fault/retry accounting and the sim-clock-derived
    latencies that injected spikes perturb."""

    def test_fault_sweep_rows_reproduce_exactly(self, sweep_rows):
        # The registry's smoke grid: 2500 ops over 2500 keys on 12 zones
        # (cache 8, file 20), Region-Cache and Block-Cache.
        first = sweep_rows("fault")
        second = run_sweep("fault", "smoke")
        assert first == second
        for row in first:
            assert row["faults_injected"] > 0, row["scheme"]
            assert row["recovery_ms"] == 0.0  # no crash in this sweep

    def test_disabled_injector_matches_no_injector(self):
        from repro.sim import FaultInjector, FaultKind, FaultRule

        # A disabled injector must leave the golden numbers untouched:
        # the gate returns before any RNG draw, so the run is
        # bit-identical to one with no injector wired in at all.
        def run(faults):
            clock = SimClock()
            stack = build_scheme(
                "Block-Cache", clock, SMALL_SCALE, 16 * MIB, 8 * MIB, faults=faults
            )
            cache = stack.cache
            rng = random.Random(2)
            for i in range(1500):
                key = f"key{rng.randrange(200):04d}".encode()
                if rng.random() < 0.5:
                    cache.set(key, f"v{i}".encode() * 150)
                else:
                    cache.get(key)
            return clock.now, cache.stats.snapshot()

        disabled = FaultInjector(
            seed=99, rules=(FaultRule(FaultKind.MEDIA_ERROR, probability=0.5),)
        )
        disabled.disable()
        assert run(None) == run(disabled)
        assert disabled.stats.total_injected == 0
