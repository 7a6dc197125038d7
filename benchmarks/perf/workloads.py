"""The six workloads: set-up, timed windows, oracles, simulated counters.

Every workload returns one result dict (see :func:`run_workload`).  Two
kinds of numbers are kept strictly apart:

* **host** — what the simulator costs: ``time.perf_counter`` around set-up
  and the timed windows, scaled to a reference machine speed (see
  :mod:`hostspeed`), and the child's ``ru_maxrss``;
* **sim** — what the modelled hardware did: ``SimClock`` deltas and the
  layers' own counters, read through public attributes only.

A run times at least :data:`SIM_WINDOWS` windows and keeps timing more
until ``--seconds`` of measurement have been spent.  The simulated
statistics always cover exactly the first :data:`SIM_WINDOWS` windows,
so they (and ``sim_digest``) repeat exactly for a seed however many
extra windows a fast machine fits in.  With tracing on, the last of
those windows runs under :class:`layertrace.LayerTrace`; host timings
never use it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import configs
from hostspeed import SpeedSampler
from layertrace import CLIENT, LAYER_NAMES, LayerTrace

from repro.bench.schemes import SchemeStack
from repro.workloads.cachebench import (
    KIND_GET,
    KIND_SET,
    CacheBenchConfig,
    CacheBenchDriver,
)
from repro.workloads.distributions import ExpRangeSampler, ValueSizeSampler

SIM_WINDOWS = 3
MAX_WINDOWS = 48
TRACED_WINDOW = SIM_WINDOWS - 1


class Windows:
    """Times windows until the budget is spent (at least SIM_WINDOWS).

    ``scaled_s`` holds each untraced window's time at the reference
    machine speed, ``raw_s`` its plain wall time.  The traced window is
    kept apart: host metrics never use it.  (Speed samples that land in
    it are charged to whichever span is open, in proportion to time, so
    they leave the layers' shares as they are.)
    """

    def __init__(self, budget_s: float, trace: Optional[LayerTrace]) -> None:
        self.budget_s = budget_s
        self.trace = trace
        self.raw_s: List[float] = []
        self.scaled_s: List[float] = []
        self.traced_ns = 0
        self.traced_scaled_s = 0.0
        self.spent_s = 0.0
        self.count = 0

    def more(self) -> bool:
        if self.count < SIM_WINDOWS:
            return True
        return self.count < MAX_WINDOWS and self.spent_s < self.budget_s

    def run(self, body: Callable[[], None]) -> None:
        traced = self.trace is not None and self.count == TRACED_WINDOW
        tracing = self.trace if traced else contextlib.nullcontext()
        gc.collect()
        with tracing, SpeedSampler() as speed:
            started = time.perf_counter_ns()
            body()
            wall_ns = time.perf_counter_ns() - started
        wall_s = wall_ns / 1e9
        if traced:
            self.traced_ns += wall_ns
            self.traced_scaled_s += speed.at_reference_speed(wall_s)
        else:
            self.raw_s.append(wall_s)
            self.scaled_s.append(speed.at_reference_speed(wall_s))
        self.spent_s += wall_s
        self.count += 1


def percentile(sorted_samples: Sequence[int], pct: float) -> int:
    """Nearest-rank percentile, the repo's ``LatencyRecorder`` method."""
    if not sorted_samples:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


def recorder_samples(recorder) -> List[int]:
    # LatencyRecorder has no public accessor for its samples; its
    # docstring fixes ``_samples`` as the field the repo's own fast
    # paths append to, and pooling recorders needs the raw values.
    return recorder._samples


# --------------------------------------------------------------------------
# Simulated counters of one scheme stack, read from public attributes
# --------------------------------------------------------------------------

class StackProbe:
    """Additive counters of one stack; ``delta()`` is "since creation".

    ``crash_recover`` replaces ``stack.cache`` with a fresh engine whose
    statistics restart at zero, so the probe keeps the engine it first
    saw and adds the replacement's counters to it (exact for one
    replacement between reads, which is what one ``ShardKill`` causes).
    """

    def __init__(self, stack: SchemeStack, hdd=None) -> None:
        self.stack = stack
        self.hdd = hdd
        self._first_cache = stack.cache
        self._base = self._read()

    def _caches(self) -> list:
        current = self.stack.cache
        if current is self._first_cache:
            return [current]
        return [self._first_cache, current]

    def _read(self) -> Dict[str, int]:
        stack = self.stack
        out: Dict[str, int] = {"sim_ns": stack.clock.now}
        for key in (
            "lookups", "hits", "ram_lookups", "ram_hits", "regions_sealed",
            "regions_evicted", "dead_first_evictions",
        ):
            out[key] = 0
        for cache in self._caches():
            stats = cache.stats
            out["lookups"] += stats.lookups.total
            out["hits"] += stats.lookups.hits
            out["ram_lookups"] += stats.ram_lookups.total
            out["ram_hits"] += stats.ram_lookups.hits
            out["regions_sealed"] += stats.flushes
            out["regions_evicted"] += cache.regions.regions_evicted
            out["dead_first_evictions"] += cache.regions.ledger.dead_first_evictions
        out["payload_bytes"] = out["regions_sealed"] * stack.cache.config.region_size
        raw = stack.cache.store.waf_raw()
        out["app_host"], out["app_total"] = raw.app_host, raw.app_total
        out["dev_host"], out["dev_total"] = raw.dev_host, raw.dev_total
        substrate = stack.substrate
        layer = substrate.get("layer")
        if layer is not None:
            out["ztl_host"] = layer.stats.host_region_writes
            out["ztl_total"] = (
                layer.stats.host_region_writes + layer.stats.migrated_region_writes
            )
        fs = substrate.get("fs")
        if fs is not None:
            out["f2fs_host"] = fs.stats.host_write_bytes
            out["f2fs_total"] = fs.stats.data_write_bytes + fs.stats.meta_write_bytes
        device = substrate["device"]
        if getattr(device, "ftl", None) is not None:
            out["ftl_host"] = device.stats.host_write_bytes
            out["ftl_total"] = device.stats.media_write_bytes
        out["device_busy_ns"] = device.pipeline.pool.total_busy_ns
        written = read = resets = finishes = 0
        for dev in (device, substrate.get("meta"), self.hdd):
            if dev is None:
                continue
            written += dev.stats.media_write_bytes
            read += dev.stats.host_read_bytes
            mgmt = getattr(dev, "zone_mgmt", None)
            if mgmt is not None:
                resets += mgmt.resets
                finishes += mgmt.finishes
        out["device_bytes_written"], out["device_bytes_read"] = written, read
        out["zone_resets"], out["zone_finishes"] = resets, finishes
        _, engine = stack.reclaim_engine()
        if engine is not None:
            stats = engine.stats
            out["reclaim_victims"] = stats.victims_reclaimed
            out["reclaim_units_migrated"] = stats.units_migrated
            out["reclaim_units_dropped"] = stats.units_dropped
            out["reclaim_hint_dropped_units"] = stats.hint_dropped_units
            out["reclaim_copied_bytes"] = stats.copied_bytes
        return out

    def delta(self) -> Dict[str, float]:
        now = self._read()
        out: Dict[str, float] = {k: now[k] - self._base[k] for k in now}
        # Media bytes this stack wrote per payload byte, from the
        # waf_raw() deltas: (layers above the device) x (the device).
        app = out["app_total"] / out["app_host"] if out["app_host"] > 0 else 1.0
        dev = out["dev_total"] / out["dev_host"] if out["dev_host"] > 0 else 1.0
        out["media_bytes"] = out["payload_bytes"] * app * dev
        _, engine = self.stack.reclaim_engine()
        # Foreground stall is a distribution, not a counter: cumulative
        # p99 since the stack was built (warm-up included).
        out["reclaim_stall_us_p99"] = engine.stats.stall_us_p99 if engine else 0.0
        return out


def pool_counters(deltas: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Sum additive counters over stacks; the stall p99 pools as a max."""
    out: Dict[str, float] = {}
    for delta in deltas:
        for key, value in delta.items():
            if key == "reclaim_stall_us_p99":
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


# --------------------------------------------------------------------------
# Closed loops: CacheBench mix against one stack at a time
# --------------------------------------------------------------------------

class ClosedClient:
    """The benchmark's own closed-loop client and shadow-dict oracle.

    A get hit must return exactly the last bytes set for the key; a miss
    is always legal (the cache may evict), stale or wrong bytes is a
    wrong op.  Simulated get latency is read off the stack's clock
    around each ``get`` (the set-on-miss fill is not part of it).
    """

    def __init__(self, stack: SchemeStack, driver: CacheBenchDriver) -> None:
        config = driver.config
        self.cache = stack.cache
        self.clock = stack.clock
        self.driver = driver
        self.sizes = ValueSizeSampler(
            config.value_sizes, config.value_weights, config.seed
        )
        self.set_on_miss = config.set_on_miss
        self.shadow: Dict[bytes, bytes] = {}
        self.get_latency_ns: List[int] = []
        self.gets = self.hits = self.wrong = self.ops = 0

    def populate(self) -> None:
        """CacheBench population phase: one set per key."""
        driver, sample = self.driver, self.sizes.sample
        for key_index in range(driver.config.num_keys):
            key = driver.key_bytes(key_index)
            value = driver.value_bytes(key_index, sample())
            self.cache.set(key, value)
            self.shadow[key] = value

    def apply(
        self, kinds: List[int], key_indices: List[int], keys: List[bytes]
    ) -> None:
        cache, clock, shadow = self.cache, self.clock, self.shadow
        value_bytes, sample = self.driver.value_bytes, self.sizes.sample
        record = self.get_latency_ns.append
        set_on_miss = self.set_on_miss
        gets = hits = wrong = 0
        for kind, key_index, key in zip(kinds, key_indices, keys):
            if kind == KIND_GET:
                gets += 1
                before = clock.now
                value = cache.get(key)
                record(clock.now - before)
                if value is None:
                    if set_on_miss:
                        value = value_bytes(key_index, sample())
                        cache.set(key, value)
                        shadow[key] = value
                else:
                    hits += 1
                    if shadow.get(key) != value:
                        wrong += 1
            elif kind == KIND_SET:
                value = value_bytes(key_index, sample())
                cache.set(key, value)
                shadow[key] = value
            else:
                cache.delete(key)
                shadow.pop(key, None)
        self.gets += gets
        self.hits += hits
        self.wrong += wrong
        self.ops += len(kinds)


def corrupt_gets(stack: SchemeStack) -> None:
    """Test hook: make every get hit of this stack return wrong bytes,
    so test_perf.py can show the oracle notices."""
    real_get = stack.cache.get

    def corrupted(key: bytes):
        value = real_get(key)
        return None if value is None else value[:-1] + b"\x00"

    stack.cache.get = corrupted


def _closed_scheme(
    scheme: str,
    config: CacheBenchConfig,
    sizes: Dict[str, int],
    populate: bool,
    budget_s: float,
    trace: Optional[LayerTrace],
    corrupt: bool,
) -> Dict[str, object]:
    with SpeedSampler() as speed:
        started = time.perf_counter()
        stack = configs.closed_stack(scheme, sizes)
        if corrupt:
            corrupt_gets(stack)
        driver = CacheBenchDriver(config)
        client = ClosedClient(stack, driver)
        if populate:
            client.populate()
        kinds, key_indices = driver.next_ops(sizes["warmup_ops"])
        client.apply(kinds, key_indices, [driver.key_bytes(k) for k in key_indices])
        setup_wall_s = time.perf_counter() - started
    setup_s = speed.at_reference_speed(setup_wall_s)

    probe = StackProbe(stack)
    client.get_latency_ns = []
    client.gets = client.hits = client.ops = 0
    windows = Windows(budget_s, trace)
    sim: Dict[str, float] = {}
    latency: List[int] = []
    while windows.more():
        # Inputs are generated before the window: the timed part is the
        # client loop and everything below it, not the op stream.
        kinds, key_indices = driver.next_ops(sizes["window_ops"])
        keys = [driver.key_bytes(k) for k in key_indices]
        windows.run(lambda: client.apply(kinds, key_indices, keys))
        if windows.count == SIM_WINDOWS:
            sim = probe.delta()
            sim.update(ops=client.ops, gets=client.gets, get_hits=client.hits)
            latency, client.get_latency_ns = client.get_latency_ns, []
    return {
        "scheme": scheme,
        "setup_s": setup_s,
        "window_ops": sizes["window_ops"],
        "windows": windows,
        "sim": sim,
        "latency_ns": latency,
        "attempted": client.ops,
        "wrong": client.wrong,
    }


def run_closed(
    name: str,
    sizes: Dict[str, int],
    seed: int,
    seconds: float,
    trace: Optional[LayerTrace],
    corrupt: bool = False,
) -> Dict[str, object]:
    if name == "closed_mix":
        config, populate = configs.closed_mix_config(sizes, seed), True
    else:
        config, populate = configs.closed_fill_config(sizes, seed), False
    schemes = []
    for scheme in configs.ALL_SCHEMES:
        # One stack alive at a time, so peak RSS is one stack, not five.
        schemes.append(
            _closed_scheme(
                scheme, config, sizes, populate,
                seconds / len(configs.ALL_SCHEMES), trace, corrupt,
            )
        )
        gc.collect()
    return _pooled_result(schemes, caches="warm (populate + warm-up before timing)")


# --------------------------------------------------------------------------
# db_bench readrandom on the LSM with each scheme as secondary cache
# --------------------------------------------------------------------------

class LsmClient:
    """db_bench ``readrandom`` client with a byte-equality oracle: every
    key was inserted by ``fillrandom``, so a miss is as wrong as wrong
    bytes (``found_ratio`` must be 1.0)."""

    def __init__(self, driver, seed: int) -> None:
        self.driver = driver
        self.db = driver.db
        self.clock = driver.clock
        self.keys = ExpRangeSampler(
            driver.config.num_keys, configs.LSM_EXP_RANGE, seed
        )
        self.get_latency_ns: List[int] = []
        self.ops = self.wrong = 0

    def draw(self, count: int):
        """The next ``count`` keys of the stream and the bytes they hold."""
        driver = self.driver
        indices = [self.keys.sample() for _ in range(count)]
        return (
            [driver.key_bytes(i) for i in indices],
            [driver.value_bytes(i) for i in indices],
        )

    def read(self, keys: List[bytes], expected: List[bytes]) -> None:
        get, clock, record = self.db.get, self.clock, self.get_latency_ns.append
        wrong = 0
        for key, want in zip(keys, expected):
            before = clock.now
            value = get(key)
            record(clock.now - before)
            if value != want:
                wrong += 1
        self.ops += len(keys)
        self.wrong += wrong


def _lsm_scheme(
    scheme: str,
    sizes: Dict[str, int],
    seed: int,
    budget_s: float,
    trace: Optional[LayerTrace],
) -> Dict[str, object]:
    with SpeedSampler() as speed:
        started = time.perf_counter()
        driver = configs.lsm_driver(scheme, sizes["num_keys"], seed)
        driver.setup()
        client = LsmClient(driver, seed)
        client.read(*client.draw(sizes["warmup_reads"]))
        setup_wall_s = time.perf_counter() - started
    setup_s = speed.at_reference_speed(setup_wall_s)

    db = driver.db
    probe = StackProbe(driver.stack, hdd=db.device)
    block_cache, hdd_stats = db.block_cache, db.device.stats

    def lsm_counters() -> Dict[str, int]:
        return {
            "block_lookups": block_cache.dram_lookups.total,
            "block_hits": block_cache.dram_lookups.hits,
            "secondary_lookups": block_cache.secondary_lookups.total,
            "secondary_hits": block_cache.secondary_lookups.hits,
            "hdd_reads": hdd_stats.read_latency.count,
        }

    base = lsm_counters()
    client.get_latency_ns = []
    client.ops = 0
    windows = Windows(budget_s, trace)
    sim: Dict[str, float] = {}
    latency: List[int] = []
    while windows.more():
        keys, expected = client.draw(sizes["window_reads"])
        windows.run(lambda: client.read(keys, expected))
        if windows.count == SIM_WINDOWS:
            sim = probe.delta()
            now = lsm_counters()
            sim.update({k: now[k] - base[k] for k in now})
            # The secondary cache is the scheme under test: its lookups
            # are this workload's "gets" for the hit ratio.
            sim.update(
                ops=client.ops,
                gets=sim["secondary_lookups"],
                get_hits=sim["secondary_hits"],
            )
            latency, client.get_latency_ns = client.get_latency_ns, []
    return {
        "scheme": scheme,
        "setup_s": setup_s,
        "window_ops": sizes["window_reads"],
        "windows": windows,
        "sim": sim,
        "latency_ns": latency,
        "attempted": client.ops,
        "wrong": client.wrong,
    }


def run_lsm(
    sizes: Dict[str, int], seed: int, seconds: float, trace: Optional[LayerTrace]
) -> Dict[str, object]:
    schemes = []
    for scheme in configs.LSM_SCHEMES:
        schemes.append(
            _lsm_scheme(scheme, sizes, seed, seconds / len(configs.LSM_SCHEMES), trace)
        )
        gc.collect()
    return _pooled_result(
        schemes, caches="warm (fillrandom + warm-up reads before timing)"
    )


def host_timing(
    all_windows: Sequence[Windows], ops_per_window: float
) -> Dict[str, float]:
    """Host speed of a workload whose schemes were timed one after the
    other: the time of "one window of every scheme" is the sum of the
    schemes' median window times."""
    scaled = sum(statistics.median(w.scaled_s) for w in all_windows)
    return {
        "sim_ops_per_host_s": ops_per_window / scaled,
        "window_min": ops_per_window / sum(max(w.scaled_s) for w in all_windows),
        "window_max": ops_per_window / sum(min(w.scaled_s) for w in all_windows),
        "raw_ops_per_host_s": ops_per_window
        / sum(statistics.median(w.raw_s) for w in all_windows),
        "windows": min(len(w.scaled_s) for w in all_windows),
        "traced_ns": sum(w.traced_ns for w in all_windows),
        "trace_overhead_ratio": sum(w.traced_scaled_s for w in all_windows) / scaled,
    }


def _pooled_result(
    schemes: List[Dict[str, object]], caches: str
) -> Dict[str, object]:
    """Pool per-scheme records into one workload result."""
    counters = pool_counters([s["sim"] for s in schemes])
    per_scheme = {}
    for s in schemes:
        sim = s["sim"]
        per_scheme[s["scheme"]] = {
            "sim_ops_per_host_s": s["window_ops"]
            / statistics.median(s["windows"].scaled_s),
            "sim_hit_ratio": ratio(sim["get_hits"], sim["gets"]),
            "sim_waf": ratio(sim["media_bytes"], sim["payload_bytes"], empty=1.0),
            "sim_p99_us": percentile(sorted(s["latency_ns"]), 99) / 1000,
        }
    return {
        "loop": "closed, 1 client",
        "caches": caches,
        "attempted": sum(s["attempted"] for s in schemes),
        "wrong": sum(s["wrong"] for s in schemes),
        "sim_attempted": counters["ops"],
        "sim_refused": 0,
        "checks": {"oracle": all(s["wrong"] == 0 for s in schemes)},
        "setup_s": sum(s["setup_s"] for s in schemes),
        "host": host_timing(
            [s["windows"] for s in schemes], sum(s["window_ops"] for s in schemes)
        ),
        "counters": counters,
        "latency_ns": sorted(x for s in schemes for x in s["latency_ns"]),
        "sim_kops_per_sim_s": ratio(counters["ops"], counters["sim_ns"]) * 1e6,
        "schemes": per_scheme,
        "rows": {s["scheme"]: s["sim"] for s in schemes},
    }


# --------------------------------------------------------------------------
# Serving: open-loop tenants against a shard fleet
# --------------------------------------------------------------------------

class SpanCounter:
    """Counting subscriber on every shard's ``IoTracer``.

    Streams records without capturing them.  It is what arms the repo's
    own tracing on ``serve_failover`` and ``serve_hints`` (spans are
    emitted, as in the sweeps those workloads stand for) and what the
    reconciliation checks compare the counters against.
    """

    def __init__(self) -> None:
        self.drop_spans = 0
        self.replicate_bytes = 0
        self.handoff_bytes = 0

    def __call__(self, record) -> None:
        if record.layer == "serve":
            if record.op == "replicate":
                self.replicate_bytes += record.length
            elif record.op == "handoff":
                self.handoff_bytes += record.length
        elif record.op == "drop" and record.layer.startswith("reclaim."):
            self.drop_spans += 1

    def attach(self, server) -> None:
        for shard in server.cluster.shards:
            device = shard.stack.substrate["device"]
            _, engine = shard.stack.reclaim_engine()
            if engine is not None:
                # The FTL's engine is born on the shared NULL_TRACER;
                # its drop spans must join the device's stream.
                engine.tracer = device.tracer
            device.tracer.subscribe(self)


def _serving_window(server, report, probes, spans) -> Dict[str, object]:
    tenants = server.tenants
    counters = pool_counters([p.delta() for p in probes])
    failed = sum(t.slo.failed_unavailable for t in tenants)
    counters.update(
        offered=report.offered,
        completed=report.completed,
        shed=report.shed,
        failed_unavailable=failed,
        gets=sum(t.slo.gets for t in tenants),
        get_hits=sum(t.slo.get_hits for t in tenants),
        drop_spans=spans.drop_spans,
        replicate_span_bytes=spans.replicate_bytes,
        handoff_span_bytes=spans.handoff_bytes,
    )
    fleet = report.fleet_row or {}
    checks = {
        "accounting": report.offered == report.completed + report.shed + failed,
        "drops_equal_spans": (
            counters.get("reclaim_hint_dropped_units", 0) == spans.drop_spans
        ),
        "repl_bytes_equal_spans": fleet.get("repl_bytes", 0) == spans.replicate_bytes,
        "handoff_bytes_equal_spans": (
            fleet.get("handoff_bytes", 0) == spans.handoff_bytes
        ),
    }
    latency = sorted(
        x for t in tenants for x in recorder_samples(t.slo.latency)
    )
    return {
        "counters": counters,
        "checks": checks,
        "latency_ns": latency,
        "sim_kops_per_sim_s": sum(r["goodput_kops"] for r in report.tenant_rows),
        "serve": {
            "util_max": max(r["util"] for r in report.shard_rows),
            "repl_writes": fleet.get("repl_writes", 0),
            "handoff_writes": fleet.get("handoff_writes", 0),
            "fallback_reads": fleet.get("fallback_reads", 0),
        },
        "rows": {
            "sim_seconds": report.sim_seconds,
            "tenants": report.tenant_rows,
            "shards": report.shard_rows,
            "fleet": report.fleet_row,
            "inval": report.inval_row,
        },
    }


def run_serving(
    name: str,
    sizes: Dict[str, int],
    seed: int,
    seconds: float,
    trace: Optional[LayerTrace],
) -> Dict[str, object]:
    """Time ``Server.run()`` on freshly built fleets, one per window.

    Window ``i`` draws its tenants' streams from sub-seed ``i %
    SIM_WINDOWS`` of ``--seed``: the simulated statistics pool three
    independent draws of the same traffic (a single 2-second draw moves
    tail latency and WAF by 10-20% from seed to seed), and every later
    window must repeat the simulation of the window three before it.
    """
    build = configs.SERVE_BUILDERS[name]
    windows = Windows(seconds, trace)
    setups: List[float] = []
    parts: List[Dict[str, object]] = []
    repeats_identical = True
    attempted = 0
    while windows.more():
        sub_seed = seed * SIM_WINDOWS + windows.count % SIM_WINDOWS
        with SpeedSampler() as speed:
            started = time.perf_counter()
            server = build(sizes["requests_per_tenant"], sub_seed)
            probes = [StackProbe(shard.stack) for shard in server.cluster.shards]
            spans = SpanCounter()
            if name != "serve_steady":
                spans.attach(server)
            setup_wall_s = time.perf_counter() - started
        setups.append(speed.at_reference_speed(setup_wall_s))
        reports = []
        windows.run(lambda: reports.append(server.run()))
        part = _serving_window(server, reports[0], probes, spans)
        part["digest"] = digest_of(part)
        attempted += reports[0].offered
        if len(parts) < SIM_WINDOWS:
            parts.append(part)
        elif part["digest"] != parts[(windows.count - 1) % SIM_WINDOWS]["digest"]:
            repeats_identical = False
        # Free the fleet before building the next one.
        del server, probes, reports, part
    counters = pool_counters([part["counters"] for part in parts])
    checks = {
        key: all(part["checks"][key] for part in parts) for key in parts[0]["checks"]
    }
    checks["repeats_identical"] = repeats_identical
    return {
        "loop": "open, 2 tenants",
        "caches": "empty at the start of every window (fresh fleet per window)",
        "attempted": attempted,
        "wrong": 0,
        "sim_attempted": counters["offered"],
        "sim_refused": int(counters["shed"] + counters["failed_unavailable"]),
        "checks": checks,
        # Each window needs one fleet; a run needs SIM_WINDOWS of them.
        "setup_s": statistics.median(setups) * SIM_WINDOWS,
        "host": host_timing([windows], counters["completed"] / SIM_WINDOWS),
        "counters": counters,
        "latency_ns": sorted(x for part in parts for x in part["latency_ns"]),
        "sim_kops_per_sim_s": statistics.fmean(
            part["sim_kops_per_sim_s"] for part in parts
        ),
        "serve": {
            "util_max": max(part["serve"]["util_max"] for part in parts),
            **{
                key: sum(part["serve"][key] for part in parts)
                for key in ("repl_writes", "handoff_writes", "fallback_reads")
            },
        },
        "schemes": {},
        "rows": [part["rows"] for part in parts],
    }


# --------------------------------------------------------------------------
# Result assembly
# --------------------------------------------------------------------------

def digest_of(part: Dict[str, object]) -> str:
    """sha256 of the canonical JSON of every simulated counter and row."""
    latency = part["latency_ns"]
    doc = {
        "counters": part["counters"],
        "rows": part["rows"],
        "latency": [len(latency), sum(latency)]
        + [percentile(latency, p) for p in (50, 99, 99.9)],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tail_mean(sorted_samples: Sequence[int], share: float = 0.01) -> float:
    """Mean of the slowest ``share`` of the samples."""
    count = max(1, math.ceil(share * len(sorted_samples)))
    return statistics.fmean(sorted_samples[-count:]) if sorted_samples else 0.0


def end_to_end(result: Dict[str, object]) -> Dict[str, float]:
    counters = result["counters"]
    latency = result["latency_ns"]
    return {
        "sim_ops_per_host_s": result["host"]["sim_ops_per_host_s"],
        "setup_s": result["setup_s"],
        "sim_hit_ratio": ratio(counters["get_hits"], counters["gets"]),
        "sim_waf": ratio(counters["media_bytes"], counters["payload_bytes"], empty=1.0),
        "sim_kops_per_sim_s": result["sim_kops_per_sim_s"],
        "sim_tail_us": tail_mean(latency) / 1000,
    }


def latency_summary_us(result: Dict[str, object]) -> Dict[str, float]:
    """Mean and order statistics of the pooled latency samples.  Printed
    for the reader, not part of the contract: on the closed loops the
    percentiles are single device service times that read the same for
    every seed, and on ``serve_steady`` a handful of flush stalls move
    the mean by 20% from seed to seed."""
    latency = result["latency_ns"]
    out = {"sim_mean_us": statistics.fmean(latency) / 1000}
    for name, pct in (("sim_p50_us", 50), ("sim_p99_us", 99), ("sim_p999_us", 99.9)):
        out[name] = percentile(latency, pct) / 1000
    return out


def per_layer(result: Dict[str, object], trace: LayerTrace) -> Dict[str, float]:
    counters = result["counters"]
    out: Dict[str, float] = {}
    summary = trace.summary(result["host"]["traced_ns"])
    for layer in LAYER_NAMES + (CLIENT,):
        for key, value in summary[layer].items():
            out[f"{layer}.{key}"] = value
    serve = result.get("serve", {})
    offered = counters.get("offered", 0)
    out.update(
        {
            "serve.offered": offered,
            "serve.completed": counters.get("completed", 0),
            "serve.shed_share": ratio(counters.get("shed", 0), offered),
            "serve.util_max": serve.get("util_max", 0.0),
            "serve.repl_writes": serve.get("repl_writes", 0),
            "serve.handoff_writes": serve.get("handoff_writes", 0),
            "serve.fallback_reads": serve.get("fallback_reads", 0),
            "engine.hit_ratio": ratio(counters["hits"], counters["lookups"]),
            "engine.ram_hit_ratio": ratio(
                counters["ram_hits"], counters["ram_lookups"]
            ),
            "engine.regions_sealed": counters["regions_sealed"],
            "engine.regions_evicted": counters["regions_evicted"],
            "engine.dead_first_evictions": counters["dead_first_evictions"],
            # Counted at the wrapped boundary, so over the traced window.
            "backend.bytes_written": trace.bytes_by_function("backend", "write_region"),
            "backend.bytes_read": trace.bytes_by_function("backend", "read"),
            "ztl.waf": ratio(
                counters.get("ztl_total", 0), counters.get("ztl_host", 0), empty=1.0
            ),
            "f2fs.waf": ratio(
                counters.get("f2fs_total", 0), counters.get("f2fs_host", 0), empty=1.0
            ),
            "ftl.waf": ratio(
                counters.get("ftl_total", 0), counters.get("ftl_host", 0), empty=1.0
            ),
            "device.bytes_written": counters["device_bytes_written"],
            "device.bytes_read": counters["device_bytes_read"],
            "device.zone_resets": counters["zone_resets"],
            "device.zone_finishes": counters["zone_finishes"],
            "device.sim_busy_share": ratio(
                counters["device_busy_ns"], counters["sim_ns"]
            ),
            "reclaim.victims": counters.get("reclaim_victims", 0),
            "reclaim.units_migrated": counters.get("reclaim_units_migrated", 0),
            "reclaim.units_dropped": counters.get("reclaim_units_dropped", 0),
            "reclaim.hint_dropped_units": counters.get(
                "reclaim_hint_dropped_units", 0
            ),
            "reclaim.copied_bytes": counters.get("reclaim_copied_bytes", 0),
            "reclaim.dropped_share": ratio(
                counters.get("reclaim_units_dropped", 0),
                counters.get("reclaim_units_dropped", 0)
                + counters.get("reclaim_units_migrated", 0),
            ),
            "reclaim.sim_stall_us_p99": counters.get("reclaim_stall_us_p99", 0.0),
            "lsm.block_cache_hit_ratio": ratio(
                counters.get("block_hits", 0), counters.get("block_lookups", 0)
            ),
            "lsm.secondary_hit_ratio": ratio(
                counters.get("secondary_hits", 0),
                counters.get("secondary_lookups", 0),
            ),
            "lsm.hdd_reads": counters.get("hdd_reads", 0),
        }
    )
    for scheme in configs.ALL_SCHEMES:
        values = result["schemes"].get(scheme, {})
        for key in ("sim_ops_per_host_s", "sim_hit_ratio", "sim_waf", "sim_p99_us"):
            out[f"scheme.{scheme}.{key}"] = values.get(key, 0.0)
    out["trace.spans"] = trace.spans
    out["trace.overhead_ratio"] = result["host"]["trace_overhead_ratio"]
    return out


def run_workload(
    name: str,
    scale: str,
    seed: int,
    seconds: float,
    trace: Optional[LayerTrace] = None,
    corrupt: bool = False,
) -> Dict[str, object]:
    """Run one workload; returns the raw result (see module docstring)."""
    sizes = configs.SIZES[scale][name]
    if name in ("closed_mix", "closed_fill"):
        result = run_closed(name, sizes, seed, seconds, trace, corrupt)
    elif name == "lsm_secondary":
        result = run_lsm(sizes, seed, seconds, trace)
    else:
        result = run_serving(name, sizes, seed, seconds, trace)
    result["sizes"] = sizes
    result["sim_digest"] = digest_of(result)
    return result
