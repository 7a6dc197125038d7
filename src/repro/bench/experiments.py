"""Every experiment of the evaluation, registered once.

The paper's figures and tables (§4) each build the relevant scheme
stacks on matched hardware, drive the paper's workload, and return
structured rows; the serving sweeps beyond the paper are that same
comparison with one more axis, so each is only a docstring, an axes →
cell function and a tuple of column names over the shared fleet cell
(:mod:`repro.bench.fleet`).  :data:`EXPERIMENTS` is the one place the
list of experiments is written — the CLI, the benchmarks, the tests and
CI all go through :func:`run_sweep`.  Absolute numbers differ from the
paper's testbed (this is a simulator — see DESIGN.md); the *shape* of
each result is the reproduction target and is asserted by
``benchmarks/bench_*.py``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    MutableMapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.bench.fleet import (
    SERVING_SCALE,
    FleetCell,
    Row,
    fleet_row,
    gc_columns,
    run_fleet_cell,
    zone_mgmt_columns,
)
from repro.bench.schemes import (
    ALL_SCHEME_NAMES,
    NAVY,
    SCHEME_NAMES,
    SchemeScale,
    SchemeStack,
    build_file_cache,
    build_region_cache,
    build_scheme,
    build_zone_cache,
    provision,
)
from repro.cache.lifecycle import LifecycleConfig
from repro.errors import ConfigError
from repro.f2fs.gc import CleanerConfig
from repro.flash.ftl import FtlConfig
from repro.flash.zone import ZoneCostConfig
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector, FaultKind, FaultRule, ZoneFault
from repro.units import MIB, SEC
from repro.workloads.cachebench import (
    MEAN_ENTRY_BYTES,
    CacheBenchConfig,
    CacheBenchDriver,
)
from repro.workloads.dbbench import DbBenchConfig, DbBenchDriver
from repro.ztl.gc import GcConfig

Rows = List[Row]
Cells = Iterator[Tuple[Row, FleetCell]]


# --------------------------------------------------------------------------
# The registry — the only place the list of experiments is written
# --------------------------------------------------------------------------

class Plot(NamedTuple):
    """How ``--plot`` charts an experiment: bars of ``value`` labelled by
    the ``labels`` columns, or — ``line_of`` = (column, value), Figure 3
    — a line through ``value`` over the rows whose column has that value."""

    value: str
    title: str
    labels: Tuple[str, ...] = ("scheme",)
    line_of: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class Experiment:
    """One registry entry.  ``run`` takes the overrides named in
    ``params`` (an axis or a cell field — nothing else is accepted);
    ``quick`` and ``smoke`` are the overrides behind ``--quick`` and
    ``--smoke``.  A fleet sweep also exposes its un-run ``grid``; with
    ``source`` set the experiment is a projection and ``run`` maps that
    experiment's rows to its own."""

    name: str
    title: str
    run: Callable[..., Rows]
    params: FrozenSet[str]
    plot: Plot
    quick: Mapping[str, object]
    smoke: Mapping[str, object]
    grid: Optional[Callable[..., Cells]] = None
    source: Optional[str] = None


EXPERIMENTS: Dict[str, Experiment] = {}


def _keywords(function: Callable) -> FrozenSet[str]:
    """Names of the keyword parameters (those with defaults) of ``function``."""
    return frozenset(
        name
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    )


def experiment(name, title, plot, quick=(), smoke=(), source=None):
    """Register the decorated function as experiment ``name``.  Its
    keyword parameters are the overrides it accepts; a projection
    (``source``) takes its source's rows and forwards its overrides."""

    def register(run: Callable[..., Rows]) -> Callable[..., Rows]:
        params = EXPERIMENTS[source].params if source else _keywords(run)
        EXPERIMENTS[name] = Experiment(
            name, title, run, params, plot, dict(quick), dict(smoke), source=source
        )
        return run

    return register


# What a fleet sweep accepts besides its own axes: the two fleet-shape
# axes every sweep has, and any FleetCell field but the per-shard tuple
# those two produce.
_FLEET_PARAMS = frozenset(
    {"schemes", "num_shards"} | {f.name for f in fields(FleetCell)} - {"shards"}
)


def fleet_sweep(
    name, title, plot, columns, schemes, num_shards, base=(), quick=(), smoke=()
):
    """Register the decorated axes → cell function as fleet sweep ``name``.

    For every scheme in ``schemes``, a homogeneous ``num_shards`` fleet
    built from the ``base`` cell fields is handed to the function, which
    yields ``(labels, cell)`` per grid point; each cell is run once and
    ``columns`` selects and orders what the table prints out of the
    labels and :func:`~repro.bench.fleet.fleet_row`.
    """

    def register(cells: Callable[..., Cells]) -> Callable[..., Cells]:
        axis_names = _keywords(cells)

        def grid(schemes=schemes, num_shards=num_shards, **overrides) -> Cells:
            axes = {k: overrides.pop(k) for k in axis_names if k in overrides}
            cell_fields = {**dict(base), **overrides}
            for scheme in schemes:
                fleet = FleetCell(shards=(scheme,) * num_shards, **cell_fields)
                for labels, cell in cells(fleet, **axes):
                    yield {"scheme": scheme, **labels}, cell

        def run(**overrides) -> Rows:
            rows: Rows = []
            for labels, cell in grid(**overrides):
                row = {**fleet_row(run_fleet_cell(cell)), **labels}
                # `if c in row`: the traced columns exist only on traced cells.
                rows.append({c: row[c] for c in columns if c in row})
            return rows

        EXPERIMENTS[name] = Experiment(
            name, title, run, axis_names | _FLEET_PARAMS, plot, dict(quick),
            dict(smoke), grid=grid,
        )
        return cells

    return register


SIZES = ("full", "quick", "smoke")


def _sized(name: str, size: str, overrides: Mapping[str, object]):
    """The registry entry for ``name`` and the keyword arguments ``size``
    plus ``overrides`` resolve to — or the :class:`ConfigError` naming
    what would have been accepted."""
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {tuple(EXPERIMENTS)}"
        )
    if size not in SIZES:
        raise ConfigError(f"unknown size {size!r}; expected one of {SIZES}")
    exp = EXPERIMENTS[name]
    unknown = sorted(set(overrides) - exp.params)
    if unknown:
        raise ConfigError(
            f"{name} takes no override {unknown}; it accepts {sorted(exp.params)}"
        )
    sized = {"full": {}, "quick": exp.quick, "smoke": exp.smoke}[size]
    return exp, {**sized, **overrides}


def run_sweep(
    name: str,
    size: str = "full",
    memo: Optional[MutableMapping[Tuple[str, str], Rows]] = None,
    **overrides,
) -> Rows:
    """Run experiment ``name`` and return its rows — the one entry point.

    ``size`` picks the registry's grid (``"full"``, ``"quick"`` or
    ``"smoke"``); ``overrides`` replace individual axes or cell fields
    on top of it, and anything that is neither raises
    :class:`~repro.errors.ConfigError` naming what is accepted.  ``memo``
    (a dict the caller owns) keeps the rows of override-free runs, so a
    projection reuses its source's run instead of repeating it.
    """
    exp, kwargs = _sized(name, size, overrides)
    if exp.source is not None:
        return exp.run(run_sweep(exp.source, size, memo, **overrides))
    key = (name, size)
    if memo is not None and not overrides and key in memo:
        return memo[key]
    rows = exp.run(**kwargs)
    if memo is not None and not overrides:
        memo[key] = rows
    return rows


def sweep_cells(name: str, size: str = "full", **overrides) -> List[Tuple[Row, FleetCell]]:
    """The ``(labels, cell)`` grid fleet sweep ``name`` would run, un-run:
    hand a cell to :func:`~repro.bench.fleet.build_fleet` to get the very
    fleet the sweep serves, as an un-run ``Server``."""
    exp, kwargs = _sized(name, size, overrides)
    if exp.grid is None:
        raise ConfigError(f"{name} is not a fleet sweep; it has no cells")
    return list(exp.grid(**kwargs))


# --------------------------------------------------------------------------
# Closed-loop rows — the paper's own figures and tables
# --------------------------------------------------------------------------

def _mix_row(driver: CacheBenchDriver, stack: SchemeStack) -> Row:
    """Populate, run the driver's mix, and report one closed-loop row."""
    driver.populate(stack.cache)
    result = driver.run(stack.cache)
    row = {
        "scheme": stack.name,
        "throughput_mops_per_min": result.ops_per_minute_m,
        "hit_ratio": result.hit_ratio,
        "waf_app": result.waf_app,
        "waf_device": result.waf_device,
        "waf_total": result.waf_total,
        "get_p99_us": result.get_p99_ns / 1000,
        "set_p99_us": result.set_p99_ns / 1000,
        "cache_mib": stack.cache_bytes / MIB,
    }
    row.update(_device_columns(stack))
    row.update(_fault_columns(stack))
    row.update(gc_columns(stack))
    return row


def _fault_columns(stack: SchemeStack) -> Row:
    """Fault-injection / recovery columns (EXPERIMENTS.md).

    Always present so rows stay rectangular: with no injector armed they
    report zeros, and the pre-existing golden columns are untouched.
    """
    faults = stack.substrate.get("faults")
    stats = stack.cache.stats
    return {
        "faults_injected": faults.stats.total_injected if faults is not None else 0,
        "retries": stats.retries,
        "quarantined_regions": stats.quarantined_regions,
        "recovery_ms": stats.recovery_ns / 1e6,
    }


def _device_columns(stack: SchemeStack) -> Row:
    """Per-layer device latency / pool-parallelism columns (EXPERIMENTS.md).

    Read straight off the scheme's primary device pipeline: device-level
    P99s separate queueing seen at the cache API from queueing inside the
    device, and the pool counters show how busy/contended the media was.
    """
    device = stack.substrate.get("device")
    if device is None:
        return {}
    stats = device.stats
    pool = device.pipeline.pool
    cols = {
        "dev_read_p99_us": stats.read_latency.p99() / 1000,
        "dev_write_p99_us": stats.write_latency.p99() / 1000,
        "dev_wait_ms": pool.total_wait_ns / 1e6,
        "dev_busy_ms": pool.total_busy_ns / 1e6,
        "dev_util": pool.utilization(stack.clock.now),
        "io_channels": pool.config.channels,
        "io_queue_depth": pool.config.queue_depth,
    }
    cols.update(zone_mgmt_columns([device]))
    return cols


# --------------------------------------------------------------------------
# Figure 2 — overall throughput + hit ratio of the four schemes
# --------------------------------------------------------------------------

def _fig2_stacks(
    scale: SchemeScale,
    zones: int,
    cache_zones: int,
    file_zones: int,
    num_keys: Optional[int],
    num_ops: int,
    schemes: tuple = SCHEME_NAMES,
    make_faults: Callable[[], Optional[FaultInjector]] = lambda: None,
) -> Iterator[Tuple[Row, SchemeStack]]:
    """Figure 2's look-aside mix on each scheme's §4.1 provisioning
    (:func:`~repro.bench.schemes.provision`), one ``(row, stack)`` per
    scheme.  Shared by the fault sweep so both experiments drive
    identical stacks with identical streams."""
    if num_keys is None:
        # Working set just above the smaller caches so hit ratio tracks
        # capacity (the paper's 94–95% regime).
        media = zones * scale.zone_size
        num_keys = int(1.05 * media / MEAN_ENTRY_BYTES)
    workload = CacheBenchConfig(
        num_ops=num_ops,
        num_keys=num_keys,
        zipf_theta=1.0,
        warmup_ops=int(1.2 * num_keys),
        set_on_miss=True,  # look-aside fill: a miss fetches and re-inserts
        seed=7,
    )
    for name in schemes:
        stack = build_scheme(
            name,
            SimClock(),
            scale,
            faults=make_faults(),
            **provision(name, scale, zones, cache_zones, file_zones),
        )
        yield _mix_row(CacheBenchDriver(workload), stack), stack


@experiment(
    "fig2",
    "Figure 2: four schemes — throughput and hit ratio",
    Plot("throughput_mops_per_min", "throughput (Mops/min)"),
    quick=dict(num_ops=20_000),
    # The 12-zone grid the fig2 goldens pin.
    smoke=dict(zones=12, cache_zones=9, file_zones=18, num_ops=4_000),
)
def _fig2_overall(
    scale: SchemeScale = SchemeScale(),
    zones: int = 25,
    cache_zones: int = 20,
    file_zones: int = 38,
    num_keys: Optional[int] = None,
    num_ops: int = 60_000,
) -> Rows:
    """Figure 2: 25 zones; Zone-Cache caches all of them (no OP), the
    other schemes cache 20 zones' worth (≥20% OP); File-Cache's F2FS
    gets 38 zones, exactly as §4.1 provisions it."""
    stacks = _fig2_stacks(scale, zones, cache_zones, file_zones, num_keys, num_ops)
    return [row for row, _ in stacks]


# --------------------------------------------------------------------------
# Figure 3 — region in-memory buffer fill time, large vs small regions
# --------------------------------------------------------------------------

@experiment(
    "fig3",
    "Figure 3: region buffer fill times (large vs small regions)",
    Plot(
        "fill_time_us",
        "large-region fill time (us) per sequence",
        line_of=("series", "large_region"),
    ),
    quick=dict(num_sets=40_000),
    smoke=dict(zones=12, num_sets=12_000),
)
def _fig3_insertion_time(
    scale: SchemeScale = SchemeScale(),
    zones: int = 25,
    num_sets: Optional[int] = None,
) -> Rows:
    """Figure 3: insertion time to fill each successive region buffer.

    (a) large regions (region == zone, Zone-Cache) show a jump when
    region eviction begins; (b) small regions (Region-Cache) stay flat.
    One row per sealed region, tagged with its ``series``.
    """
    media = zones * scale.zone_size
    rows: Rows = []
    for label, builder in (
        ("large_region", lambda clk: build_zone_cache(clk, scale, media)),
        (
            "small_region",
            lambda clk: build_region_cache(
                clk, scale, media, cache_bytes=(zones - 5) * scale.zone_size
            ),
        ),
    ):
        stack = builder(SimClock())
        driver = CacheBenchDriver(
            CacheBenchConfig(
                num_ops=1,
                num_keys=max(
                    1024, int(2.2 * stack.cache_bytes / MEAN_ENTRY_BYTES)
                ),
                get_ratio=0.0,
                set_ratio=1.0,
                delete_ratio=0.0,
                seed=7,
            )
        )
        total_sets = num_sets
        if total_sets is None:
            # Enough sets to overwrite the cache ~2.4 times.
            total_sets = int(2.4 * stack.cache_bytes / MEAN_ENTRY_BYTES)
        keys = driver._keys
        sizes = driver._sizes
        for _ in range(total_sets):
            key_index = keys.sample()
            stack.cache.set(
                driver.key_bytes(key_index),
                driver.value_bytes(key_index, sizes.sample()),
            )
        stack.cache.flush()
        rows.extend(
            {"series": label, "sequence": i, "fill_time_us": duration / 1000}
            for i, duration in enumerate(stack.cache.stats.region_fill_durations_ns)
        )
    return rows


# --------------------------------------------------------------------------
# Figure 4 + Table 1 — OP-ratio sweep (throughput, hit ratio, WAF)
# --------------------------------------------------------------------------

@experiment(
    "fig4",
    "Figure 4: OP-ratio sweep",
    Plot("throughput_mops_per_min", "throughput (Mops/min)"),
    quick=dict(num_ops=20_000),
    # F2FS needs ~50+ zones to hold its log heads at 10% OP, so the
    # smoke shrinks the zones, not their number.
    smoke=dict(scale=SERVING_SCALE, zones=64, op_ratios=(0.10, 0.20), num_ops=1_500),
)
def _fig4_op_sweep(
    scale: SchemeScale = SchemeScale(),
    zones: int = 55,
    op_ratios: tuple = (0.10, 0.15, 0.20),
    num_ops: int = 60_000,
) -> Rows:
    """Figure 4: same device space for everyone (the paper's 220 zones,
    scaled); File-Cache and Region-Cache sweep OP 10/15/20% while
    Zone-Cache always runs without OP."""
    media = zones * scale.zone_size
    workload = CacheBenchConfig(
        num_ops=num_ops, num_keys=int(1.6 * media / MEAN_ENTRY_BYTES), seed=7
    )
    cells = (
        [("File-Cache", op) for op in op_ratios]
        + [("Zone-Cache", 0.0)]
        + [("Region-Cache", op) for op in op_ratios]
    )
    rows: Rows = []
    for name, op in cells:
        cache_bytes = int(media * (1.0 - op))
        if name == "File-Cache":
            stack = build_file_cache(
                # F2FS reserves a bit less than the nominal OP so the cache
                # file plus node blocks always fit inside usable space.
                SimClock(), scale, media, cache_bytes, provision_ratio=op * 0.6, **NAVY
            )
        elif name == "Zone-Cache":
            stack = build_zone_cache(SimClock(), scale, media, eviction_policy="fifo")
        else:
            stack = build_region_cache(SimClock(), scale, media, cache_bytes, **NAVY)
        row = _mix_row(CacheBenchDriver(workload), stack)
        row["op_ratio"] = op
        rows.append(row)
    return rows


@experiment(
    "table1", "Table 1: WA factor vs OP ratio", Plot("waf", "WA factor"), source="fig4"
)
def _table1_waf(fig4_rows: Rows) -> Rows:
    """Table 1: WA factor of Region-Cache and File-Cache per OP ratio
    (application-level — the layer above the ZNS device).  A projection
    of Figure 4's rows: the paper reads both off the same runs."""
    return [
        {"scheme": row["scheme"], "op_ratio": row["op_ratio"], "waf": row["waf_app"]}
        for row in fig4_rows
        if row["scheme"] in ("Region-Cache", "File-Cache")
    ]


# --------------------------------------------------------------------------
# Figure 5 + Table 2 — end-to-end: the schemes as RocksDB's secondary cache
# --------------------------------------------------------------------------

_DBBENCH_SIZES = dict(
    quick=dict(num_keys=40_000, num_reads=3_000, warmup_reads=6_000),
    smoke=dict(num_keys=10_000, num_reads=1_000, warmup_reads=2_000),
)


def _dbbench(scheme: str, exp_range: float, cache_zones: float, **sizes):
    """One fillrandom + readrandom run with ``scheme`` as secondary cache."""
    config = DbBenchConfig(
        exp_range=exp_range, cache_zones=cache_zones, scheme=scheme, seed=7, **sizes
    )
    return DbBenchDriver(config, SchemeScale()).run()


@experiment(
    "fig5",
    "Figure 5: RocksDB with each scheme as secondary cache",
    Plot("kops_per_sec", "throughput (kops/s)"),
    **_DBBENCH_SIZES,
)
def _fig5_rocksdb(
    num_keys: int = 80_000,
    num_reads: int = 8_000,
    warmup_reads: int = 16_000,
) -> Rows:
    """Figure 5: fillrandom then readrandom against an LSM on HDD, with
    each scheme serving as the secondary (flash) cache."""
    rows: Rows = []
    for exp_range in (15.0, 25.0):
        for scheme in ("Block-Cache", "File-Cache", "Zone-Cache", "Region-Cache"):
            result = _dbbench(
                scheme, exp_range, 4.5, num_keys=num_keys, num_reads=num_reads,
                warmup_reads=warmup_reads,
            )
            rows.append(
                {
                    "scheme": scheme,
                    "exp_range": exp_range,
                    "kops_per_sec": result.ops_per_sec / 1000,
                    "hit_ratio": result.cache_hit_ratio,
                    "p50_ms": result.p50_ns / 1e6,
                    "p99_ms": result.p99_ns / 1e6,
                }
            )
    return rows


@experiment(
    "table2",
    "Table 2: Zone-Cache cache-size sweep",
    Plot("hit_ratio_pct", "hit ratio (%)", labels=("cache_zones",)),
    **_DBBENCH_SIZES,
)
def _table2_cache_sizes(
    num_keys: int = 80_000,
    num_reads: int = 8_000,
    warmup_reads: int = 16_000,
) -> Rows:
    """Table 2: Zone-Cache with growing cache size (the paper's 4–8 GiB,
    scaled to zones) — hit ratio and throughput climb together."""
    rows: Rows = []
    for cache_zones in (4, 5, 6, 7, 8):
        result = _dbbench(
            "Zone-Cache", 25.0, cache_zones, num_keys=num_keys, num_reads=num_reads,
            warmup_reads=warmup_reads,
        )
        rows.append(
            {
                "cache_zones": cache_zones,
                "cache_mib": cache_zones * SchemeScale().zone_size / MIB,
                "kops_per_sec": result.ops_per_sec / 1000,
                "hit_ratio_pct": result.cache_hit_ratio * 100,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Fault sweep — the Figure 2 mix with a seeded fault plan armed
# --------------------------------------------------------------------------

@experiment(
    "fault",
    "Fault sweep: the Figure 2 mix under a seeded fault plan",
    Plot("faults_injected", "faults injected (cache kept serving)"),
    # The grid test_fault_sweep_rows_reproduce_exactly pins.
    smoke=dict(
        num_ops=2_500, num_keys=2_500, zones=12, cache_zones=8, file_zones=20,
        schemes=("Region-Cache", "Block-Cache"),
    ),
)
def _fault_sweep(
    zones: int = 25,
    cache_zones: int = 20,
    file_zones: int = 38,
    num_ops: int = 20_000,
    num_keys: Optional[int] = None,
    schemes: tuple = SCHEME_NAMES,
) -> Rows:
    """Availability under injected faults (EXPERIMENTS.md "Fault sweep").

    Each scheme runs the Figure 2 mix with the same seeded fault plan:
    sporadic transient media errors on reads, occasional open-resource
    exhaustion on writes, rare latency spikes, and one zone flipped
    READ-ONLY mid-run (ZNS-backed schemes only — a conventional SSD has
    no zones to kill).  The interesting columns are ``faults_injected``,
    ``retries``, ``degraded`` misses and ``quarantined_regions``: the
    cache must keep serving, not crash.
    """

    def make_faults() -> FaultInjector:
        return FaultInjector(
            seed=11,
            rules=(
                FaultRule(
                    FaultKind.MEDIA_ERROR,
                    probability=0.002,
                    op="read",
                    after_requests=200,
                ),
                FaultRule(FaultKind.ZONE_RESOURCE, probability=0.0005, op="write"),
                FaultRule(
                    FaultKind.LATENCY,
                    probability=0.001,
                    extra_latency_ns=2_000_000,
                ),
            ),
            zone_faults=(
                ZoneFault(
                    at_ns=5 * SEC,
                    zone_index=zones // 2,
                    kind=FaultKind.ZONE_READONLY,
                ),
            ),
        )

    rows: Rows = []
    for row, stack in _fig2_stacks(
        SchemeScale(), zones, cache_zones, file_zones, num_keys, num_ops, schemes,
        make_faults,
    ):
        stats = stack.cache.stats
        injector = stack.substrate["faults"]
        row.update(
            {
                "degraded_misses": stats.degraded_misses,
                "io_errors": stats.io_errors,
                "latency_injected_ms": injector.stats.latency_injected_ns / 1e6,
                "zone_faults": injector.stats.zone_faults_applied,
            }
        )
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Serving sweep — open-loop multi-tenant load against a sharded fleet
# --------------------------------------------------------------------------

_WEB_P99 = "web tenant p99 (us)"
_TENANT_QOS = (
    "web_p99_us", "web_goodput_kops", "web_slo_attainment", "batch_p99_us",
    "batch_goodput_kops", "cluster_shed_rate",
)


@fleet_sweep(
    "serve",
    "Serving sweep: offered load vs p99 and shed rate per scheme",
    Plot("web_p99_us", _WEB_P99, labels=("scheme", "offered_total_kops")),
    columns=(
        "scheme", "offered_total_kops", "num_shards", "web_p50_us", "web_p99_us",
        "web_p999_us", "web_goodput_kops", "web_shed_rate", "web_slo_attainment",
        "web_hit_ratio", "batch_p99_us", "batch_goodput_kops", "batch_shed_rate",
        "cluster_shed_rate", "cluster_util_max", "cluster_served", "waf_app_max",
        "waf_device_max",
    ),
    schemes=SCHEME_NAMES,
    num_shards=3,
    base=dict(requests_per_tenant=4_000),
    quick=dict(offered_kops=(40.0, 240.0), requests_per_tenant=1_500),
    # One load either side of every scheme's knee.
    smoke=dict(offered_kops=(40.0, 360.0), requests_per_tenant=700),
)
def _serve_cells(
    base: FleetCell, offered_kops: tuple = (40.0, 120.0, 360.0)
) -> Cells:
    """Offered load vs p99 / shed rate for each scheme (EXPERIMENTS.md).

    For every scheme and offered load, a homogeneous ``num_shards``
    cluster serves two open-loop tenants (70% steady interactive + 30%
    bursty batch).  Below the saturation knee all schemes complete
    everything; past it the bounded queues shed instead of letting p99
    grow without bound — the shed-rate and p99 columns together locate
    each scheme's knee.  Rows are per (scheme, load) and are
    byte-identical for the same seed (the serving golden test).
    """
    for load_kops in offered_kops:
        yield {}, replace(base, offered_kops=load_kops)


# --------------------------------------------------------------------------
# GC ablation — victim policy × watermark × pacing on the reclaim engine
# --------------------------------------------------------------------------

def _gc_reclaim_overrides(
    name: str, policy: str, watermark_scale: int, pace: int, zones_per_shard: int
) -> tuple:
    """``cache_overrides`` entries carrying one sweep combo's reclaim config.

    Maps the abstract (policy, watermark_scale, pace) point onto each
    layer's own config type; ``pace == 0`` means "move the whole victim
    per trigger".  Zone-Cache has no reclamation and gets nothing.
    """
    if name == "Region-Cache":
        base = max(2, zones_per_shard // 12)
        gc = GcConfig(
            min_empty_zones=base * watermark_scale,
            # High enough that each policy's pick is actually admitted
            # (a tight threshold funnels every policy through the
            # emergency least-valid fallback and erases the axis).
            victim_valid_threshold=0.90,
            policy=policy,
            pace_regions=pace if pace > 0 else 1 << 20,
        )
        return (("gc", gc),)
    if name == "File-Cache":
        cleaner = CleanerConfig(
            low_watermark=3 * watermark_scale,
            pace_blocks=pace if pace > 0 else 1 << 20,
            policy=policy,
            # Ablation policies (random, age_threshold) can nominate
            # near-full sections; defer those and fall back to
            # least-valid under emergency so the log heads never wedge.
            victim_valid_threshold=0.90,
            emergency_sections=2,
        )
        return (("cleaner", cleaner),)
    if name == "Block-Cache":
        ftl = FtlConfig(
            op_ratio=0.20,
            gc_low_watermark=4 * watermark_scale,
            gc_high_watermark=8 * watermark_scale,
            gc_policy=policy,
        )
        return (("ftl", ftl),)
    return ()


@fleet_sweep(
    "gc-sweep",
    "GC ablation: victim policy x watermark x pacing per scheme",
    Plot(
        "gc_copied_bytes", "GC copied bytes",
        labels=("scheme", "gc_policy", "watermark_scale"),
    ),
    columns=(
        "scheme", "gc_policy", "watermark_scale", "pace_units",
        "offered_total_kops", "web_p99_us", "web_goodput_kops",
        "cluster_shed_rate", "waf_app_max", "waf_device_max", "gc_layer",
        "gc_victims", "gc_migrated_units", "gc_dropped_units", "gc_copied_bytes",
        "gc_triggers", "gc_stall_us_p99", "gc_cache_evictions", "reclaim_spans",
        "reclaim_traced_bytes",
    ),
    schemes=SCHEME_NAMES,
    num_shards=1,
    base=dict(offered_kops=30.0),
    quick=dict(
        policies=("greedy", "cost_benefit"), paces=(8,), requests_per_tenant=6_000
    ),
    # All four schemes × two policies, one shard, tracing on — small
    # enough for a CI step, still proving the sweep grid runs end-to-end
    # and migrated bytes carry reclaim spans.
    smoke=dict(
        policies=("greedy", "cost_benefit"), watermark_scales=(1,), paces=(8,),
        requests_per_tenant=6_000, trace=True,
    ),
)
def _gc_sweep_cells(
    base: FleetCell,
    policies: tuple = ("greedy", "cost_benefit", "age_threshold", "random"),
    watermark_scales: tuple = (1, 2),
    paces: tuple = (0, 8),
) -> Cells:
    """GC ablation (`repro gc-sweep`): victim policy × trigger watermark ×
    copy pacing for every scheme, under the open-loop serving load.

    One row per (scheme, policy, watermark, pace) combo, joining the
    fleet's aggregated ``gc_*`` counters with the interactive tenant's
    p99 — the interference axis the paper argues about: how much
    device-side reclamation each scheme performs and what it costs the
    foreground.  Zone-Cache contributes a single "none" row (it has no
    reclamation to sweep) and Block-Cache skips the pace axis (its FTL
    drains synchronously inside the write path, so background pacing is
    a no-op there).
    """
    name = base.shards[0]
    if name == "Zone-Cache":
        combos = [("none", 0, 0)]
    elif name == "Block-Cache":
        combos = [(p, w, 0) for p in policies for w in watermark_scales]
    else:
        combos = [
            (p, w, pace) for p in policies for w in watermark_scales for pace in paces
        ]
    for policy, watermark_scale, pace in combos:
        labels = {
            "gc_policy": policy, "watermark_scale": watermark_scale, "pace_units": pace
        }
        yield labels, replace(
            base,
            cache_overrides=_gc_reclaim_overrides(
                name, policy, watermark_scale, pace, base.zones
            ),
        )


# --------------------------------------------------------------------------
# GC↔QoS co-scheduling — adaptive pacing × GC-aware routing
# --------------------------------------------------------------------------

@fleet_sweep(
    "gc-qos",
    "GC-QoS co-scheduling: adaptive pacing x GC-aware routing",
    Plot("web_p99_us", _WEB_P99, labels=("scheme", "pacing", "routing")),
    columns=(
        "scheme", "pacing", "routing", "offered_total_kops", *_TENANT_QOS,
        "rerouted_writes", "web_rerouted", "batch_rerouted", "gc_layer",
        "gc_victims", "gc_migrated_units", "gc_stall_us_p99",
        "gc_pace_adjustments", "gc_pace_clamps", "gc_pace_units_end",
    ),
    schemes=SCHEME_NAMES,
    num_shards=2,
    base=dict(cache_zones=6, reclaim="qos"),
    quick=dict(offered_kops=(12.0,), requests_per_tenant=4_000),
    # One ZNS scheme, two shards, all four pacing × routing combos at one
    # load — still driving the adaptive controller and the rerouting path.
    smoke=dict(
        offered_kops=(12.0,), requests_per_tenant=4_000, schemes=("Region-Cache",)
    ),
)
def _gc_qos_cells(base: FleetCell, offered_kops: tuple = (8.0, 12.0, 20.0)) -> Cells:
    """GC↔QoS co-scheduling sweep (`repro gc-qos`): {static, adaptive}
    pacing × {static, gc_aware} routing per scheme, under the serving
    sweep's open-loop two-tenant load.

    Both levers respond to the same signal.  Adaptive pacing is an AIMD
    controller on each shard's reclaim pace, budgeted at half the
    interactive tenant's p99 SLO (device-side stall is only part of the
    end-to-end path).  GC-aware routing diverts writes around shards
    whose pacer sits in the urgent/emergency band.  One row per (scheme,
    pacing, routing, load) joins both tenants' QoS with the fleet's
    rerouting and reclaim telemetry, so the ablation reads directly:
    which half of the loop buys the p99/goodput at the overload knee.
    """
    for load_kops in offered_kops:
        for pacing in ("static", "adaptive"):
            for routing in ("static", "gc_aware"):
                yield {}, replace(
                    base, offered_kops=load_kops, pacing=pacing, routing=routing
                )


# --------------------------------------------------------------------------
# Zone-management cost ablation — {zero, measured} × {Region-Cache, Z-Cache}
# --------------------------------------------------------------------------

@fleet_sweep(
    "zone-cost",
    "Zone-cost ablation: {zero, measured} costs x {Region, Z}-Cache",
    Plot("web_p99_us", _WEB_P99, labels=("scheme", "cost_preset")),
    columns=(
        "scheme", "cost_preset", "pacing", "routing", "offered_total_kops",
        *_TENANT_QOS, "gc_victims", "gc_migrated_units", "gc_copied_bytes",
        "gc_stall_us_p99", "zns_open_us", "zns_close_us", "zns_finish_us",
        "zns_reset_us", "zns_forced_close",
    ),
    schemes=("Region-Cache", "Z-Cache"),
    num_shards=2,
    base=dict(cache_zones=6, reclaim="qos", pacing="adaptive", routing="gc_aware"),
    quick=dict(requests_per_tenant=4_000),
    # Both schemes × both cost presets at the knee with the gc-qos smoke's
    # request stream — long enough that reclaim actually runs in every
    # cell (shorter streams never reach the knee and the ablation reads
    # as a no-op).
    smoke=dict(requests_per_tenant=4_000),
)
def _zone_cost_cells(base: FleetCell) -> Cells:
    """Zone-management cost ablation (`repro zone-cost`).

    The cost-model question the gc-qos sweep cannot answer: with zone
    commands free (the simulator's historical default) Region-Cache and
    Z-Cache reclaim at the same price, so hot/cold separation only moves
    copy traffic.  Once opens/closes/finishes/resets carry their
    measured service times (the "Hidden Cost of Zone Management" ZNS
    characterization), Z-Cache's cold-first reclaim — victims chosen so
    their survivors were *already* segregated into cold zones — copies
    less and therefore issues fewer of the newly-expensive commands per
    reclaimed zone.  One row per (scheme, cost preset) at the gc-qos
    knee; read web_p99_us down the preset column.
    """
    presets = {"zero": ZoneCostConfig(), "measured": ZoneCostConfig.measured()}
    for preset, costs in presets.items():
        yield {"cost_preset": preset}, replace(
            base, cache_overrides=(("zone_costs", costs),)
        )


# --------------------------------------------------------------------------
# Failover sweep — kill shards mid-diurnal-load, measure survival per scheme
# --------------------------------------------------------------------------

@fleet_sweep(
    "failover",
    "Failover sweep: kill a shard mid-diurnal load, R=1 vs R=2",
    Plot(
        "fleet_availability", "availability under shard loss",
        labels=("scheme", "replicas"),
    ),
    columns=(
        "scheme", "replicas", "num_shards", "offered_total_kops", "kill_at_ms",
        "outage_ms", *_TENANT_QOS, "fleet_replicas", "fleet_availability",
        "fleet_failed", "fleet_kills", "fleet_storm_p99_us", "fleet_hit_steady",
        "fleet_hit_storm", "fleet_hit_recovered", "fleet_recovery_ms",
        "fleet_repl_writes", "fleet_repl_bytes", "fleet_repl_dropped",
        "fleet_handoff_writes", "fleet_handoff_bytes", "fleet_hints_buffered",
        "fleet_hint_drops", "fleet_fallback_reads", "fleet_read_repairs",
    ),
    schemes=("Region-Cache", "Z-Cache"),
    num_shards=8,
    base=dict(
        cache_zones=6, reclaim="qos", tenants="diurnal", offered_kops=10.0,
        requests_per_tenant=6_000, max_queue_depth=128, kill=(0.35, 0.25),
    ),
    quick=dict(requests_per_tenant=3_000),
    # One scheme, four shards, R∈{1,2}, one mid-run kill — still driving
    # the whole failover path (fan-out, fallback reads, hinted handoff,
    # crash recovery).
    smoke=dict(
        num_shards=4, offered_kops=12.0, requests_per_tenant=1_500,
        schemes=("Region-Cache",),
    ),
)
def _failover_cells(base: FleetCell) -> Cells:
    """Fleet failover sweep (`repro failover`): kill a shard mid-diurnal
    load and measure what replication buys, per scheme.

    For every (scheme, replication factor) cell, an ``num_shards``
    homogeneous cluster serves the two-tenant mix (web switched to
    diurnal arrivals so the kill lands on a live waveform), and a
    :class:`~repro.serve.FailoverPlan` power-cuts shard 0 at 35% of the
    run for 25% of the run.  With R=1 every request owned by the dead
    shard fails for the whole outage, and its cache restarts cold —
    availability drops and the hit ratio takes the whole recovery tail
    to climb back.  With R=2 writes fan out to the ring successor, reads
    fall back (with read-repair), and a bounded hint journal replays the
    missed writes through the normal write path during RESYNCING —
    availability holds and the hit ratio recovers within a few percent
    by run end.

    One row per cell joins the tenants' QoS columns with the fleet
    telemetry (``fleet_*``: availability, failed counts, storm p99,
    per-phase hit ratios, recovery time, replication/handoff byte
    overhead — the bytes reconcile exactly with ``serve.replicate`` /
    ``serve.handoff`` tracer spans).

    The queue depth is deeper than the serving/gc-qos sweeps' 48:
    replication roughly doubles each shard's queue traffic, and
    Region-Cache's multi-millisecond seal+reclaim bursts then overrun a
    48-deep queue — the availability the replicas bought leaks back out
    as queue-full sheds.  At depth 128 the bursts queue instead of
    shedding, which is the point of the ablation: R=2 Region-Cache
    holds ≥99% availability but pays for it in web p99, while Z-Cache
    (lazy cold-first reclaim, no copy bursts) holds both.  (GC-aware
    routing stays off — it is incompatible with replica placement,
    which must follow the ring.)
    """
    for replicas in (1, 2):
        yield {}, replace(base, replicas=replicas)


# --------------------------------------------------------------------------
# Invalidation storms — namespace bumps against the tenant lifecycle layer
# --------------------------------------------------------------------------

_STORM_BASE = dict(
    cache_zones=5, block_fills_lba=True, reclaim="storm", tenants="storm",
    requests_per_tenant=12_000, max_queue_depth=128, bumps=(0.35, 0.55),
)
_LIFECYCLE_ARMED = LifecycleConfig(versioning=True, dead_first_eviction=True, gc_hints=True)


@fleet_sweep(
    "invalidate",
    "Invalidation storm: bump tenant namespaces mid-run, per scheme",
    Plot("gc_copied_bytes", "post-storm GC copied bytes"),
    columns=(
        "scheme", "num_shards", "offered_total_kops", "bump_at_ms",
        "purge_bump_at_ms", "web_p99_us", "web_goodput_kops", "web_hit_ratio",
        "purge_p99_us", "purge_goodput_kops", "cluster_shed_rate", "waf_app_max",
        "waf_device_max", "gc_copied_bytes", "gc_migrated_units",
        "gc_dropped_units", "gc_victims", "inval_bumps", "inval_pre_hit_ratio",
        "inval_post_hit_ratio", "inval_post_p99_us", "inval_recovery_slope_per_s",
        "inval_dead_bytes", "inval_dead_items", "inval_dropped_regions",
        "inval_dead_first_evictions", "tenant_generations", "tenant_versioned",
    ),
    schemes=ALL_SCHEME_NAMES,
    num_shards=4,
    base=dict(_STORM_BASE, cache_overrides=(("lifecycle", _LIFECYCLE_ARMED),)),
    quick=dict(num_shards=2, requests_per_tenant=6_000),
    # All five schemes, two shards — still driving the whole lifecycle
    # path (versioned keys, both bumps, dead-first eviction, GC drop
    # hints, the ledger reconciliation).
    smoke=dict(num_shards=2, requests_per_tenant=4_000),
)
def _invalidate_cells(base: FleetCell) -> Cells:
    """Invalidation-storm sweep (`repro invalidate`): bump two tenants'
    namespaces mid-run and measure the aftermath per scheme.

    Every cell runs the same script on an ``num_shards`` homogeneous
    cluster with the tenant lifecycle layer fully armed (versioned
    keys, the liveness ledger, dead-first eviction, §3.4 GC drop
    hints): the web tenant's namespace is bumped at 35% of the run —
    its flash-crowd refill wave starts there too — and the purge
    tenant, mid delete-storm, is bumped at 55%.  Each bump is O(1):
    generations advance, and every byte written under the old
    generation becomes dead liveness the storage layers must discover.

    What separates the schemes is *where* that discovery happens.
    Region-/Z-Cache see dead regions at the cache layer (dead-first
    eviction takes them as zero-valid victims) and at the ZTL (GC drops
    dead-generation regions via the migration hint instead of copying
    them), so their post-storm copied bytes stay near zero.  Block- and
    File-Cache have no lifecycle channel into their FTL/cleaner, which
    migrate dead-generation bytes like any other valid data — the WAF
    and ``gc_copied_bytes`` columns carry the separation.  Zone-Cache
    has no device-side reclaim at all; its dead bytes simply age out
    with zone eviction.

    One row per scheme joins the tenants' QoS columns with the
    ``inval_*`` family (post-bump hit ratio, post-bump p99, hit-ratio
    recovery slope, ledger dead bytes — which reconcile exactly with
    the per-shard liveness ledgers and the ``serve.invalidate`` event
    counts) and the ``gc_*`` copy counters.
    """
    yield {}, base


# --------------------------------------------------------------------------
# §3.4 hint-coverage ablation — hints {off, ztl-only, full} per scheme
# --------------------------------------------------------------------------

# The ablation grid: "off" disables the cache→GC hint channel entirely,
# "ztl" is the historical wiring (hints reach the zone translation layer
# only), "full" extends the same GcHints protocol to the F2FS cleaner
# and the FTL.  Zone-Cache is excluded: it has no reclamation layer, so
# hints have nothing to steer.
HINT_MODES = ("off", "ztl", "full")
HINT_SCHEMES = ("Block-Cache", "File-Cache", "Region-Cache", "Z-Cache")


def _hint_lifecycle(mode: str) -> LifecycleConfig:
    """Lifecycle config for one hint-ablation mode (storm layer armed)."""
    if mode not in HINT_MODES:
        raise ConfigError(f"unknown hint mode {mode!r}; expected {HINT_MODES}")
    return LifecycleConfig(
        versioning=True,
        dead_first_eviction=True,
        gc_hints=(mode != "off"),
        hint_layers="all" if mode == "full" else "ztl",
    )


@fleet_sweep(
    "hint-sweep",
    "Hint ablation: cache->GC hints {off, ztl, full} per scheme",
    Plot(
        "gc_copied_bytes", "GC copied bytes by hint coverage",
        labels=("scheme", "hints"),
    ),
    columns=(
        "scheme", "hints", "gc_layer", "num_shards", "web_hit_ratio", "web_p99_us",
        "web_goodput_kops", "purge_p99_us", "cluster_shed_rate", "waf_app_max",
        "waf_device_max", "gc_copied_bytes", "gc_migrated_units",
        "gc_dropped_units", "gc_hint_dropped_units", "gc_hint_drop_spans",
        "gc_victims",
    ),
    schemes=HINT_SCHEMES,
    num_shards=4,
    # Tighter than the invalidation sweep's 16 file zones: at 8 zones the
    # F2FS cleaner actually runs under the storm (free sections cross the
    # watermark), so the File-Cache ablation has cleaning to steer.
    base=dict(_STORM_BASE, file_zones=8),
    quick=dict(num_shards=2, requests_per_tenant=6_000),
    # The full {off, ztl, full} × four-scheme grid on two shards — still
    # exercising every hint path (ZTL drop, F2FS block-run drop, FTL
    # discard-ahead) and the span reconciliation.
    smoke=dict(num_shards=2, requests_per_tenant=3_000),
)
def _hint_cells(base: FleetCell) -> Cells:
    """Hint-coverage ablation (`repro hint-sweep`): hints {off, ztl,
    full} × the four schemes with a reclamation layer, under the
    invalidation-storm load (`repro invalidate`'s script unchanged).

    Every cell runs the same two-tenant storm: the web tenant's
    namespace bump at 35% of the run and the purge tenant's bump mid
    delete-storm turn whole regions dead at once, so each scheme's GC
    faces the same condemned bytes — what varies is whether its
    reclamation layer can *see* the condemnation.  With hints off, every
    layer migrates dead-generation bytes like live data.  With the
    historical ztl-only wiring, Region-/Z-Cache drop condemned regions
    at the ZTL while Block-/File-Cache keep copying blind.  With full
    coverage, the F2FS cleaner resolves victim blocks back to cache
    regions and drops condemned ones (NAT unmap + SIT invalidate, no
    data I/O), and the FTL discards a condemned region's pages ahead of
    copying them.

    Reconciliation: every hint drop emits one ``reclaim.<layer>``
    ``drop`` span, counted via a tracer subscription (records are
    streamed, not captured).  ``gc_hint_dropped_units`` ==
    ``gc_hint_drop_spans`` cell by cell — asserted in
    ``tests/test_gc_hints.py``.
    """
    for mode in HINT_MODES:
        yield {"hints": mode}, replace(
            base,
            cache_overrides=(("lifecycle", _hint_lifecycle(mode)),),
            count_drop_spans=mode != "off",
        )
