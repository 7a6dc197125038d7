"""Event-driven serving loop: open-loop tenants against a shard fleet.

This is a discrete-event simulation layered on the same virtual clocks
the rest of the reproduction uses.  Tenants emit arrivals on their own
schedule (open loop — nothing waits for completions); each arrival is
rate-limit checked, routed by consistent hash, and either queued at its
shard or shed.  Shards are serial servers whose *service time* is the
full simulated cost of the cache operation — CPU charges, device
queueing, GC interference — so serving-level queueing delay composes
with NAND-level latency instead of replacing it.

Determinism: every event carries a (virtual time, insertion seq) key,
all randomness sits behind seeded RNGs, no wall clock anywhere.  The
same configs produce byte-identical reports.

There is one loop, :meth:`Server.run`, whatever is armed:

* every tenant's arrival timestamps, op kinds and key *indices* are
  drawn in bulk before the first event (the arrival, op-mix, Zipf and
  size streams are independent seeded generators, so draining one early
  cannot perturb another);
* a request's key bytes — ``tenant:gen:`` prefix included — are bound
  when it **arrives**, so the shard the ring picked and the key the
  shard applies always agree, even across a namespace bump;
* arrivals, completions, kills, recoveries, probes and namespace bumps
  are six kinds on one :class:`~repro.sim.sched.EventScheduler`
  run-list, dispatched from one table;
* replication (R>1 or a :class:`FailoverPlan`) changes the *routing
  step* of an arrival and adds fan-out work to a completion; it does
  not change the loop;
* ``serve`` spans and ``serve.*`` events are recorded only on shards
  whose ``IoTracer.enabled`` is set — observing a run never reroutes it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.engine import HybridCache
from repro.errors import ConfigError, ServerAlreadyRanError
from repro.serve.cluster import CacheCluster, Shard
from repro.serve.replication import (
    DOWN_AFTER_FAILURES,
    HEALTH_DOWN,
    HEALTH_RESYNCING,
    HEALTH_SUSPECT,
    HEALTH_UP,
    PHASE_RECOVERED,
    PHASE_STEADY,
    PHASE_STORM,
    PROBE_INTERVAL_NS,
    SUSPECT_AFTER_FAILURES,
    FailoverPlan,
    FleetStats,
)
from repro.serve.invalidation import InvalidationPlan, InvalidationStats
from repro.serve.tenant import Tenant, TenantConfig
from repro.sim.sched import EventScheduler
from repro.units import SEC
from repro.workloads.cachebench import KIND_DELETE, KIND_GET, KIND_NAMES, KIND_SET

# Event kinds, in dispatch-table order.  Kills, recoveries and probes
# are pushed only under a FailoverPlan, bumps only under an
# InvalidationPlan.
_ARRIVAL, _DONE, _KILL, _RECOVER, _PROBE, _INVALIDATE = range(6)

# Shard-queue items are ``(tag, time_ns, kind, key, ...)``: a foreground
# request continues ``tenant_index, key_index``; a replica write or a
# hint replay continues ``value``.
_ITEM_FG = 0
_ITEM_REPL = 1
_ITEM_HINT = 2

# Hint-journal entry kind for a namespace bump owed to a DOWN shard
# (key = tenant id bytes, value = ASCII generation).  Outside the
# cachebench KIND_* range on purpose.
_KIND_NSBUMP = 3


@dataclass(frozen=True)
class ServerConfig:
    """Fleet-level serving knobs."""

    # Bounded per-shard service queue: the load-shedding backstop.  An
    # arrival finding the queue full is rejected, so queue delay — and
    # therefore p99 — stays bounded while shed rate absorbs the overload.
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass
class ServingReport:
    """Everything one serving run measured."""

    tenant_rows: List[Dict[str, object]]
    shard_rows: List[Dict[str, object]]
    sim_seconds: float
    offered: int
    completed: int
    shed: int
    # Fleet-level replication/failover summary; None unless replication
    # was armed (replicas > 1 or a FailoverPlan).
    fleet_row: Optional[Dict[str, object]] = field(default=None)
    # Invalidation-storm summary; None unless an InvalidationPlan ran.
    inval_row: Optional[Dict[str, object]] = field(default=None)

    @property
    def shed_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered


def _emit(shard: Shard, layer: str, op: str, zone: Optional[int] = None) -> None:
    """Record a ``serve.*`` event on the shard's tracer (a no-op unless
    that tracer is enabled)."""
    shard.stack.cache.store.tracer.emit_event(layer, op, shard.index, 0, zone)


class Server:
    """Runs tenants' open-loop streams to completion over a cluster."""

    def __init__(
        self,
        cluster: CacheCluster,
        tenants: Sequence[TenantConfig],
        config: ServerConfig = ServerConfig(),
        failover: Optional[FailoverPlan] = None,
        invalidations: Optional[InvalidationPlan] = None,
    ) -> None:
        if not tenants:
            raise ConfigError("server needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"tenant names must be unique, got {names}")
        self.cluster = cluster
        self.config = config
        self.failover = failover
        self.invalidations = invalidations
        self.inval_stats: Optional[InvalidationStats] = None
        if invalidations is not None and invalidations:
            by_name = {t.name: t for t in tenants}
            for bump in invalidations.bumps:
                target = by_name.get(bump.tenant)
                if target is None:
                    raise ConfigError(
                        f"invalidation targets unknown tenant {bump.tenant!r}"
                    )
                if not target.versioned_keys:
                    raise ConfigError(
                        f"invalidation targets tenant {bump.tenant!r} "
                        "without versioned_keys"
                    )
            self.inval_stats = InvalidationStats()
        if failover is not None:
            for kill in failover.kills:
                if kill.shard >= cluster.num_shards:
                    raise ConfigError(
                        f"kill targets shard {kill.shard}, "
                        f"cluster has {cluster.num_shards}"
                    )
        if self._replication_armed() and cluster.routing.policy == "gc_aware":
            raise ConfigError(
                "replicated serving requires ring-faithful (static) "
                "routing; gc_aware is not supported with a failover plan"
            )
        self.tenants = [Tenant(t) for t in tenants]
        self._events = EventScheduler()
        self._ran = False
        self._end_ns = 0
        self._last_arrival_ns = 0
        self._fleet: Optional[FleetStats] = None
        self._kills_fired = 0
        self._probe_armed = False
        # Oracle for the crash-consistency tests: every acknowledged,
        # replicated write's (time, value) history per key.
        self.write_ledger: Optional[
            Dict[bytes, List[Tuple[int, Optional[bytes]]]]
        ] = ({} if cluster.replication.track_writes else None)

    def _replication_armed(self) -> bool:
        return self.failover is not None or self.cluster.replication.replicas > 1

    # --- main loop ----------------------------------------------------------

    def run(self) -> ServingReport:
        """Serve every tenant's stream to completion; single-shot.

        The loop body is the arrival handler (the one hot path whose
        per-run constants are worth holding in locals); every other
        event kind goes through the dispatch table.  Event ``seq``
        numbers are assigned in push order, so equal-time events
        dequeue in the order they were scheduled.
        """
        if self._ran:
            raise ServerAlreadyRanError(
                "Server.run() is single-shot: tenant streams and SLO "
                "trackers are consumed by the first run; build a new Server"
            )
        self._ran = True
        tenants = self.tenants
        cluster = self.cluster
        replicated = self._replication_armed()
        plan = self.failover if self.failover is not None else FailoverPlan()
        if replicated:
            for shard in cluster.shards:
                shard.replication_active = True
            first_kill = plan.first_kill_ns()
            # Steady-phase hit accounting skips the first half of the
            # lead-in so cold-start misses don't flatter the recovery
            # comparison.
            self._fleet = FleetStats(
                warmup_ns=(first_kill // 2) if first_kill else 0
            )

        arrival_times = [t.arrivals.pregenerate(t.budget) for t in tenants]
        op_kinds: List[List[int]] = []
        op_key_indices: List[List[int]] = []
        for tenant in tenants:
            kinds, key_indices = tenant.driver.next_ops(tenant.budget)
            op_kinds.append(kinds)
            op_key_indices.append(key_indices)

        push = self._events.push
        for index, times in enumerate(arrival_times):
            push(times[0], _ARRIVAL, index)
        for kill_index, kill in enumerate(plan.kills):
            push(kill.at_ns, _KILL, kill_index)
        if self.inval_stats is not None:
            for bump_index, bump in enumerate(self.invalidations.bumps):
                push(bump.at_ns, _INVALIDATE, bump_index)
        handlers = (
            None,  # arrivals are the loop body
            self._on_done,
            self._on_kill,
            self._on_recover,
            self._on_probe,
            self._on_invalidate,
        )

        max_depth = self.config.max_queue_depth
        gc_aware = cluster.routing.policy == "gc_aware"
        shard_for = cluster.shard_for
        replica_set = cluster.replica_set
        route_from_home = cluster.route_from_home
        serve_next = self._serve_next
        sched = self._events
        events = sched.events
        now_ns = 0
        while events:
            neg_time, _neg_seq, ev_kind, index = events.pop()
            if ev_kind != _ARRIVAL:
                handlers[ev_kind](-neg_time, index)
                continue
            now_ns = -neg_time
            tenant = tenants[index]
            cursor = tenant.issued
            tenant.issued = cursor + 1
            if cursor + 1 < tenant.budget:
                # Inlined EventScheduler.push (one of the two per-op sites).
                sched.seq = seq = sched.seq + 1
                insort(
                    events,
                    (-arrival_times[index][cursor + 1], -seq, _ARRIVAL, index),
                )
            slo = tenant.slo
            slo.offered += 1
            kind = op_kinds[index][cursor]
            key_index = op_key_indices[index][cursor]
            key = tenant.bound_keys.get(key_index)
            if key is None:
                key = tenant.bind_key(key_index)
            if replicated:
                replicas = replica_set(key)
                home = replicas[0]
            else:
                home = shard_for(key)
            bucket = tenant.bucket
            if bucket is not None and not bucket.try_take(now_ns):
                slo.shed_rate_limited += 1
                _emit(home, "serve.qos", "shed_rate_limit")
                continue
            if replicated:
                target = self._pick_target(replicas, kind == KIND_GET)
                if target is None:
                    self._fail_request(tenant, home, "no_replica")
                    continue
                if not target.alive:
                    # Routed to a shard whose death is not yet declared:
                    # the request times out.  This window *is*
                    # detection latency.
                    self._register_failure(target, now_ns)
                    self._fail_request(tenant, target, "timeout")
                    continue
            elif gc_aware and kind != KIND_GET:
                # Rate-limit-admitted writes may be steered around
                # reclamation pressure; reads always follow the ring.
                target, rerouted_from = route_from_home(key, home)
                if rerouted_from is not None:
                    slo.rerouted += 1
                    _emit(target, "serve.route", "reroute", rerouted_from.index)
            else:
                target = home
            queue = target.queue
            if len(queue) >= max_depth:
                slo.shed_queue_full += 1
                target.shed_queue_full += 1
                _emit(target, "serve.qos", "shed_queue_full")
                continue
            queue.append((_ITEM_FG, now_ns, kind, key, index, key_index))
            if not target.busy:
                serve_next(now_ns, target)
        # Arrivals pop in time order, so the last one popped is the latest.
        self._last_arrival_ns = now_ns
        return self._report()

    def _serve_next(self, now_ns: int, shard: Shard) -> None:
        """Put the shard's next queued item (foreground request, replica
        write, or hint replay) into service at full simulated cost."""
        item = shard.queue.popleft()
        shard.busy = True
        # The shard's device clock catches up to the fleet's event time
        # (translated onto the shard's own epoch — stack construction
        # cost is not serving time): idle gaps between arrivals really
        # are idle, then the op runs at full simulated cost.
        clock = shard.stack.clock
        local_ns = shard.epoch_ns + now_ns
        if local_ns > clock.now:
            clock.now = local_ns
        start_ns = clock.now
        cache = shard.stack.cache
        tracer = cache.store.tracer
        if item[0] == _ITEM_FG:
            _, arrival_ns, kind, key, tenant_index, key_index = item
            tenant = self.tenants[tenant_index]
            is_get = kind == KIND_GET
            apply = tenant.driver.apply_kind_value
            if tracer.enabled:
                with tracer.span("serve", KIND_NAMES[kind], offset=shard.index):
                    hit, value = apply(cache, kind, key_index, key)
            else:
                hit, value = apply(cache, kind, key_index, key)
            shard.served += 1
            done_ns = clock.now - shard.epoch_ns
            latency = done_ns - arrival_ns
            # Inlined SloTracker.record_completion (the one per-op site).
            slo = tenant.slo
            slo.completed += 1
            slo.latency._samples.append(latency)
            slo.latency._sorted = None
            if latency <= slo.slo_latency_ns:
                slo.within_slo += 1
            if is_get:
                slo.gets += 1
                if hit:
                    slo.get_hits += 1
            if is_get and self.inval_stats is not None:
                self.inval_stats.note_lookup(done_ns, hit, latency)
            fleet = self._fleet
            if fleet is not None:
                fleet.note_completion(self._phase(), latency, is_get, hit, done_ns)
                if is_get and shard is not self.cluster.replica_set(key)[0]:
                    shard.fallback_served += 1
                    fleet.fallback_reads += 1
                # Replication fan-out happens when the completion event
                # fires (at done_ns), so it cannot jump ahead of
                # arrivals landing between now and then.
                shard._done_action = ("fg", kind, key, hit, value)
        else:
            tag, _, kind, key, value = item
            nbytes = len(value) if value is not None else 0
            op_name = "replicate" if tag == _ITEM_REPL else "handoff"
            with tracer.span("serve", op_name, offset=shard.index, length=nbytes):
                if kind == _KIND_NSBUMP:
                    # Replayed namespace bump: key is the tenant id,
                    # value the ASCII generation journaled at bump time.
                    cache.invalidate_namespace(key, int(value))
                    _emit(shard, "serve.invalidate", "bump", int(value))
                elif kind == KIND_DELETE:
                    cache.delete(key)
                else:
                    cache.set(key, value)
            if tag == _ITEM_REPL:
                shard.repl_served += 1
                shard.repl_bytes += nbytes
            else:
                shard.handoff_served += 1
                shard.handoff_bytes += nbytes
                shard._done_action = ("hint",)
            done_ns = clock.now - shard.epoch_ns
        shard.busy_ns += clock.now - start_ns
        if done_ns > self._end_ns:
            self._end_ns = done_ns
        # Inlined EventScheduler.push (the other per-op site).
        sched = self._events
        sched.seq = seq = sched.seq + 1
        insort(sched.events, (-done_ns, -seq, _DONE, shard.index))

    def _on_done(self, now_ns: int, shard_index: int) -> None:
        shard = self.cluster.shards[shard_index]
        action = shard._done_action
        shard._done_action = None
        shard.busy = False
        if action is not None:
            if action[0] == "fg":
                if shard.alive:
                    self._fan_out(now_ns, shard, *action[1:])
            else:  # hint replay completed
                shard.hints_outstanding -= 1
                if (
                    shard.hints_outstanding <= 0
                    and shard.health == HEALTH_RESYNCING
                ):
                    self._set_health(shard, HEALTH_UP, now_ns)
        if shard.alive and shard.queue and not shard.busy:
            self._serve_next(now_ns, shard)

    # --- invalidation -------------------------------------------------------

    def _on_invalidate(self, now_ns: int, bump_index: int) -> None:
        """Fire one scheduled namespace bump across the fleet.

        The tenant's generation advances (subsequent requests carry the
        new prefix) and every shard's cache learns the new generation so
        old-generation reads are refused wherever the index still holds
        them.  A bump is control-plane metadata, not a data write: for
        shards that cannot take it now (declared DOWN, or dead with the
        failure not yet declared) it is journaled as a hint and replayed
        on recovery, so no shard ever resurrects a pre-bump generation.
        """
        bump = self.invalidations.bumps[bump_index]
        tenant = next(
            t for t in self.tenants if t.config.name == bump.tenant
        )
        generation = tenant.invalidate()
        self.inval_stats.note_bump(now_ns)
        replicated = self._fleet is not None
        for shard in self.cluster.shards:
            if replicated and (shard.health == HEALTH_DOWN or not shard.alive):
                shard.hint_journal.append(
                    _KIND_NSBUMP, tenant.namespace_id, b"%d" % generation
                )
                continue
            shard.stack.cache.invalidate_namespace(tenant.namespace_id, generation)
            _emit(shard, "serve.invalidate", "bump", generation)

    # --- replication & failover ---------------------------------------------

    def _phase(self) -> str:
        fleet = self._fleet
        if fleet.first_kill_ns is None:
            return PHASE_STEADY
        for shard in self.cluster.shards:
            if not shard.alive or shard.health != HEALTH_UP:
                return PHASE_STORM
        return PHASE_RECOVERED

    def _set_health(self, shard: Shard, state: str, now_ns: int) -> None:
        if shard.health == state:
            return
        shard.health = state
        shard.health_log.append((now_ns, state))
        _emit(shard, "serve.health", state)
        if state == HEALTH_UP and self._fleet.first_kill_ns is not None:
            if all(
                s.alive and s.health == HEALTH_UP for s in self.cluster.shards
            ):
                self._fleet.note_all_up(now_ns)

    def _register_failure(self, shard: Shard, now_ns: int) -> None:
        shard.failures += 1
        if (
            shard.health in (HEALTH_UP, HEALTH_RESYNCING)
            and shard.failures >= SUSPECT_AFTER_FAILURES
        ):
            self._set_health(shard, HEALTH_SUSPECT, now_ns)
        if (
            shard.health == HEALTH_SUSPECT
            and shard.failures >= DOWN_AFTER_FAILURES
        ):
            self._set_health(shard, HEALTH_DOWN, now_ns)

    def _fail_request(self, tenant: Tenant, shard: Shard, reason: str) -> None:
        tenant.slo.record_failed()
        self._fleet.note_failed(self._phase())
        _emit(shard, "serve.qos", "failed_" + reason)

    def _pick_target(
        self, replicas: Tuple[Shard, ...], is_get: bool
    ) -> Optional[Shard]:
        """Declared-serviceable shard for a request, by *health* not truth.

        Reads stay on the primary while it is not declared DOWN, then
        fall back along the successor list; a RESYNCING shard is a last
        resort for reads (its hint replay may not have caught up).
        Writes prefer the primary (RESYNCING included — replayed hints
        queue FIFO ahead of new writes, so ordering holds) and fall back
        to the first successor not declared DOWN.
        """
        primary = replicas[0]
        if not is_get:
            if primary.health != HEALTH_DOWN:
                return primary
            for shard in replicas[1:]:
                if shard.health in (HEALTH_UP, HEALTH_SUSPECT):
                    return shard
            return None
        for shard in replicas:
            if shard.health in (HEALTH_UP, HEALTH_SUSPECT):
                return shard
        for shard in replicas:
            if shard.health == HEALTH_RESYNCING:
                return shard
        return None

    def _fan_out(
        self,
        now_ns: int,
        shard: Shard,
        kind_int: int,
        key: bytes,
        hit: bool,
        value: Optional[bytes],
    ) -> None:
        """Propagate a completed foreground op to the other replicas.

        Writes (sets, deletes, and set-on-miss fills — fills keep
        replicas warm, since healthy reads never leave the primary) fan
        out to every other replica-set member: queued as ``replicate``
        work on live ones, journaled as hints for DOWN ones.  A read
        served off a fallback replica repairs the DOWN primary via a
        (weaker) repair hint.
        """
        replicas = self.cluster.replica_set(key)
        primary = replicas[0]
        if kind_int == KIND_GET:
            if hit:
                if shard is not primary and primary.health == HEALTH_DOWN:
                    if primary.hint_journal.append_repair(KIND_SET, key, value):
                        self._fleet.read_repairs += 1
                return
            if value is None:
                return  # bare miss: nothing written anywhere
            write_kind = KIND_SET  # set-on-miss fill
        elif kind_int == KIND_SET:
            write_kind = KIND_SET
        else:
            write_kind = KIND_DELETE
            value = None
        if self.write_ledger is not None:
            self.write_ledger.setdefault(key, []).append((now_ns, value))
        max_depth = self.config.max_queue_depth
        for member in replicas:
            if member is shard:
                continue
            if member.health == HEALTH_DOWN:
                member.hint_journal.append(write_kind, key, value)
                continue
            if not member.alive:
                member.repl_dropped += 1
                self._register_failure(member, now_ns)
                continue
            if len(member.queue) >= max_depth:
                member.repl_dropped += 1
                continue
            member.queue.append((_ITEM_REPL, now_ns, write_kind, key, value))
            if not member.busy:
                self._serve_next(now_ns, member)

    def _on_kill(self, now_ns: int, kill_index: int) -> None:
        kill = self.failover.kills[kill_index]
        shard = self.cluster.shards[kill.shard]
        if not shard.alive:
            return  # overlapping kill on an already-dead shard
        self._kills_fired += 1
        self._fleet.note_kill(now_ns)
        _emit(shard, "serve.fault", "power_cut")
        shard.alive = False
        # Queued work dies with the DRAM: foreground requests fail,
        # replica writes are lost (counted), buffered hint replays go
        # back to the journal for the next recovery.
        requeue = []
        for item in shard.queue:
            if item[0] == _ITEM_FG:
                self._fail_request(self.tenants[item[4]], shard, "power_cut")
            elif item[0] == _ITEM_REPL:
                shard.repl_dropped += 1
            else:
                requeue.append(item)
        shard.queue.clear()
        shard.hints_outstanding = 0
        shard._done_action = None  # in-flight op's fan-out dies too
        for item in requeue:
            shard.hint_journal.append(item[2], item[3], item[4])
        push = self._events.push
        push(now_ns + kill.outage_ns, _RECOVER, shard.index)
        if not self._probe_armed:
            self._probe_armed = True
            push(now_ns + PROBE_INTERVAL_NS, _PROBE, 0)

    def _on_recover(self, now_ns: int, shard_index: int) -> None:
        """Power back: run crash recovery (charged in simulated time),
        then replay hinted writes through the normal write path."""
        shard = self.cluster.shards[shard_index]
        if shard.alive:
            return
        shard.alive = True
        shard.failures = 0
        clock = shard.clock
        clock.advance_to(shard.to_local(now_ns))
        cache = shard.stack.cache
        tracer = cache.store.tracer
        start_ns = clock.now
        with tracer.span("serve", "recover", offset=shard.index):
            recovered = HybridCache.crash_recover(
                clock,
                cache.store,
                cache.config,
                list(cache.seal_journal),
                admission=cache.admission,
            )
        shard.stack.cache = recovered
        shard.resync_ns += clock.now - start_ns
        recover_done = shard.to_fleet(clock.now)
        if recover_done > self._end_ns:
            self._end_ns = recover_done
        self._set_health(shard, HEALTH_RESYNCING, now_ns)
        hints = shard.hint_journal.drain()
        shard.hints_outstanding = len(hints)
        for kind_int, key, value in hints:
            shard.queue.append((_ITEM_HINT, now_ns, kind_int, key, value))
        if shard.hints_outstanding == 0:
            self._set_health(shard, HEALTH_UP, now_ns)
        elif not shard.busy:
            self._serve_next(now_ns, shard)

    def _on_probe(self, now_ns: int, _index: int) -> None:
        """Fixed-interval health probe: notices dead shards that tenant
        traffic alone would leave undetected."""
        for shard in self.cluster.shards:
            if not shard.alive and shard.health != HEALTH_DOWN:
                self._register_failure(shard, now_ns)
        if self._probes_needed():
            self._events.push(now_ns + PROBE_INTERVAL_NS, _PROBE, 0)
        else:
            self._probe_armed = False

    def _probes_needed(self) -> bool:
        """Only while some shard is down or not yet back ``UP``: a probe
        of a healthy fleet does nothing, and the next kill re-arms."""
        for shard in self.cluster.shards:
            if not shard.alive or shard.health != HEALTH_UP:
                return True
        return False

    def _fleet_row(self) -> Dict[str, object]:
        """Fleet-level failover summary (the ``fleet_*`` bench columns)."""
        fleet = self._fleet
        shards = self.cluster.shards
        offered = sum(t.slo.offered for t in self.tenants)
        rate_shed = sum(t.slo.shed_rate_limited for t in self.tenants)
        completed = sum(t.slo.completed for t in self.tenants)
        failed = sum(t.slo.failed_unavailable for t in self.tenants)
        # Availability over requests the fleet owed an answer: everything
        # offered minus rate-limit sheds (the client exceeded its
        # contract).  Queue-full sheds and failures count against it.
        eligible = offered - rate_shed
        availability = completed / eligible if eligible > 0 else 1.0
        journals = [s.hint_journal for s in shards if s.hint_journal is not None]
        return {
            "replicas": self.cluster.replication.replicas,
            "availability": availability,
            "failed": failed,
            "kills": self._kills_fired,
            "storm_p99_us": fleet.storm_latency.p99() / 1000,
            "hit_steady": fleet.hit_ratio(PHASE_STEADY),
            "hit_storm": fleet.hit_ratio(PHASE_STORM),
            "hit_recovered": fleet.hit_ratio(PHASE_RECOVERED),
            "recovery_ms": fleet.recovery_ms(),
            "repl_writes": sum(s.repl_served for s in shards),
            "repl_bytes": sum(s.repl_bytes for s in shards),
            "repl_dropped": sum(s.repl_dropped for s in shards),
            "handoff_writes": sum(s.handoff_served for s in shards),
            "handoff_bytes": sum(s.handoff_bytes for s in shards),
            "hints_buffered": sum(j.appended for j in journals),
            "hint_drops": sum(j.dropped for j in journals),
            "fallback_reads": fleet.fallback_reads,
            "read_repairs": fleet.read_repairs,
        }

    def _inval_row(self) -> Dict[str, object]:
        """Invalidation-storm summary (the ``inval_*``/``tenant_*`` bench
        columns).  The dead-byte counters read straight from each
        shard's liveness ledger, so they reconcile exactly with the
        ``serve.invalidate`` events and the reclaim tracer spans."""
        row: Dict[str, object] = dict(self.inval_stats.row())
        ledgers = [s.stack.cache.regions.ledger for s in self.cluster.shards]
        row["inval_dead_bytes"] = sum(
            ledger.dead_bytes.get("invalidated", 0) for ledger in ledgers
        )
        row["inval_dead_items"] = sum(
            ledger.dead_items.get("invalidated", 0) for ledger in ledgers
        )
        row["inval_dropped_regions"] = sum(
            ledger.dead_generation_regions for ledger in ledgers
        )
        row["inval_dead_first_evictions"] = sum(
            ledger.dead_first_evictions for ledger in ledgers
        )
        row["tenant_generations"] = sum(t.generation for t in self.tenants)
        row["tenant_versioned"] = sum(
            1 for t in self.tenants if t.config.versioned_keys
        )
        return row

    # --- reporting ----------------------------------------------------------

    def _report(self) -> ServingReport:
        # The measurement window must cover the last *arrival* too: a
        # tenant whose tail is entirely shed stops producing completions
        # while offered load keeps flowing, and normalizing goodput by
        # the last completion alone would inflate it.
        elapsed_s = max(self._end_ns, self._last_arrival_ns) / SEC
        tenant_rows = []
        for tenant in self.tenants:
            row = tenant.slo.row(elapsed_s)
            row["arrival"] = tenant.config.arrival
            row["offered_kops"] = tenant.config.rate_ops_per_sec / 1000
            tenant_rows.append(row)
        offered = sum(t.slo.offered for t in self.tenants)
        completed = sum(t.slo.completed for t in self.tenants)
        shed = sum(t.slo.shed for t in self.tenants)
        return ServingReport(
            tenant_rows=tenant_rows,
            shard_rows=self.cluster.rows(),
            sim_seconds=elapsed_s,
            offered=offered,
            completed=completed,
            shed=shed,
            fleet_row=self._fleet_row() if self._fleet is not None else None,
            inval_row=self._inval_row() if self.inval_stats is not None else None,
        )
