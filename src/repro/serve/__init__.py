"""`repro.serve` — sharded, multi-tenant cache serving with QoS.

The paper (and the seed reproduction) evaluates each scheme as a single
cache instance under a closed-loop driver.  This package adds the layer
a production fleet needs on top: a :class:`CacheCluster` sharding keys
across N scheme stacks via consistent hashing, open-loop tenants with
Poisson/diurnal/burst arrival processes, and a QoS layer — token-bucket
rate limits, bounded shard queues, and load shedding — so overload
produces rejected requests with bounded p99 instead of unbounded queue
growth.  Everything is discrete-event over the existing virtual clocks:
service times come from the full simulated device stack, so serving
queueing composes with NAND latency, GC interference, and faults.

Determinism contract: seeded RNGs only, CRC-based hashing only, one
event run-list with a stable tiebreak — the same configs yield
byte-identical reports (locked by the serving golden test).
"""

from repro.serve.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    StormArrivals,
)
from repro.serve.cluster import (
    PRESSURE_RANK,
    ROUTING_POLICIES,
    CacheCluster,
    RoutingConfig,
    Shard,
    ShardSpec,
)
from repro.serve.hashing import ConsistentHashRing, hash32
from repro.serve.invalidation import (
    InvalidationPlan,
    InvalidationStats,
    TenantInvalidate,
)
from repro.serve.qos import SloTracker, TokenBucket
from repro.serve.replication import (
    HEALTH_DOWN,
    HEALTH_RESYNCING,
    HEALTH_STATES,
    HEALTH_SUSPECT,
    HEALTH_UP,
    FailoverPlan,
    FleetStats,
    HintJournal,
    ReplicationConfig,
    ShardKill,
)
from repro.serve.server import Server, ServerConfig, ServingReport
from repro.serve.tenant import Tenant, TenantConfig

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "BurstArrivals",
    "CacheCluster",
    "ConsistentHashRing",
    "DiurnalArrivals",
    "FailoverPlan",
    "FleetStats",
    "HEALTH_DOWN",
    "HEALTH_RESYNCING",
    "HEALTH_STATES",
    "HEALTH_SUSPECT",
    "HEALTH_UP",
    "FlashCrowdArrivals",
    "HintJournal",
    "InvalidationPlan",
    "InvalidationStats",
    "PRESSURE_RANK",
    "PoissonArrivals",
    "ROUTING_POLICIES",
    "ReplicationConfig",
    "RoutingConfig",
    "Server",
    "ServerConfig",
    "ServingReport",
    "Shard",
    "ShardKill",
    "ShardSpec",
    "SloTracker",
    "StormArrivals",
    "Tenant",
    "TenantConfig",
    "TenantInvalidate",
    "TokenBucket",
    "hash32",
]
