"""Session-sharded parallel SCIDIVE: the :class:`ScidiveCluster`.

SCIDIVE's state is keyed per session (paper §3): SIP dialogs by
Call-ID, media analysis per destination flow, registrations per AoR.
That property makes horizontal scaling natural — frames can be
partitioned across N independent worker engines as long as every frame
lands on a worker that holds the state it needs.  This package supplies
the pieces:

* :mod:`repro.cluster.sharding` — the cheap pre-distiller
  (:func:`shard_key`) that classifies a raw frame into the signalling
  or media plane and extracts a stable session-affinity key (SIP
  Call-ID, normalised destination media endpoint, accounting call id)
  without full protocol decoding, plus the fragment-aware
  :class:`SessionSharder` router.
* :mod:`repro.cluster.cluster` — :class:`ScidiveCluster`, the router:
  N worker engines behind bounded batch queues (``process`` or
  ``serial`` backends), with backpressure policies, crash detection
  with automatic respawn, graceful draining shutdown and a merged
  cluster-level view (alerts, :class:`~repro.core.engine.EngineStats`,
  metrics registries).
* :mod:`repro.cluster.worker` — the worker half: one message handler
  (batches, the rule-reload barrier, stop, crash) that both backends
  run, over a ``multiprocessing`` queue or inline.
* :mod:`repro.cluster.benchmark` — the shard-scaling sweep shared by
  ``benchmarks/bench_shard_scaling.py`` and ``repro bench-shards``.
"""

from repro.cluster.cluster import (
    ClusterConfig,
    ClusterResult,
    ClusterStats,
    ScidiveCluster,
    WorkerReport,
)
from repro.cluster.sharding import (
    PLANE_FRAGMENT,
    PLANE_MEDIA,
    PLANE_OTHER,
    PLANE_SIGNALLING,
    SessionSharder,
    ShardKey,
    shard_index,
    shard_key,
)

__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "ClusterStats",
    "PLANE_FRAGMENT",
    "PLANE_MEDIA",
    "PLANE_OTHER",
    "PLANE_SIGNALLING",
    "ScidiveCluster",
    "SessionSharder",
    "ShardKey",
    "WorkerReport",
    "shard_index",
    "shard_key",
]
