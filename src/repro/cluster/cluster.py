""":class:`ScidiveCluster`: N sharded SCIDIVE workers behind batch queues.

Topology::

    frames → SessionSharder → per-worker bounded queues → worker engines
                                                        ↘ result queue ↙
                                merged ClusterResult (alerts/stats/metrics)

Each worker is a full :class:`~repro.core.engine.ScidiveEngine`.  Frames
are routed by :func:`~repro.cluster.sharding.shard_key`: media frames go
to exactly one worker (the owner of their destination flow), signalling
frames are *broadcast* — the owner (by Call-ID hash) processes them
normally, every other worker processes them in shadow mode
(:meth:`~repro.core.engine.ScidiveEngine.process_frame_shadow`) so its
cross-protocol state stays complete while its duplicate alerts are
discarded.  That keeps alert output an exact multiset match with a
single engine for session-scoped and media-scoped rules.

Backends:

``process``
    One OS process per worker over ``multiprocessing`` queues — the real
    deployment shape.  Supports crash detection with automatic respawn
    (the bounded input queue survives a respawn, so queued batches are
    not lost — only state accumulated by the dead worker is).
``threads``
    One thread per worker, plain ``queue.Queue``.  Same moving parts
    without process overhead; useful under coverage tools and on
    platforms where fork is awkward.
``serial``
    No concurrency at all: batches execute synchronously at submit time.
    Fully deterministic — the reference backend for equivalence tests.

Backpressure: input queues are bounded (``queue_depth`` batches).
``overflow="block"`` applies backpressure to the producer;
``overflow="drop"`` sheds load — but not blindly: media- and
other-plane frames are shed first (``ClusterStats.frames_shed``, by
plane) while signalling frames are retried with a bounded blocking put,
because one dropped INVITE or BYE silences a whole dialog's worth of
stateful detection while a dropped RTP packet costs one sample.  The
IDS-under-flood posture: falling behind must not mean unbounded memory,
and load shedding must degrade the media plane before the signalling
plane.

Crash safety: with ``checkpoint_every > 0`` each queue-backed worker
serializes its engine's detection state
(:meth:`~repro.core.engine.ScidiveEngine.checkpoint`) to
``checkpoint_dir/worker-N.ckpt`` every N batches (atomic
write-then-rename, so ``os._exit`` mid-write cannot leave a torn file),
and a respawned worker restores from that file before draining the
surviving queue — a crash costs at most one checkpoint interval of
state instead of the shard's whole history.  A worker that exhausts
``max_restarts`` is marked *dead* rather than killing the run: its
queue is drained, a CRITICAL self-diagnostic alert is raised, its
owner-flagged batches fail over to the next live worker (whose shadow
processing of broadcast signalling gives it the session state to keep
detecting), and ``ClusterError`` is reserved for the moment every
worker is gone.

Rule-pack hot reload: :meth:`ScidiveCluster.reload_rulepack` swaps every
worker onto a new compiled rule pack mid-stream via a two-phase epoch
barrier on the control path (prepare → all-ready → commit → all-done).
Because input queues are FIFO and the router submits no frames during
the barrier, no frame is ever evaluated under a mixed pack set and none
are dropped; per-rule detection state carries across by rule id.
"""

from __future__ import annotations

import collections
import glob as _glob
import multiprocessing as _mp
import os
import queue as _queue
import shutil as _shutil
import tempfile as _tempfile
import threading
import time as _time
from dataclasses import dataclass, field, replace

from repro.cluster.sharding import PLANE_SIGNALLING, SessionSharder, shard_index
from repro.core.alerts import Alert, Severity
from repro.core.engine import EngineStats, ScidiveEngine
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import (
    DEFAULT_TRACE_SAMPLE_RATE,
    TraceContext,
    Tracer,
    sort_timeline,
)
from repro.resilience.checkpoint import RulePackMismatch
from repro.resilience.overload import (
    STATE_VALUES,
    OverloadConfig,
    OverloadController,
    SourceAccountant,
    format_source,
    shed_plan,
)
from repro.rulespec import (
    RulePack,
    compile_pack,
    core_pack,
    lint_text,
    load_pack,
    parse_pack,
)
from repro.sim.trace import Trace

BACKENDS = ("process", "threads", "serial")
OVERFLOW_POLICIES = ("block", "drop")

# Self-diagnostic rule id for a shard whose worker exhausted its restart
# budget — like the firewall's SELF-QUARANTINE, it must be greppable and
# must never collide with a detection rule.
WORKER_DEAD_RULE_ID = "SELF-WORKER-DEAD"


class ClusterError(RuntimeError):
    """Cluster misconfiguration or an unrecoverable worker failure."""


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Everything a worker needs to build itself (picklable primitives)."""

    workers: int = 4
    backend: str = "process"
    batch_size: int = 64
    queue_depth: int = 32
    overflow: str = "block"
    vantage_ip: str | None = None
    vantage_mac: str | None = None
    metrics_enabled: bool = False
    max_restarts: int = 3
    result_timeout: float = 30.0
    # Detection-state checkpointing (repro.resilience): every N batches a
    # queue-backed worker snapshots its engine to checkpoint_dir.  0 = off.
    # checkpoint_dir=None with checkpointing on → a private temp dir,
    # created at start() and removed at stop().
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    # Active rule pack, as picklable primitives: pack_text is the DSL
    # source ("" = the shipped pack), pack_path its provenance
    # (compiled into per-rule source locations).  Carried in the config —
    # not as a compiled object — so process workers and post-reload
    # respawns all build engines under the *current* pack.
    pack_text: str = ""
    pack_path: str = ""
    # Cross-process tracing: the router derives a TraceContext per shard
    # key (head-based 1-in-N session sampling, deterministic across
    # processes) and workers record gated spans that merge into one
    # time-sorted timeline at stop().
    trace_enabled: bool = False
    trace_sample_rate: int = DEFAULT_TRACE_SAMPLE_RATE
    trace_max_spans: int = 250_000
    # When set, each queue-backed worker runs a sampling stack profiler
    # and writes worker-N.collapsed (flamegraph-ready) into this dir.
    profile_dir: str | None = None
    # Closed-loop overload control (repro.resilience.overload): the
    # router runs a per-tick hysteresis state machine (normal → brownout
    # → shed → recovering) plus a count-min-sketch per-source penalty
    # box, so floods shed the attacker's frames before an innocent
    # subscriber's signalling.  None = OverloadConfig defaults.
    overload_enabled: bool = False
    overload_config: OverloadConfig | None = None

    def validate(self) -> "ClusterConfig":
        if self.workers < 1:
            raise ClusterError(f"workers must be >= 1 (got {self.workers})")
        if self.backend not in BACKENDS:
            raise ClusterError(f"unknown backend {self.backend!r}; one of {BACKENDS}")
        if self.batch_size < 1:
            raise ClusterError(f"batch_size must be >= 1 (got {self.batch_size})")
        if self.queue_depth < 1:
            raise ClusterError(f"queue_depth must be >= 1 (got {self.queue_depth})")
        if self.overflow not in OVERFLOW_POLICIES:
            raise ClusterError(
                f"unknown overflow policy {self.overflow!r}; one of {OVERFLOW_POLICIES}"
            )
        if self.checkpoint_every < 0:
            raise ClusterError(
                f"checkpoint_every must be >= 0 (got {self.checkpoint_every})"
            )
        if self.trace_sample_rate < 1:
            raise ClusterError(
                f"trace_sample_rate must be >= 1 (got {self.trace_sample_rate})"
            )
        if self.trace_max_spans < 1:
            raise ClusterError(
                f"trace_max_spans must be >= 1 (got {self.trace_max_spans})"
            )
        if self.overload_config is not None:
            try:
                self.overload_config.validate()
            except ValueError as exc:
                raise ClusterError(str(exc)) from exc
        if self.pack_text:
            # Fail on the router, at construction — not inside N workers.
            _config_rulepack(self)
        return self


def _pack_errors(text: str, path: str) -> str:
    """Error-severity diagnostics for pack text, path-anchored, joined."""
    return "; ".join(
        str(issue) for issue in lint_text(text, path) if issue.severity == "error"
    )


def _config_rulepack(config: ClusterConfig) -> RulePack:
    """The rule pack a worker should compile, rebuilt from the config's
    picklable fields (no pack text or path = the shipped pack)."""
    if config.pack_text:
        path = config.pack_path or "<cluster-config>"
        pack, _ = parse_pack(config.pack_text, path)
        if pack is None:
            raise ClusterError(
                "config rule pack does not parse: "
                + _pack_errors(config.pack_text, path)
            )
        return pack
    if config.pack_path:
        return load_pack(config.pack_path)
    return core_pack()


def default_engine_factory(worker_id: int, config: ClusterConfig) -> ScidiveEngine:
    """Build one worker engine.  Module-level so ``process`` workers can
    pickle it; custom factories must be importable the same way."""
    rulepack = _config_rulepack(config)
    if config.metrics_enabled or config.trace_enabled:
        from repro import obs as _obs

        # With trace_enabled the worker runs a *gated* tracer: the
        # router's TraceContext (stamped per frame from the batch wire
        # format) decides which sessions record spans, and the worker
        # drains them back over the result queue at batch boundaries.
        return ScidiveEngine(
            vantage_ip=config.vantage_ip,
            vantage_mac=config.vantage_mac,
            name=f"worker-{worker_id}",
            observability=_obs.Observability.create(trace=config.trace_enabled),
            rulepack=rulepack,
        )
    return ScidiveEngine(
        vantage_ip=config.vantage_ip,
        vantage_mac=config.vantage_mac,
        name=f"worker-{worker_id}",
        metrics_enabled=False,
        rulepack=rulepack,
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _span_payload(spans, worker) -> list[dict]:
    """Spans → plain wire dicts, stamped with the recording worker."""
    out = []
    for span in spans:
        record = span.to_dict()
        record["worker"] = worker
        out.append(record)
    return out


def _engine_tracer(engine) -> Tracer | None:
    obs = getattr(engine, "observability", None)
    return getattr(obs, "tracer", None) if obs is not None else None


def _gate_tracer(engine, config: ClusterConfig) -> Tracer | None:
    """Configure a worker engine's tracer for cluster duty: gated on the
    router's per-frame TraceContext, bounded by the cluster config."""
    tracer = _engine_tracer(engine)
    if tracer is not None:
        tracer.gate = True
        tracer.context_parent = "queue-wait"
        tracer.max_spans = config.trace_max_spans
    return tracer


def _engine_report(
    worker_id: int,
    engine: ScidiveEngine,
    batches: int,
    owned: int,
    shadowed: int,
    worker_cpu_seconds: float = 0.0,
    restored: bool = False,
    checkpoints: int = 0,
) -> dict:
    """The worker's final payload: plain dicts + alert objects, so the
    transport never pickles engines or metric objects."""
    engine.snapshot_gauges()
    registry = engine.metrics_registry()
    tracer = _engine_tracer(engine)
    return {
        "worker_id": worker_id,
        "alerts": list(engine.alert_log.alerts),
        "stats": engine.stats.as_dict(),
        "shadow_stats": engine.shadow_stats.as_dict(),
        "batches": batches,
        "frames_owned": owned,
        "frames_shadowed": shadowed,
        "worker_cpu_seconds": worker_cpu_seconds,
        "restored": restored,
        "checkpoints": checkpoints,
        "metrics": registry.as_dict() if registry is not None else None,
        "spans": (
            _span_payload(tracer.drain(), worker_id) if tracer is not None else []
        ),
        "spans_dropped": tracer.dropped if tracer is not None else 0,
    }


def _checkpoint_path(config: ClusterConfig, worker_id: int) -> str | None:
    if not config.checkpoint_every or not config.checkpoint_dir:
        return None
    return os.path.join(config.checkpoint_dir, f"worker-{worker_id}.ckpt")


def _write_checkpoint(path: str, blob: bytes) -> None:
    """Atomic publish: a crash (even ``os._exit``) mid-write leaves the
    previous checkpoint intact, never a torn file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def _worker_main(worker_id, config, factory, in_q, out_q, hard_crash) -> None:
    """Worker loop: drain batches until ``stop``, then post the report.

    ``("crash", code)`` is the failure-injection hook: a ``process``
    worker dies with ``os._exit`` (no cleanup, like a real segfault or
    OOM kill); a ``threads`` worker just returns without reporting, the
    closest a thread gets to vanishing.

    With checkpointing on, a respawned worker finds its predecessor's
    snapshot on disk and restores it before touching the queue, so the
    batches that survived in the bounded queue resume against the state
    they were routed for.
    """
    engine = factory(worker_id, config)
    tracer = _gate_tracer(engine, config)
    profiler = None
    if config.profile_dir:
        from repro.obs.profile import StackSampler

        profiler = StackSampler()
        profiler.start()
    ckpt_path = _checkpoint_path(config, worker_id)
    restored = False
    checkpoints = 0
    if ckpt_path is not None and os.path.exists(ckpt_path):
        try:
            with open(ckpt_path, "rb") as fh:
                blob = fh.read()
            try:
                engine.restore(blob)
            except RulePackMismatch:
                # The snapshot predates (or postdates) a hot rule-pack
                # reload: the session/dialog state is still the shard's
                # history, so carry it across the version gate rather
                # than choosing amnesia.  Rule state rebinds by rule id
                # where shapes match; the rest starts cold.
                engine.restore(blob, force=True)
            restored = True
        except Exception:
            # Unusable snapshot (torn file from a pre-atomic era, version
            # drift): amnesia beats refusing to detect at all.
            pass
    batches = owned = shadowed = 0
    process_frame = engine.process_frame
    process_shadow = engine.process_frame_shadow
    # Scheduler-aware CPU accounting: a process worker timesharing a
    # core with its siblings must not bill descheduled time as busy
    # time, or the critical-path model degenerates on small machines.
    clock = _time.process_time if hard_crash else _time.thread_time
    cpu_start = clock()
    # One staged (epoch, RulePack) awaiting the router's commit.  Staging
    # is the worker's half of the two-phase reload barrier: parse and
    # pre-compile *now* (so the prepare-ack is a real promise the commit
    # cannot break), swap only on commit.
    staged_pack: tuple[int, RulePack] | None = None
    while True:
        message = in_q.get()
        kind = message[0]
        if kind == "batch":
            batches += 1
            if tracer is None:
                for frame, timestamp, is_owner, _tid in message[1]:
                    if is_owner:
                        process_frame(frame, timestamp)
                        owned += 1
                    else:
                        process_shadow(frame, timestamp)
                        shadowed += 1
            else:
                # Queue-wait: wall clock between the router's enqueue
                # stamp and this dequeue (wall time is the only clock
                # comparable across processes).
                wait = max(0.0, _time.time() - message[2])
                for frame, timestamp, is_owner, tid in message[1]:
                    tracer.context = tid
                    if is_owner:
                        if tid:
                            tracer.record(
                                "queue-wait", wait,
                                frame=engine.stats.frames + 1,
                                sim_time=timestamp, parent="route",
                            )
                        process_frame(frame, timestamp)
                        owned += 1
                    else:
                        process_shadow(frame, timestamp)
                        shadowed += 1
                tracer.context = ""
                if tracer.spans:
                    # Drain at the batch boundary: bounded worker memory,
                    # and FIFO ordering guarantees every spans message
                    # precedes this worker's final result.
                    out_q.put(
                        ("spans", worker_id,
                         _span_payload(tracer.drain(), worker_id))
                    )
            if ckpt_path is not None and batches % config.checkpoint_every == 0:
                _write_checkpoint(ckpt_path, engine.checkpoint())
                checkpoints += 1
        elif kind == "rules_prepare":
            _, epoch, pack_text, pack_path = message
            staged_pack = None
            pack, _ = parse_pack(pack_text, pack_path)
            if pack is None:
                errors = _pack_errors(pack_text, pack_path)
                out_q.put(("rules_ready", worker_id, epoch, False, errors))
            else:
                try:
                    # Compile once up front: an ok-ack must mean the
                    # commit cannot fail.
                    compile_pack(pack)
                except Exception as exc:
                    out_q.put(("rules_ready", worker_id, epoch, False, str(exc)))
                else:
                    staged_pack = (epoch, pack)
                    out_q.put(("rules_ready", worker_id, epoch, True, ""))
        elif kind == "rules_commit":
            epoch = message[1]
            if staged_pack is not None and staged_pack[0] == epoch:
                engine.load_rulepack(staged_pack[1])
                staged_pack = None
            out_q.put(("rules_done", worker_id, epoch))
        elif kind == "rules_abort":
            staged_pack = None
        elif kind == "stop":
            if profiler is not None:
                profiler.stop()
                os.makedirs(config.profile_dir, exist_ok=True)
                profiler.write_collapsed(
                    os.path.join(config.profile_dir,
                                 f"worker-{worker_id}.collapsed")
                )
            report = _engine_report(
                worker_id,
                engine,
                batches,
                owned,
                shadowed,
                clock() - cpu_start,
                restored,
                checkpoints,
            )
            out_q.put(("result", worker_id, report))
            return
        elif kind == "crash":
            if hard_crash:
                os._exit(message[1])
            return  # thread "crash": vanish without a report


class _QueueWorker:
    """Shared shape of the process and thread backends."""

    def __init__(self, worker_id, config, factory, out_q) -> None:
        self.worker_id = worker_id
        self.config = config
        self.factory = factory
        self.out_q = out_q
        self.restarts = 0
        # Set by the cluster when the restart budget is spent: the shard
        # is degraded, its batches fail over, and stop() skips it.
        self.dead = False
        self.in_q = self._make_queue(config.queue_depth)

    def _make_queue(self, depth):
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        raise NotImplementedError

    def respawn(self) -> None:
        """Restart on the *same* input queue: queued batches survive the
        crash; only the dead worker's accumulated state is lost."""
        self.restarts += 1
        self.start()

    def join(self, timeout: float) -> None:
        raise NotImplementedError


class _ProcessWorker(_QueueWorker):
    def __init__(self, worker_id, config, factory, out_q, ctx) -> None:
        self._ctx = ctx
        super().__init__(worker_id, config, factory, out_q)
        self._proc = None

    def _make_queue(self, depth):
        return self._ctx.Queue(maxsize=depth)

    def start(self) -> None:
        self._proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self.worker_id,
                self.config,
                self.factory,
                self.in_q,
                self.out_q,
                True,
            ),
            daemon=True,
            name=f"scidive-worker-{self.worker_id}",
        )
        self._proc.start()

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def join(self, timeout: float) -> None:
        if self._proc is not None:
            self._proc.join(timeout)


class _ThreadWorker(_QueueWorker):
    def __init__(self, worker_id, config, factory, out_q) -> None:
        super().__init__(worker_id, config, factory, out_q)
        self._thread = None

    def _make_queue(self, depth):
        return _queue.Queue(maxsize=depth)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=_worker_main,
            args=(
                self.worker_id,
                self.config,
                self.factory,
                self.in_q,
                self.out_q,
                False,
            ),
            daemon=True,
            name=f"scidive-worker-{self.worker_id}",
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def join(self, timeout: float) -> None:
        if self._thread is not None:
            self._thread.join(timeout)


class _SerialWorker:
    """The deterministic backend: batches execute at submit time."""

    def __init__(self, worker_id, config, factory) -> None:
        self.worker_id = worker_id
        self.restarts = 0
        self.dead = False  # serial workers cannot die; kept for symmetry
        self.engine = factory(worker_id, config)
        self._tracer = _gate_tracer(self.engine, config)
        self.batches = self.owned = self.shadowed = 0
        self.cpu_seconds = 0.0
        self.report: dict | None = None

    @property
    def alive(self) -> bool:
        return True

    def put(self, message) -> None:
        kind = message[0]
        if kind == "batch":
            cpu0 = _time.thread_time()
            self.batches += 1
            tracer = self._tracer
            for frame, timestamp, is_owner, tid in message[1]:
                if tracer is not None:
                    tracer.context = tid
                    if tid and is_owner:
                        # Inline execution: queue-wait is the (near-zero)
                        # gap between wire() and this put.
                        tracer.record(
                            "queue-wait",
                            max(0.0, _time.time() - message[2]),
                            frame=self.engine.stats.frames + 1,
                            sim_time=timestamp, parent="route",
                        )
                if is_owner:
                    self.engine.process_frame(frame, timestamp)
                    self.owned += 1
                else:
                    self.engine.process_frame_shadow(frame, timestamp)
                    self.shadowed += 1
            if tracer is not None:
                tracer.context = ""
            self.cpu_seconds += _time.thread_time() - cpu0
        elif kind == "stop":
            self.report = _engine_report(
                self.worker_id,
                self.engine,
                self.batches,
                self.owned,
                self.shadowed,
                self.cpu_seconds,
            )


# ---------------------------------------------------------------------------
# Cluster side
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ClusterStats:
    """What the router itself did (workers report their own numbers)."""

    frames_in: int = 0
    frames_routed: int = 0      # owner deliveries
    frames_replicated: int = 0  # shadow (broadcast) deliveries
    frames_dropped: int = 0
    batches_submitted: int = 0
    worker_restarts: int = 0
    router_seconds: float = 0.0
    frames_by_plane: dict = field(default_factory=dict)
    fragments_expired: int = 0
    # Graceful-degradation accounting: frames shed under queue pressure,
    # by plane (media sheds before signalling), and shards abandoned
    # after max_restarts.  Shed frames also count in frames_dropped.
    frames_shed: dict = field(default_factory=dict)
    # Penalty-box attribution: shed frames whose source was adjudicated
    # a heavy hitter, keyed by dotted-quad (bounded by the accountant's
    # candidate set, not by how many sources a flood spoofs).
    shed_by_source: dict = field(default_factory=dict)
    workers_dead: int = 0
    rulepack_reloads: int = 0
    # Cross-process tracing: spans discarded at any tracer's max_spans
    # bound (workers + router + the merge cap), summed at stop().
    spans_dropped: int = 0

    def as_dict(self) -> dict:
        return {
            "frames_in": self.frames_in,
            "frames_routed": self.frames_routed,
            "frames_replicated": self.frames_replicated,
            "frames_dropped": self.frames_dropped,
            "batches_submitted": self.batches_submitted,
            "worker_restarts": self.worker_restarts,
            "router_seconds": self.router_seconds,
            "frames_by_plane": dict(self.frames_by_plane),
            "fragments_expired": self.fragments_expired,
            "frames_shed": dict(self.frames_shed),
            "shed_by_source": dict(self.shed_by_source),
            "workers_dead": self.workers_dead,
            "rulepack_reloads": self.rulepack_reloads,
            "spans_dropped": self.spans_dropped,
        }


@dataclass(slots=True)
class WorkerReport:
    """One worker's final accounting, normalised from the wire payload."""

    worker_id: int
    alerts: list
    stats: EngineStats
    shadow_stats: EngineStats
    batches: int = 0
    frames_owned: int = 0
    frames_shadowed: int = 0
    restarts: int = 0
    crashed: bool = False
    worker_cpu_seconds: float = 0.0
    restored: bool = False     # resumed from a detection-state checkpoint
    checkpoints: int = 0       # snapshots written by this worker's last life
    metrics: dict | None = None
    spans: list = field(default_factory=list)  # final-report span records
    spans_dropped: int = 0

    @property
    def busy_seconds(self) -> float:
        """CPU spent on owned plus shadow work — this worker's share of
        the cluster's critical path.

        Prefers the worker's scheduler-aware self-measurement
        (``process_time``/``thread_time``), which does not count time
        the worker spent descheduled while siblings shared a core; the
        engine's wall-clock ``cpu_seconds`` is the fallback."""
        if self.worker_cpu_seconds > 0:
            return self.worker_cpu_seconds
        return self.stats.cpu_seconds + self.shadow_stats.cpu_seconds

    @classmethod
    def from_payload(cls, payload: dict, restarts: int) -> "WorkerReport":
        return cls(
            worker_id=payload["worker_id"],
            alerts=list(payload["alerts"]),
            stats=EngineStats.from_dict(payload["stats"]),
            shadow_stats=EngineStats.from_dict(payload["shadow_stats"]),
            batches=payload["batches"],
            frames_owned=payload["frames_owned"],
            frames_shadowed=payload["frames_shadowed"],
            restarts=restarts,
            worker_cpu_seconds=payload.get("worker_cpu_seconds", 0.0),
            restored=payload.get("restored", False),
            checkpoints=payload.get("checkpoints", 0),
            metrics=payload.get("metrics"),
            spans=list(payload.get("spans", ())),
            spans_dropped=payload.get("spans_dropped", 0),
        )

    @classmethod
    def crashed_report(cls, worker_id: int, restarts: int) -> "WorkerReport":
        return cls(
            worker_id=worker_id,
            alerts=[],
            stats=EngineStats(),
            shadow_stats=EngineStats(),
            restarts=restarts,
            crashed=True,
        )


@dataclass(slots=True)
class ClusterResult:
    """The merged cluster-level view a single engine would have given."""

    alerts: list
    stats: EngineStats
    shadow_stats: EngineStats
    cluster: ClusterStats
    workers: list
    registry: MetricsRegistry | None = None
    # Merged, time-sorted cross-process span timeline (None = tracing off).
    trace: list | None = None

    def alert_multiset(self) -> "collections.Counter[Alert]":
        """Order-insensitive alert comparison (Alert equality already
        excludes the events payload)."""
        return collections.Counter(self.alerts)

    def critical_path_seconds(self) -> float:
        """The modeled parallel wall-clock: the busiest worker bounds the
        sharded stage and the (serial) router bounds distribution."""
        busiest = max((w.busy_seconds for w in self.workers), default=0.0)
        return max(busiest, self.cluster.router_seconds)

    def modeled_frames_per_second(self) -> float:
        path = self.critical_path_seconds()
        return self.cluster.frames_in / path if path > 0 else 0.0


class ScidiveCluster:
    """Session-sharded parallel SCIDIVE.

    Usage::

        cluster = ScidiveCluster(workers=4, vantage_ip="10.0.0.10")
        result = cluster.process_trace(trace)
        assert result.alert_multiset() == single_engine_multiset

    or incrementally::

        with ScidiveCluster(workers=2, backend="threads") as cluster:
            for record in trace:
                cluster.submit_frame(record.frame, record.timestamp)
        result = cluster.result
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        engine_factory=default_engine_factory,
        **overrides,
    ) -> None:
        config = config if config is not None else ClusterConfig()
        if overrides:
            config = replace(config, **overrides)
        self.config = config.validate()
        self.engine_factory = engine_factory
        self.sharder = SessionSharder()
        self.cluster_stats = ClusterStats()
        self.result: ClusterResult | None = None
        self._workers: list = []
        self._pending: list[list] = []
        self._out_q = None
        self._started = False
        self._stopped = False
        # Serial workers execute inline; their CPU must not be billed to
        # the router when computing the critical path.
        self._inline_seconds = 0.0
        # Wall clock of the last submitted frame, for /healthz liveness.
        self._last_submit_monotonic: float | None = None
        # Trace time of the last submitted frame: self-diagnostic alerts
        # are stamped with it so they sort into the merged timeline.
        self._last_submit_ts = 0.0
        # Router-raised self-diagnostic alerts (dead shards), merged into
        # the result alongside the workers' detection alerts.
        self.self_alerts: list[Alert] = []
        # Set when start() had to create a private checkpoint temp dir;
        # stop() removes it.
        self._own_checkpoint_dir: str | None = None
        # Rule-pack hot reload: the active pack (the shipped one unless
        # the config names another) and a monotonically increasing
        # reload epoch — every two-phase barrier round gets a fresh
        # epoch so late acks from an aborted round can never satisfy a
        # newer one.
        self.rulepack: RulePack = _config_rulepack(self.config)
        self._rules_epoch = 0
        # Cross-process tracing (router half): the router records "route"
        # spans into its own tracer, caches per-shard-key sampling
        # decisions, and accumulates worker span payloads drained over
        # the result queue until stop() merges everything.
        self._tracer = (
            Tracer(max_spans=self.config.trace_max_spans)
            if self.config.trace_enabled
            else None
        )
        self._trace_ids: dict = {}
        self._worker_spans: list[dict] = []
        self._router_spans_dropped = 0
        # Overload control plane (router half): the controller ticks in
        # submit_frame, its transition alerts land in self_alerts, and
        # the accountant's heavy-hitter verdicts guard every shed.
        self.overload: OverloadController | None = None
        self.accountant: SourceAccountant | None = None
        if self.config.overload_enabled:
            ocfg = self.config.overload_config or OverloadConfig()
            self.overload = OverloadController(
                config=ocfg, name="cluster", emit_alert=self.self_alerts.append
            )
            self.accountant = SourceAccountant(ocfg)
        # Serial-backend brownout: saved (cost_sample_rate, summary_sample)
        # per inline engine, restored when the controller heals to normal.
        self._degraded_knobs: list[tuple] | None = None
        # frames_dropped high-water at the last controller tick, so each
        # tick sees only its own window's shed rate.
        self._tick_dropped = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> "ScidiveCluster":
        if self._started:
            return self
        config = self.config
        if config.checkpoint_every and config.backend != "serial":
            if config.checkpoint_dir is None:
                self._own_checkpoint_dir = _tempfile.mkdtemp(prefix="scidive-ckpt-")
                config = replace(config, checkpoint_dir=self._own_checkpoint_dir)
                self.config = config
            else:
                os.makedirs(config.checkpoint_dir, exist_ok=True)
                # A previous run's snapshots would resurrect foreign state
                # into worker 0..N of *this* run.
                for stale in _glob.glob(
                    os.path.join(config.checkpoint_dir, "worker-*.ckpt")
                ):
                    os.unlink(stale)
        n = config.workers
        self._pending = [[] for _ in range(n)]
        if config.backend == "serial":
            self._workers = [
                _SerialWorker(i, config, self.engine_factory) for i in range(n)
            ]
        elif config.backend == "threads":
            self._out_q = _queue.Queue()
            self._workers = [
                _ThreadWorker(i, config, self.engine_factory, self._out_q)
                for i in range(n)
            ]
        else:
            ctx = _mp.get_context()
            self._out_q = ctx.Queue()
            self._workers = [
                _ProcessWorker(i, config, self.engine_factory, self._out_q, ctx)
                for i in range(n)
            ]
        if config.backend != "serial":
            for worker in self._workers:
                worker.start()
        self._started = True
        return self

    def __enter__(self) -> "ScidiveCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._stopped:
            self.stop()

    # -- ingestion ------------------------------------------------------------

    def submit_frame(self, frame: bytes, timestamp: float) -> None:
        """Route one frame (both offline replay and live taps call this)."""
        if not self._started:
            self.start()
        stats = self.cluster_stats
        # thread_time: router CPU only — neither backpressure sleeps nor
        # sibling processes timesharing the core count as router work.
        t0 = _time.thread_time()
        inline0 = self._inline_seconds
        self._last_submit_monotonic = _time.monotonic()
        self._last_submit_ts = timestamp
        stats.frames_in += 1
        overload = self.overload
        if overload is not None:
            source = bytes(frame[26:30]) if len(frame) >= 34 else b""
            self.accountant.record(source)
            if stats.frames_in % overload.config.tick_frames == 0:
                self._overload_tick(timestamp)
            if overload.shedding and self.accountant.is_heavy(source):
                # Penalty box: in shed state an adjudicated-heavy source
                # loses frames at the router door — every plane,
                # signalling included, because a flooding source's
                # INVITEs *are* the flood.  Innocent sources never take
                # this path.
                stats.frames_dropped += 1
                stats.frames_shed["penalty-box"] = (
                    stats.frames_shed.get("penalty-box", 0) + 1
                )
                ip = format_source(source)
                stats.shed_by_source[ip] = stats.shed_by_source.get(ip, 0) + 1
                stats.router_seconds += _time.thread_time() - t0
                return
        n = self.config.workers
        tracer = self._tracer
        routed: list[tuple[str, str, int]] = []
        for key, frames in self.sharder.route(frame, timestamp):
            plane = key.plane
            stats.frames_by_plane[plane] = (
                stats.frames_by_plane.get(plane, 0) + len(frames)
            )
            owner = shard_index(key, n)
            tid = "" if tracer is None else self._trace_id(key)
            if key.broadcast and n > 1:
                for wid in range(n):
                    self._append(wid, frames, wid == owner, plane, tid)
            else:
                self._append(owner, frames, True, plane, tid)
            if tid:
                routed.append((tid, plane, owner))
        elapsed = _time.thread_time() - t0 - (self._inline_seconds - inline0)
        stats.router_seconds += elapsed
        if routed:
            # The root span of every sampled journey: one per routing
            # decision, carrying the owner shard the session hashed to.
            for tid, plane, owner in routed:
                tracer.record(
                    "route", elapsed, frame=stats.frames_in,
                    sim_time=timestamp, trace_id=tid, parent="",
                    worker=owner, plane=plane,
                )

    def _trace_id(self, key) -> str:
        """Cached head-based sampling decision for one shard key
        ("" = session not sampled)."""
        cached = self._trace_ids.get(key)
        if self.overload is not None and self.overload.degraded:
            # Brownout sheds optional work first: no *new* sessions start
            # sampling while degraded (already-sampled sessions keep
            # their spans; the un-cached decision is retaken after the
            # controller heals).
            return cached or ""
        if cached is None:
            cached = TraceContext.for_session(
                key.canon(), self.config.trace_sample_rate
            ).trace_id
            self._trace_ids[key] = cached
        return cached

    def _append(
        self, wid: int, frames, is_owner: bool, plane: str, tid: str = ""
    ) -> None:
        stats = self.cluster_stats
        if is_owner:
            stats.frames_routed += len(frames)
        else:
            stats.frames_replicated += len(frames)
        pending = self._pending[wid]
        # Pending items carry their plane so the overflow path can shed
        # media before signalling (plane stays at index 3), plus the
        # session's trace id; the wire keeps only what workers need.
        pending.extend((frame, ts, is_owner, plane, tid) for frame, ts in frames)
        batch_size = self.config.batch_size
        while len(pending) >= batch_size:
            self._submit_batch(wid, pending[:batch_size])
            del pending[:batch_size]

    @staticmethod
    def _wire(items: list) -> tuple:
        """Strip the router-only plane tag: workers see ``(frame, ts,
        owner, trace_id)`` plus the batch's wall-clock enqueue stamp
        (queue-wait = dequeue time − stamp)."""
        return (
            "batch",
            [(frame, ts, owner, tid) for frame, ts, owner, _plane, tid in items],
            _time.time(),
        )

    def _submit_batch(self, wid: int, items: list) -> None:
        stats = self.cluster_stats
        worker = self._workers[wid]
        if isinstance(worker, _SerialWorker):
            t0 = _time.perf_counter()
            worker.put(self._wire(items))
            self._inline_seconds += _time.perf_counter() - t0
            stats.batches_submitted += 1
            return
        if self.config.overflow == "drop":
            try:
                worker.in_q.put_nowait(self._wire(items))
            except _queue.Full:
                # Queue pressure: shed the media/other planes, then fight
                # for the signalling remainder — a lost RTP packet costs
                # one sample, a lost BYE silences a dialog's detection.
                items = self._shed_under_pressure(worker, items)
                if not items:
                    return
            else:
                stats.batches_submitted += 1
                return
        self._deliver_blocking(worker, items)

    def _shed_non_signalling(self, items: list) -> list:
        """Drop every non-signalling item, with per-plane accounting;
        returns the signalling-plane remainder."""
        stats = self.cluster_stats
        kept = []
        for item in items:
            plane = item[3]
            if plane == PLANE_SIGNALLING:
                kept.append(item)
            else:
                stats.frames_shed[plane] = stats.frames_shed.get(plane, 0) + 1
                stats.frames_dropped += 1
        return kept

    def _shed_under_pressure(self, worker, items: list) -> list:
        """One queue-full shedding round; returns what must still be
        delivered blocking (possibly empty if a retry landed).

        Without the overload plane this is the legacy all-or-nothing
        media shed.  With it, the penalty box stages the drops — heavy
        non-signalling, then innocent non-signalling, then (only in
        ``shed`` state) heavy signalling — retrying the queue between
        stages so each escalation only happens if the previous one did
        not relieve the pressure.  Innocent signalling is never staged.
        """
        stats = self.cluster_stats
        if self.overload is None or self.accountant is None:
            return self._shed_non_signalling(items)
        accountant = self.accountant
        stages, _protected = shed_plan(
            items,
            is_heavy=lambda item: accountant.is_heavy(bytes(item[0][26:30])),
            is_signalling=lambda item: item[3] == PLANE_SIGNALLING,
            allow_heavy_signalling=self.overload.shedding,
        )
        remaining = list(items)
        for stage in stages:
            if not stage:
                continue
            dropped = {id(item) for item in stage}
            for item in stage:
                plane = item[3]
                stats.frames_shed[plane] = stats.frames_shed.get(plane, 0) + 1
                stats.frames_dropped += 1
                source = bytes(item[0][26:30])
                if accountant.is_heavy(source):
                    ip = format_source(source)
                    stats.shed_by_source[ip] = (
                        stats.shed_by_source.get(ip, 0) + 1
                    )
            remaining = [item for item in remaining if id(item) not in dropped]
            if not remaining:
                return []
            try:
                worker.in_q.put_nowait(self._wire(remaining))
            except _queue.Full:
                continue
            stats.batches_submitted += 1
            return []
        return remaining

    def _deliver_blocking(self, worker, items: list) -> None:
        """Bounded-blocking put with failover: backpressure while the
        worker lives, reroute to the next live shard once it is declared
        dead, shed only when every worker is gone (drop policy) or raise
        (block policy — the producer asked to be wedged rather than lose
        frames, but an IDS with zero live engines cannot honour that)."""
        stats = self.cluster_stats
        message = self._wire(items)
        while True:
            if not self._ensure_alive(worker):
                fallback = self._failover_target(worker.worker_id)
                if fallback is None:
                    if self.config.overflow == "drop":
                        for item in items:
                            plane = item[3]
                            shed = stats.frames_shed.get(plane, 0)
                            stats.frames_shed[plane] = shed + 1
                        stats.frames_dropped += len(items)
                        return
                    raise ClusterError(
                        "every worker exhausted max_restarts="
                        f"{self.config.max_restarts}; no shard left to detect"
                    )
                worker = self._workers[fallback]
                continue
            try:
                worker.in_q.put(message, timeout=0.05)
                stats.batches_submitted += 1
                return
            except _queue.Full:
                continue

    def _ensure_alive(self, worker) -> bool:
        """True if the worker can take work (respawning it if needed);
        False once its restart budget is spent — the shard is then marked
        dead (queue drained, self-diagnostic alert raised) instead of
        killing the whole run."""
        if worker.dead:
            return False
        if worker.alive:
            return True
        if worker.restarts >= self.config.max_restarts:
            self._mark_dead(worker)
            return False
        worker.respawn()
        self.cluster_stats.worker_restarts += 1
        return True

    def _failover_target(self, wid: int) -> int | None:
        """The next shard (ring order) not yet declared dead."""
        n = self.config.workers
        for step in range(1, n):
            candidate = self._workers[(wid + step) % n]
            if not candidate.dead:
                return candidate.worker_id
        return None

    def _mark_dead(self, worker) -> None:
        """Degrade one shard: drain what its queue still holds (counted
        as dropped), raise a CRITICAL self-diagnostic alert, and leave
        the remaining shards detecting.  Broadcast signalling means the
        survivors already hold this shard's session state in shadow, so
        failed-over owner batches land on a warm engine."""
        worker.dead = True
        stats = self.cluster_stats
        stats.workers_dead += 1
        drained = 0
        while True:
            try:
                message = worker.in_q.get_nowait()
            except _queue.Empty:
                break
            if message[0] == "batch":
                drained += len(message[1])
        stats.frames_dropped += drained
        self.self_alerts.append(
            Alert(
                rule_id=WORKER_DEAD_RULE_ID,
                rule_name="self-diagnostic: worker shard degraded",
                time=self._last_submit_ts,
                session=f"worker-{worker.worker_id}",
                severity=Severity.CRITICAL,
                attack_class="self-diagnostic",
                message=(
                    f"worker {worker.worker_id} abandoned after "
                    f"{worker.restarts} restarts (max_restarts="
                    f"{self.config.max_restarts}); {drained} queued frames "
                    f"dropped, owner batches failing over to surviving shards"
                ),
            )
        )

    def flush(self) -> None:
        """Push all partially-filled batches to the workers."""
        for wid, pending in enumerate(self._pending):
            if pending:
                self._submit_batch(wid, pending)
                self._pending[wid] = []

    def inject_crash(self, worker_id: int, exit_code: int = 13) -> None:
        """Failure injection (tests): make one worker die mid-stream."""
        if self.config.backend == "serial":
            raise ClusterError("serial backend has no workers to crash")
        worker = self._workers[worker_id]
        worker.in_q.put(("crash", exit_code))

    # -- overload control -------------------------------------------------------

    def _overload_tick(self, timestamp: float) -> None:
        """One controller observation: worst queue fill across workers,
        the budget burn rate where the engines are in-process, and the
        tick window's shed rate (drops while shedding works must still
        read as pressure — the penalty box keeps the queues empty)."""
        dropped = self.cluster_stats.frames_dropped
        shed_rate = (dropped - self._tick_dropped) / self.overload.config.tick_frames
        self._tick_dropped = dropped
        self.overload.observe(
            timestamp,
            queue_fill=self._queue_fill(),
            burn_rate=self._inline_burn_rate(),
            shed_rate=shed_rate,
            top_sources=self.accountant.top_sources(),
        )
        self._apply_degradation()

    def _queue_fill(self) -> float:
        """Worst per-worker input-queue fill fraction (0..1)."""
        depth = self.config.queue_depth
        worst = 0
        for worker in self._workers:
            in_q = getattr(worker, "in_q", None)
            if in_q is None:
                continue
            try:
                size = in_q.qsize()
            except NotImplementedError:  # pragma: no cover - macOS mp queues
                continue
            if size > worst:
                worst = size
        return min(1.0, worst / depth)

    def _inline_burn_rate(self) -> float:
        """Latency-budget burn where it is observable: the serial backend
        runs engines in-process; queued backends drive on fill alone."""
        if self.config.backend != "serial":
            return 0.0
        worst = 0.0
        for worker in self._workers:
            budget = getattr(worker.engine, "latency_budget", None)
            if budget is not None and budget.burn_rate > worst:
                worst = budget.burn_rate
        return worst

    def _apply_degradation(self) -> None:
        """Brownout policy for in-process engines: floor the per-frame
        optional work (rule cost sampling off, summary sketches widened)
        while degraded, heal the saved rates on the return to normal.
        Queued backends get the router-side half only (trace sampling
        suppression in :meth:`_trace_id`)."""
        if self.config.backend != "serial":
            return
        degraded = self.overload.degraded
        if degraded and self._degraded_knobs is None:
            saved = []
            for worker in self._workers:
                engine = worker.engine
                ruleset = getattr(engine, "ruleset", None)
                instr = getattr(engine, "_instr", None)
                saved.append(
                    (
                        ruleset.cost_sample_rate if ruleset is not None else 0,
                        instr.summary_sample if instr is not None else 1,
                    )
                )
                if ruleset is not None:
                    ruleset.cost_sample_rate = 0
                if instr is not None:
                    instr.summary_sample = max(instr.summary_sample, 64)
            self._degraded_knobs = saved
        elif not degraded and self._degraded_knobs is not None:
            for worker, (cost_rate, summary) in zip(
                self._workers, self._degraded_knobs
            ):
                engine = worker.engine
                ruleset = getattr(engine, "ruleset", None)
                instr = getattr(engine, "_instr", None)
                if ruleset is not None:
                    ruleset.cost_sample_rate = cost_rate
                if instr is not None:
                    instr.summary_sample = summary
            self._degraded_knobs = None

    def overload_status(self) -> dict | None:
        """The /healthz and ``repro stats`` view (None = plane disabled)."""
        if self.overload is None:
            return None
        view = self.overload.as_dict()
        view["sources"] = self.accountant.as_dict()
        view["shed_by_source"] = dict(self.cluster_stats.shed_by_source)
        return view

    # -- rule-pack hot reload ---------------------------------------------------

    def reload_rulepack(self, pack) -> RulePack:
        """Atomically swap every worker onto a new rule pack, mid-stream.

        ``pack`` is a :class:`~repro.rulespec.RulePack` or a path to a
        ``.rules`` file.  Two-phase epoch barrier over the existing
        control path:

        1. **prepare** — pending batches are flushed, then every live
           worker receives ``("rules_prepare", epoch, text, path)``.
           Input queues are FIFO, so a worker's ready-ack implies every
           batch routed before the reload was already evaluated under
           the old pack.  Workers parse *and pre-compile* the staged
           pack but keep detecting with the old one.
        2. **commit** — only once every worker acked ok does the router
           send ``("rules_commit", epoch)``; each worker swaps via
           :meth:`~repro.core.engine.ScidiveEngine.load_rulepack`
           (detection state carries over by rule id) and acks done.  Any
           staging failure aborts the epoch on all shards and raises
           :class:`ClusterError`, leaving the old pack live everywhere.

        The router submits no frames while this method runs, so no frame
        is ever evaluated under a mixed pack set and none are dropped.
        The config is rewritten too, so workers respawned after a later
        crash build under the *new* pack (their checkpoint restore
        crosses the pack-version gate with ``force=True``).
        """
        if not isinstance(pack, RulePack):
            pack = load_pack(os.fspath(pack))
        if self._stopped:
            raise ClusterError("cluster already stopped; cannot reload rules")
        if not self._started:
            self.start()
        # describe() fallback: a hand-built pack with no source text
        # still crosses the wire in its canonical form.
        text = pack.source_text or pack.describe()
        path = pack.source_path or "<reload>"
        self._rules_epoch += 1
        epoch = self._rules_epoch
        self.flush()
        if self.config.backend == "serial":
            for worker in self._workers:
                worker.engine.load_rulepack(pack)
        else:
            self._reload_queued(epoch, text, path)
        self.rulepack = pack
        self.config = replace(self.config, pack_text=text, pack_path=path)
        # Workers respawn from the config *they* hold (respawn() →
        # start() → _worker_main(worker.config)), so rebind every worker
        # to the updated config: a crash after this reload must rebuild
        # under the new pack, not the one the worker was spawned with.
        if self.config.backend != "serial":
            for worker in self._workers:
                worker.config = self.config
        self.cluster_stats.rulepack_reloads += 1
        return pack

    def _reload_queued(self, epoch: int, text: str, path: str) -> None:
        """Drive the prepare/commit barrier for the queue-backed backends."""
        live = [worker for worker in self._workers if not worker.dead]
        if not live:
            raise ClusterError("every worker shard is dead; cannot reload rules")
        prepare = ("rules_prepare", epoch, text, path)
        for worker in live:
            self._send_control(worker, prepare)
        readies = self._collect_acks("rules_ready", epoch, live, resend=(prepare,))
        failures = {
            wid: ack[1]
            for wid, ack in readies.items()
            if ack is not None and not ack[0]
        }
        if failures:
            abort = ("rules_abort", epoch)
            for worker in live:
                if not worker.dead and worker.alive:
                    self._send_control(worker, abort)
            detail = "; ".join(
                f"worker {wid}: {error}" for wid, error in sorted(failures.items())
            )
            raise ClusterError(f"rule-pack reload rejected at prepare: {detail}")
        survivors = [worker for worker in live if not worker.dead]
        commit = ("rules_commit", epoch)
        for worker in survivors:
            self._send_control(worker, commit)
        self._collect_acks("rules_done", epoch, survivors, resend=(prepare, commit))

    def _send_control(self, worker, message: tuple) -> None:
        """Blocking control-plane put: backpressure while the worker
        drains its queue; a death mid-put is left to the ack collector,
        which respawns and re-sends."""
        while True:
            try:
                worker.in_q.put(message, timeout=0.05)
                return
            except _queue.Full:
                if not worker.alive:
                    return

    def _collect_acks(self, kind, epoch, workers, resend) -> dict:
        """Gather one ``(kind, wid, epoch, ...)`` ack per worker.

        A worker that dies mid-barrier is respawned (fresh engine from
        the config, still the *old* pack) and the ``resend`` messages
        are replayed to it; one whose restart budget is spent is marked
        dead and recorded with a ``None`` ack — the barrier degrades
        with the shard instead of wedging.  Stray messages (acks from an
        aborted epoch, a respawned worker's extra ready during the done
        phase) are discarded by the kind/epoch filter.

        The deadline is checked on *every* loop iteration (a steady
        stream of stray messages must not defer the timeout forever) and
        is re-armed whenever a worker is respawned mid-barrier: a cold
        process start plus checkpoint restore plus replayed barrier
        messages deserves a fresh ack window rather than inheriting
        whatever sliver the original deadline has left.
        """
        stats = self.cluster_stats
        pending = {worker.worker_id: worker for worker in workers}
        acks: dict[int, tuple | None] = {}
        deadline = _time.monotonic() + self.config.result_timeout
        while pending:
            if _time.monotonic() > deadline:
                raise ClusterError(
                    f"timed out waiting for {kind} acks: {sorted(pending)}"
                )
            try:
                message = self._out_q.get(timeout=0.1)
            except _queue.Empty:
                message = None
            if message is not None:
                if message[0] == "spans":
                    # Span drains interleave with control acks on the one
                    # result queue; bank them for the stop()-time merge.
                    self._worker_spans.extend(message[2])
                    continue
                if (
                    message[0] == kind
                    and message[2] == epoch
                    and message[1] in pending
                ):
                    wid = message[1]
                    pending.pop(wid)
                    acks[wid] = tuple(message[3:])
                continue
            for wid, worker in list(pending.items()):
                if worker.alive:
                    continue
                if worker.restarts < self.config.max_restarts:
                    worker.respawn()
                    stats.worker_restarts += 1
                    for msg in resend:
                        self._send_control(worker, msg)
                    deadline = _time.monotonic() + self.config.result_timeout
                else:
                    self._mark_dead(worker)
                    pending.pop(wid)
                    acks[wid] = None
        return acks

    # -- shutdown -------------------------------------------------------------

    def stop(self) -> ClusterResult:
        """Graceful shutdown: flush partial batches, let every worker
        drain its queue, collect reports, merge."""
        if self._stopped:
            assert self.result is not None
            return self.result
        if not self._started:
            self.start()
        try:
            self.flush()
        except ClusterError:
            # Every shard is dead: whatever is still pending can no
            # longer be detected.  stop() must always yield the degraded
            # report (dead-worker alerts, drop accounting) — raising
            # here would hide the very forensics the caller needs.
            for wid, pending in enumerate(self._pending):
                self.cluster_stats.frames_dropped += len(pending)
                self._pending[wid] = []
        reports = (
            self._stop_serial()
            if self.config.backend == "serial"
            else self._stop_queued()
        )
        self.cluster_stats.fragments_expired = self.sharder.fragments_expired
        self._stopped = True
        self.result = self._merge(reports)
        if self._own_checkpoint_dir is not None:
            _shutil.rmtree(self._own_checkpoint_dir, ignore_errors=True)
            self._own_checkpoint_dir = None
        return self.result

    def _stop_serial(self) -> dict:
        reports = {}
        for worker in self._workers:
            worker.put(("stop",))
            reports[worker.worker_id] = (worker.report, worker.restarts)
        return reports

    def _stop_queued(self) -> dict:
        reports: dict = {}
        for worker in self._workers:
            if worker.dead:
                # Degraded mid-run: nothing will ever report for it.
                reports[worker.worker_id] = (None, worker.restarts)
            else:
                self._send_stop(worker)
        pending = {
            worker.worker_id: worker
            for worker in self._workers
            if not worker.dead
        }
        deadline = _time.monotonic() + self.config.result_timeout
        while pending:
            try:
                message = self._out_q.get(timeout=0.1)
            except _queue.Empty:
                pass
            else:
                if message[0] == "spans":
                    self._worker_spans.extend(message[2])
                elif message[0] == "result":
                    wid, payload = message[1], message[2]
                    worker = pending.pop(wid, None)
                    if worker is not None:
                        reports[wid] = (payload, worker.restarts)
                # Anything else (a late barrier ack) is stray: ignore.
                continue
            for wid, worker in list(pending.items()):
                if worker.alive:
                    continue
                # Died before reporting.  Respawn so it can drain what is
                # still queued (a fresh stop chases the queue); give up on
                # it once the restart budget is spent.
                if worker.restarts < self.config.max_restarts:
                    worker.respawn()
                    self.cluster_stats.worker_restarts += 1
                    self._send_stop(worker)
                else:
                    reports[wid] = (None, worker.restarts)
                    del pending[wid]
            if _time.monotonic() > deadline:
                raise ClusterError(
                    f"timed out waiting for worker reports: {sorted(pending)}"
                )
        for worker in self._workers:
            worker.join(timeout=1.0)
        return reports

    def _send_stop(self, worker) -> None:
        while True:
            try:
                worker.in_q.put(("stop",), timeout=0.05)
                return
            except _queue.Full:
                if not worker.alive:
                    # Dead with a full queue: the respawn path in
                    # _stop_queued will retry after the restart.
                    return

    def _merge(self, reports: dict) -> ClusterResult:
        worker_reports = []
        for wid in sorted(reports):
            payload, restarts = reports[wid]
            if payload is None:
                worker_reports.append(WorkerReport.crashed_report(wid, restarts))
            else:
                worker_reports.append(WorkerReport.from_payload(payload, restarts))
        alerts = [alert for report in worker_reports for alert in report.alerts]
        alerts.extend(self.self_alerts)
        alerts.sort(key=lambda alert: alert.time)
        stats = EngineStats.merged([report.stats for report in worker_reports])
        shadow = EngineStats.merged([report.shadow_stats for report in worker_reports])
        trace = None
        if self._tracer is not None:
            trace = self._merge_trace(worker_reports)
        registry = None
        if self.config.metrics_enabled:
            registry = MetricsRegistry()
            for report in worker_reports:
                if report.metrics is not None:
                    registry.merge_dict(report.metrics)
            self._cluster_metrics(registry)
        return ClusterResult(
            alerts=alerts,
            stats=stats,
            shadow_stats=shadow,
            cluster=self.cluster_stats,
            workers=worker_reports,
            registry=registry,
            trace=trace,
        )

    def _merge_trace(self, worker_reports: list) -> list[dict]:
        """One time-sorted timeline: banked batch-boundary drains + each
        worker's final-report remainder + the router's route spans."""
        records = list(self._worker_spans)
        for report in worker_reports:
            records.extend(report.spans)
        records.extend(_span_payload(self._tracer.drain(), "router"))
        merged = sort_timeline(records)
        dropped = self._tracer.dropped
        overflow = len(merged) - self.config.trace_max_spans
        if overflow > 0:
            # The merged timeline honours the same bound as any single
            # tracer; keep the head (earliest journeys stay complete).
            merged = merged[: self.config.trace_max_spans]
            dropped += overflow
        # Router-attributed drops (for the engine="router" counter child:
        # workers already count their own in their merged registries).
        self._router_spans_dropped = dropped
        self.cluster_stats.spans_dropped = dropped + sum(
            report.spans_dropped for report in worker_reports
        )
        self._worker_spans = []
        return merged

    def _cluster_metrics(self, registry: MetricsRegistry) -> None:
        """Router-side families, alongside the merged worker metrics."""
        stats = self.cluster_stats
        registry.counter(
            "scidive_cluster_worker_restarts_total",
            "Workers respawned after crash detection",
        ).inc(stats.worker_restarts)
        registry.counter(
            "scidive_cluster_frames_dropped_total",
            "Frames shed by the drop overflow policy",
        ).inc(stats.frames_dropped)
        routed = registry.counter(
            "scidive_cluster_frames_routed_total",
            "Frames delivered to workers",
            labelnames=("plane",),
        )
        for plane, count in stats.frames_by_plane.items():
            routed.labels(plane=plane).inc(count)
        shed = registry.counter(
            "scidive_cluster_shed_total",
            "Frames shed under queue pressure (media degrades first)",
            labelnames=("plane",),
        )
        for plane, count in stats.frames_shed.items():
            shed.labels(plane=plane).inc(count)
        registry.gauge(
            "scidive_cluster_workers", "Configured worker count"
        ).set(self.config.workers)
        registry.gauge(
            "scidive_cluster_workers_dead",
            "Shards abandoned after exhausting max_restarts",
        ).set(stats.workers_dead)
        registry.counter(
            "scidive_cluster_rulepack_reloads_total",
            "Hot rule-pack reloads coordinated by the router",
        ).inc(stats.rulepack_reloads)
        if self.overload is not None:
            registry.gauge(
                "scidive_overload_state",
                "Overload controller state "
                "(0=normal 1=brownout 2=shed 3=recovering)",
            ).set(STATE_VALUES[self.overload.state])
            transitions = registry.counter(
                "scidive_overload_transitions_total",
                "Overload controller state transitions",
                labelnames=("transition",),
            )
            for key, count in self.overload.transitions_total.items():
                transitions.labels(transition=key).inc(count)
            by_source = registry.counter(
                "scidive_shed_by_source_total",
                "Shed frames attributed to heavy-hitter sources",
                labelnames=("source",),
            )
            for ip, count in stats.shed_by_source.items():
                by_source.labels(source=ip).inc(count)
        if self._tracer is not None:
            # Same family/help as the workers' instrument counter, so a
            # merged scrape sums drops across the whole cluster; the
            # router child carries router + merge-cap drops only.
            dropped = max(self._router_spans_dropped, self._tracer.dropped)
            registry.counter(
                "scidive_spans_dropped_total",
                "Spans discarded at the tracer's max_spans bound",
                labelnames=("engine",),
            ).labels(engine="router").inc(dropped)
        from repro.obs import set_build_info

        set_build_info(
            registry,
            backend=self.config.backend,
            pack=self.rulepack.label,
        )

    # -- live observability ----------------------------------------------------

    def queue_depths(self) -> list[int]:
        """Batches waiting per worker input queue (0s for serial, which
        executes inline and never queues)."""
        depths: list[int] = []
        for worker in self._workers:
            in_q = getattr(worker, "in_q", None)
            if in_q is None:
                depths.append(0)
                continue
            try:
                depths.append(in_q.qsize())
            except NotImplementedError:  # pragma: no cover - macOS mp queues
                depths.append(-1)
        return depths

    def health(self) -> dict:
        """The /healthz payload: router counters + queue/worker liveness."""
        stats = self.cluster_stats
        payload = {
            "backend": self.config.backend,
            "workers": self.config.workers,
            "started": self._started,
            "stopped": self._stopped,
            "frames_in": stats.frames_in,
            "frames_routed": stats.frames_routed,
            "frames_replicated": stats.frames_replicated,
            "frames_dropped": stats.frames_dropped,
            "batches_submitted": stats.batches_submitted,
            "worker_restarts": stats.worker_restarts,
            "queue_depths": self.queue_depths(),
            "workers_alive": sum(1 for w in self._workers if w.alive),
            "workers_dead": stats.workers_dead,
            "worker_dead": [w.worker_id for w in self._workers if w.dead],
            "frames_shed": dict(stats.frames_shed),
            "shed_by_source": dict(stats.shed_by_source),
            "checkpointing": bool(self.config.checkpoint_every),
            "rulepack": self.rulepack.info(),
            "rulepack_reloads": stats.rulepack_reloads,
        }
        if self.overload is not None:
            payload["overload"] = self.overload_status()
        if self._tracer is not None:
            payload["tracing"] = {
                "sample_rate": self.config.trace_sample_rate,
                "sessions_seen": len(self._trace_ids),
                "sessions_sampled": sum(
                    1 for tid in self._trace_ids.values() if tid
                ),
                "spans_dropped": (
                    stats.spans_dropped if self._stopped else self._tracer.dropped
                ),
            }
        if self._last_submit_monotonic is not None:
            payload["last_frame_age_seconds"] = round(
                _time.monotonic() - self._last_submit_monotonic, 3
            )
        return payload

    def trace_spans(self, limit: int | None = None) -> list[dict]:
        """Merged span records, servable at any point in the run.

        After :meth:`stop` this is the final merged timeline; mid-run it
        is a best-effort snapshot (router route spans plus whatever the
        workers have drained at batch boundaries so far).  ``limit``
        keeps the newest records.
        """
        if self.result is not None and self.result.trace is not None:
            records = self.result.trace
        elif self._tracer is None:
            return []
        else:
            records = sort_timeline(
                list(self._worker_spans)
                + _span_payload(list(self._tracer.spans), "router")
            )
        if limit is not None and len(records) > limit:
            return records[-limit:]
        return list(records)

    def live_registry(self) -> MetricsRegistry:
        """A registry snapshot servable at any point in the run.

        Mid-run, worker registries live in other processes/threads, so
        only the router-side ``scidive_cluster_*`` families are
        available; once :meth:`stop` has merged the worker reports the
        full merged view (per-stage histograms, per-rule alert counts,
        detection delays) is returned instead.
        """
        if self.result is not None and self.result.registry is not None:
            return self.result.registry
        registry = MetricsRegistry()
        self._cluster_metrics(registry)
        return registry

    # -- offline replay --------------------------------------------------------

    def process_trace(self, trace: Trace) -> ClusterResult:
        """Replay a recorded capture through the cluster and shut down."""
        self.start()
        for record in trace:
            self.submit_frame(record.frame, record.timestamp)
        return self.stop()
