"""The worker half of :class:`~repro.cluster.cluster.ScidiveCluster`.

Both backends run one message handler, :class:`_WorkerLoop`: it serves
``batch`` / ``rules_prepare`` / ``rules_commit`` / ``rules_abort`` /
``stop`` / ``crash`` from the worker's input queue and answers on the
shared results queue with ``spans`` / ``rules_ready`` / ``rules_done`` /
``result``.  Only the transport differs: a ``process`` worker runs
``while loop.handle(in_q.get())`` over a bounded ``multiprocessing``
queue that outlives the process (a respawn resumes on the batches still
queued); a ``serial`` worker's input queue calls ``handle`` inside
``put``, so every batch executes at submit time on the caller's thread.

This module never imports :mod:`repro.cluster.cluster`: the router
depends on the worker protocol, not the other way round.
"""

from __future__ import annotations

import multiprocessing as _mp
import os
import time as _time

from repro.core.engine import ScidiveEngine
from repro.obs.tracing import Tracer
from repro.resilience.checkpoint import RulePackMismatch
from repro.rulespec import RulePack, compile_pack, lint_text, parse_pack


def _pack_errors(text: str, path: str) -> str:
    """Error-severity diagnostics for pack text, path-anchored, joined."""
    return "; ".join(
        str(issue) for issue in lint_text(text, path) if issue.severity == "error"
    )


def _span_payload(spans, worker) -> list[dict]:
    """Spans → plain wire dicts, stamped with the recording worker."""
    out = []
    for span in spans:
        record = span.to_dict()
        record["worker"] = worker
        out.append(record)
    return out


def _gate_tracer(engine, config) -> Tracer | None:
    """Configure a worker engine's tracer for cluster duty: gated on the
    router's per-frame TraceContext, bounded by the cluster config."""
    tracer = getattr(getattr(engine, "observability", None), "tracer", None)
    if tracer is not None:
        tracer.gate = True
        tracer.context_parent = "queue-wait"
        tracer.max_spans = config.trace_max_spans
    return tracer


def _checkpoint_path(config, worker_id: int) -> str | None:
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


def _restore_checkpoint(engine: ScidiveEngine, path: str) -> bool:
    """Load a predecessor's snapshot into ``engine``; False when there is
    none or it is unusable."""
    if not os.path.exists(path):
        return False
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            engine.restore(blob)
        except RulePackMismatch:
            # The snapshot predates (or postdates) a hot rule-pack
            # reload: the session/dialog state is still the shard's
            # history, so carry it across the version gate rather than
            # choosing amnesia.  Rule state rebinds by rule id where
            # shapes match; the rest starts cold.
            engine.restore(blob, force=True)
    except Exception:
        # Unusable snapshot (torn file from a pre-atomic era, version
        # drift): amnesia beats refusing to detect at all.
        return False
    return True


class _WorkerLoop:
    """One worker engine and the handler for every router message.

    With a ``ckpt_path`` the loop restores its predecessor's snapshot
    before serving anything, so the batches that survived in a bounded
    queue resume against the state they were routed for, and it writes
    a snapshot every ``checkpoint_every`` batches.  With a
    ``profile_dir`` it runs a sampling stack profiler and writes
    ``worker-N.collapsed`` there at ``stop``.

    Worker CPU is ``thread_time`` summed around each batch: scheduler
    aware (descheduled time is not busy time) and, for a loop running on
    the router's thread, free of the router's own work.
    """

    def __init__(
        self,
        worker_id: int,
        config,
        factory,
        out_q,
        ckpt_path: str | None = None,
        profile_dir: str | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.config = config
        self.out_q = out_q
        self.engine = factory(worker_id, config)
        self.tracer = _gate_tracer(self.engine, config)
        self.profile_dir = profile_dir
        self.profiler = None
        if profile_dir:
            from repro.obs.profile import StackSampler

            self.profiler = StackSampler()
            self.profiler.start()
        self.ckpt_path = ckpt_path
        self.restored = ckpt_path is not None and _restore_checkpoint(
            self.engine, ckpt_path
        )
        self.batches = self.owned = self.shadowed = self.checkpoints = 0
        self.cpu_seconds = 0.0
        # One staged (epoch, RulePack) awaiting the router's commit.
        # Staging is the worker's half of the two-phase reload barrier:
        # parse and pre-compile *now* (so the prepare-ack is a real
        # promise the commit cannot break), swap only on commit.
        self.staged_pack: tuple[int, RulePack] | None = None

    def handle(self, message) -> bool:
        """Serve one message; False once ``stop`` has been answered.

        ``("crash", code)`` is the failure-injection hook: the process
        dies with ``os._exit`` (no cleanup, like a real segfault or OOM
        kill) once its posted results are written.  Dying while the
        results queue's feeder thread holds the queue's shared write lock
        would wedge every sibling's reports.  The router never sends it
        to a serial worker.
        """
        kind = message[0]
        if kind == "batch":
            self._batch(message)
        elif kind == "rules_prepare":
            self._rules_prepare(*message[1:])
        elif kind == "rules_commit":
            epoch = message[1]
            staged = self.staged_pack
            if staged is not None and staged[0] == epoch:
                self.engine.load_rulepack(staged[1])
                self.staged_pack = None
            self.out_q.put(("rules_done", self.worker_id, epoch))
        elif kind == "rules_abort":
            self.staged_pack = None
        elif kind == "stop":
            self._stop()
            return False
        elif kind == "crash":
            self.out_q.close()
            self.out_q.join_thread()
            os._exit(message[1])
        return True

    def _batch(self, message) -> None:
        cpu0 = _time.thread_time()
        owned = shadowed = 0
        process_frame = self.engine.process_frame
        process_shadow = self.engine.process_frame_shadow
        tracer = self.tracer
        if tracer is None:
            for frame, timestamp, is_owner, _tid in message[1]:
                if is_owner:
                    process_frame(frame, timestamp)
                    owned += 1
                else:
                    process_shadow(frame, timestamp)
                    shadowed += 1
        else:
            # Queue-wait: wall clock between the router's enqueue stamp
            # and this dequeue (wall time is the only clock comparable
            # across processes).
            wait = max(0.0, _time.time() - message[2])
            stats = self.engine.stats
            for frame, timestamp, is_owner, tid in message[1]:
                tracer.context = tid
                if is_owner:
                    if tid:
                        tracer.record(
                            "queue-wait", wait,
                            frame=stats.frames + 1,
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
                self.out_q.put(
                    ("spans", self.worker_id,
                     _span_payload(tracer.drain(), self.worker_id))
                )
        self.batches += 1
        self.owned += owned
        self.shadowed += shadowed
        if (
            self.ckpt_path is not None
            and self.batches % self.config.checkpoint_every == 0
        ):
            _write_checkpoint(self.ckpt_path, self.engine.checkpoint())
            self.checkpoints += 1
        self.cpu_seconds += _time.thread_time() - cpu0

    def _rules_prepare(self, epoch: int, pack_text: str, pack_path: str) -> None:
        self.staged_pack = None
        pack, _ = parse_pack(pack_text, pack_path)
        if pack is None:
            errors = _pack_errors(pack_text, pack_path)
            self.out_q.put(("rules_ready", self.worker_id, epoch, False, errors))
            return
        try:
            # Compile once up front: an ok-ack must mean the commit
            # cannot fail.
            compile_pack(pack)
        except Exception as exc:
            self.out_q.put(("rules_ready", self.worker_id, epoch, False, str(exc)))
            return
        self.staged_pack = (epoch, pack)
        self.out_q.put(("rules_ready", self.worker_id, epoch, True, ""))

    def _stop(self) -> None:
        """Post the final report: plain dicts + alert objects, so the
        transport never pickles engines or metric objects."""
        if self.profiler is not None:
            self.profiler.stop()
            os.makedirs(self.profile_dir, exist_ok=True)
            self.profiler.write_collapsed(
                os.path.join(self.profile_dir, f"worker-{self.worker_id}.collapsed")
            )
        engine, tracer, wid = self.engine, self.tracer, self.worker_id
        engine.snapshot_gauges()
        registry = engine.metrics_registry()
        report = {
            "worker_id": wid,
            "alerts": list(engine.alert_log.alerts),
            "stats": engine.stats.as_dict(),
            "shadow_stats": engine.shadow_stats.as_dict(),
            "batches": self.batches,
            "frames_owned": self.owned,
            "frames_shadowed": self.shadowed,
            "worker_cpu_seconds": self.cpu_seconds,
            "restored": self.restored,
            "checkpoints": self.checkpoints,
            "metrics": registry.as_dict() if registry is not None else None,
            "spans": _span_payload(tracer.drain(), wid) if tracer is not None else [],
            "spans_dropped": tracer.dropped if tracer is not None else 0,
        }
        self.out_q.put(("result", wid, report))


def _worker_main(worker_id, config, factory, in_q, out_q) -> None:
    """A process worker's life: serve messages until ``stop``."""
    loop = _WorkerLoop(
        worker_id,
        config,
        factory,
        out_q,
        ckpt_path=_checkpoint_path(config, worker_id),
        profile_dir=config.profile_dir,
    )
    while loop.handle(in_q.get()):
        pass


class _ProcessWorker:
    """One OS process per worker, fed by a bounded ``multiprocessing``
    queue."""

    def __init__(self, worker_id, config, factory, out_q) -> None:
        self.worker_id = worker_id
        self.config = config
        self.factory = factory
        self.out_q = out_q
        self.restarts = 0
        # Set by the cluster when the restart budget is spent: the shard
        # is degraded, its batches fail over, and stop() skips it.
        self.dead = False
        self.in_q = _mp.Queue(maxsize=config.queue_depth)
        self._proc = None

    def start(self) -> None:
        self._proc = _mp.Process(
            target=_worker_main,
            args=(self.worker_id, self.config, self.factory, self.in_q, self.out_q),
            daemon=True,
            name=f"scidive-worker-{self.worker_id}",
        )
        self._proc.start()

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def respawn(self) -> None:
        """Restart on the *same* input queue: queued batches survive the
        crash; only the dead worker's accumulated state is lost."""
        self.restarts += 1
        self.start()

    def join(self, timeout: float) -> None:
        if self._proc is not None:
            self._proc.join(timeout)


class _InlineQueue:
    """A serial worker's input queue: ``put`` serves the message at once."""

    def __init__(self, loop: _WorkerLoop) -> None:
        self.loop = loop

    def put(self, message, timeout: float | None = None) -> None:
        self.loop.handle(message)

    def qsize(self) -> int:
        return 0


class _SerialWorker:
    """The deterministic backend: the worker loop runs on the caller's
    thread, so batches execute at submit time.  It cannot crash, so it
    never restarts, checkpoints or dies; ``profile_dir`` is ignored."""

    restarts = 0
    dead = False
    alive = True

    def __init__(self, worker_id, config, factory, out_q) -> None:
        self.worker_id = worker_id
        self.config = config
        self.in_q = _InlineQueue(_WorkerLoop(worker_id, config, factory, out_q))
        self.engine = self.in_q.loop.engine

    def start(self) -> None:
        """Nothing to launch: the loop runs on the caller's thread."""

    def join(self, timeout: float) -> None:
        """Nothing to wait for."""
