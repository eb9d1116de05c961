"""Structured tracing: per-frame, per-stage spans through the pipeline.

A :class:`Tracer` records lightweight :class:`Span` objects as frames
move Distiller → TrailManager → Event Generators → RuleSet.  Spans are
*sim-clock aware*: each carries the simulated timestamp of the frame
being processed (``sim_time``) alongside the measured wall-clock
duration, so a trace can answer both "when in the call did this happen"
and "what did it cost the engine".

Traces export as JSON-lines (one span per line) and reduce to a
per-stage latency summary that the ``repro stats`` subcommand and the
observability benchmarks print as a table.

Cross-process tracing (:mod:`repro.cluster`) builds on three additions:

* :class:`TraceContext` — the propagated identity of one traced
  session: a deterministic ``trace_id`` plus the parent span name.  The
  router derives it from the shard key, so a sampled session is sampled
  *end-to-end* and the same sessions are sampled on the serial and
  process backends alike (head-based sampling, no coordination).
* Per-span ``trace_id``/``parent`` fields, emitted only when set so
  single-engine traces keep their original JSONL schema.
* A per-tracer *context gate*: cluster workers set
  ``tracer.gate = True`` and stamp ``tracer.context`` per frame, so
  spans record only for sampled sessions and unsampled frames pay one
  attribute read.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

# A span's stage name, e.g. "distill", "trail", "generate:dialog", "match".
DEFAULT_MAX_SPANS = 1_000_000

# Head-based sampling default for cluster tracing: 1-in-N sessions.
# The observability bench proves tracing at this rate costs <= 5%.
DEFAULT_TRACE_SAMPLE_RATE = 8

# Merge ordering for spans sharing one sim timestamp: the journey reads
# route → queue-wait → pipeline stages even when durations are sub-tick.
STAGE_ORDER = {
    "route": 0,
    "queue-wait": 1,
    "distill": 2,
    "state": 3,
    "trail": 4,
    "generate": 5,
    "match": 6,
    "housekeep": 7,
}


def sample_session(canon: str, rate: int = DEFAULT_TRACE_SAMPLE_RATE) -> bool:
    """Deterministic head-based sampling decision for one session.

    ``canon`` is the session's canonical shard-key encoding (see
    :meth:`repro.cluster.sharding.ShardKey.canon`).  The decision hashes
    SHA-1, not the CRC32 that :func:`~repro.cluster.sharding.shard_index`
    uses: CRC32 is linear, so any salted CRC differs from the placement
    hash only by a per-length constant and ``crc % rate == 0`` would
    still pin every sampled session of a given key length to one worker.
    SHA-1 decorrelates the two for real, and the decision is made once
    per session (the router caches it), so the hash cost is irrelevant.
    """
    if rate <= 1:
        return True
    digest = hashlib.sha1(b"trace|" + canon.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % rate == 0


def session_trace_id(canon: str) -> str:
    """The stable trace id for one session key (16 hex chars)."""
    return hashlib.sha1(canon.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagated identity of one traced session.

    ``trace_id`` is empty for unsampled sessions — carrying the negative
    decision explicitly lets the router cache it and workers skip span
    recording with a single truthiness check.
    """

    trace_id: str
    parent: str = ""

    @property
    def sampled(self) -> bool:
        return bool(self.trace_id)

    @classmethod
    def for_session(
        cls,
        canon: str,
        rate: int = DEFAULT_TRACE_SAMPLE_RATE,
        parent: str = "route",
    ) -> "TraceContext":
        """Head-based sampling: decide once, at the routing decision."""
        if not sample_session(canon, rate):
            return cls(trace_id="", parent=parent)
        return cls(trace_id=session_trace_id(canon), parent=parent)


@dataclass(slots=True)
class Span:
    """One timed stage execution for one frame."""

    name: str
    frame: int  # engine frame sequence number (0 = unknown)
    sim_time: float  # simulated timestamp of the frame
    duration: float  # wall-clock seconds spent in the stage
    meta: dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""  # cross-process trace identity ("" = untraced)
    parent: str = ""    # upstream span name within the trace

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "span": self.name,
            "frame": self.frame,
            "t_sim": round(self.sim_time, 9),
            "dur_us": round(self.duration * 1e6, 3),
        }
        if self.trace_id:
            record["trace"] = self.trace_id
        if self.parent:
            record["parent"] = self.parent
        if self.meta:
            record["meta"] = self.meta
        return record


@dataclass(slots=True)
class StageStats:
    """Wall-clock latency summary for one stage across a trace."""

    stage: str
    count: int
    total: float
    mean: float
    p50: float
    p95: float
    max: float


class Tracer:
    """Collects spans; bounded so runaway replays cannot exhaust memory.

    Cluster workers run *gated* tracers: ``gate=True`` plus a per-frame
    ``context`` (the session's trace id, ``""`` for unsampled sessions)
    make :meth:`record` a no-op for unsampled frames, so head-based
    sampling bounds the cost of tracing a busy shard.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        # Cross-process trace identity for the frame being processed.
        self.context: str = ""
        self.context_parent: str = ""
        # When gated, frames without a sampled context record nothing.
        self.gate = False

    # -- recording ------------------------------------------------------------

    def record(
        self,
        name: str,
        duration: float,
        frame: int = 0,
        sim_time: float = 0.0,
        trace_id: str | None = None,
        parent: str | None = None,
        **meta: Any,
    ) -> None:
        """File one pre-measured span (the engine's hot path uses this)."""
        tid = self.context if trace_id is None else trace_id
        if self.gate and not tid:
            return
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        if parent is None:
            parent = self.context_parent if tid else ""
        self.spans.append(
            Span(name, frame, sim_time, duration, meta, tid, parent))

    @contextmanager
    def span(self, name: str, frame: int = 0, sim_time: float = 0.0,
             **meta: Any) -> Iterator[dict[str, Any]]:
        """Time a block; yields the meta dict so callers can annotate it."""
        started = time.perf_counter()
        try:
            yield meta
        finally:
            self.record(name, time.perf_counter() - started,
                        frame=frame, sim_time=sim_time, **meta)

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0

    def drain(self) -> list[Span]:
        """Take the buffered spans, *preserving* the cumulative drop count.

        Cluster workers drain at batch boundaries; unlike :meth:`clear`
        this keeps ``dropped`` monotonic so the ``spans_dropped_total``
        counter stays correct across drains.
        """
        spans = self.spans
        self.spans = []
        return spans

    def __len__(self) -> int:
        return len(self.spans)

    # -- export ---------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        return len(self.spans)

    def stage_summary(self) -> list[StageStats]:
        """Reduce spans to per-stage latency statistics, busiest first."""
        by_stage: dict[str, list[float]] = {}
        for span in self.spans:
            by_stage.setdefault(span.name, []).append(span.duration)
        out = []
        for stage, durations in by_stage.items():
            durations.sort()
            n = len(durations)
            out.append(StageStats(
                stage=stage,
                count=n,
                total=sum(durations),
                mean=sum(durations) / n,
                p50=_percentile(durations, 50.0),
                p95=_percentile(durations, 95.0),
                max=durations[-1],
            ))
        out.sort(key=lambda s: s.total, reverse=True)
        return out


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolation percentile over a pre-sorted list."""
    if not ordered:
        return 0.0
    k = (len(ordered) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] * (hi - k) + ordered[hi] * (k - lo)


def read_trace_jsonl(path) -> list[dict[str, Any]]:
    """Load a trace written by :meth:`Tracer.write_jsonl`."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def sort_timeline(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Order merged span records into one cluster-wide timeline.

    Primary key is the simulated timestamp; ties (sub-tick stages of the
    same frame) break on the pipeline stage order and then the frame
    sequence number, so a journey always reads route → queue-wait →
    distill → … → match.
    """
    fallback = len(STAGE_ORDER)

    def key(record: dict[str, Any]):
        name = record.get("span", "")
        stage = name.split(":", 1)[0]
        return (
            record.get("t_sim", 0.0),
            STAGE_ORDER.get(stage, fallback),
            record.get("frame", 0),
        )

    return sorted(records, key=key)


def write_spans_jsonl(path, records: Iterable[dict[str, Any]]) -> int:
    """Write already-merged span records (dicts) as JSON lines."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count
