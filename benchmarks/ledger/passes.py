"""The measured side of the ledger: one role per fresh child process.

``python passes.py ROLE WORKDIR`` reads ``WORKDIR/job.json`` plus the
inputs the parent wrote (``trace.pcap``, ``truth.json`` and, for a
fragmented workload, ``base.pcap``) and writes ``WORKDIR/ROLE.json``.
A child never sees the generator or the seed — only the generated files.

Roles:

``engine``   untraced single-engine passes: ``read_pcap`` of the file →
             ``process_frame`` per frame → the final alert list, with two
             clock reads around every ``process_frame`` call.
``cluster``  untraced ``ScidiveCluster(workers=2, backend="process",
             overflow="block")`` passes: ``read_pcap`` → ``start()`` →
             every ``submit_frame`` → ``stop()`` returning merged alerts.
``traced``   one engine pass driven layer by layer from here (``distill``
             → ``forensics.record_frame`` → ``process_footprint``), a span
             per call, plus the isolated sharding loops and a checkpoint.

Nothing under ``src/`` is instrumented: the layers are timed around
their public entry points, and ``process_footprint`` is split into
state/trail/generate/match by :class:`SpanHook` through the engine's
public ``hook=`` parameter.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

from repro.cluster import PLANE_FRAGMENT, ScidiveCluster, SessionSharder, shard_key
from repro.core.engine import ScidiveEngine
from repro.core.footprint import RtpFootprint, SipFootprint
from repro.core.hooks import FootprintHook
from repro.net.pcap import read_pcap

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import alert_key  # noqa: E402

perf = time.perf_counter

# Warm-up replays the head of the trace: long enough to pay every lazy
# import, regex compile and dispatch-table build before timing starts.
WARMUP_SHARE = 0.05
WARMUP_MIN_FRAMES = 1000

INNER_LAYERS = ("housekeep", "state", "trail", "generate", "match")
# Span tree of one frame: layer -> parent.
SPAN_PARENTS = {
    "frame": "",
    **dict.fromkeys(("distill", "forensics", "footprint"), "frame"),
    **dict.fromkeys(INNER_LAYERS, "footprint"),
}
KIND_NAMES = ("sip", "rtp", "fragment", "other")
KIND_SIP, KIND_RTP, KIND_FRAGMENT, KIND_OTHER = range(4)


def warmup_frames(total: int) -> int:
    return min(total, max(WARMUP_MIN_FRAMES, int(total * WARMUP_SHARE)))


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def want_more(job: dict, done: int, elapsed: float) -> bool:
    """Fixed ``passes`` when given; else the floor, then the time budget."""
    if job.get("passes"):
        return done < job["passes"]
    return done < job["min_passes"] or elapsed < job["budget_s"]


def accounted(distiller_stats: dict) -> int:
    """Frames the Distiller filed under exactly one bucket (``malformed``
    is a subset of ``footprints``); must equal the frames fed in."""
    return sum(
        distiller_stats[bucket]
        for bucket in ("footprints", "non_ip", "non_udp", "fragments_held", "ignored")
    )


# -- engine role ---------------------------------------------------------------


def engine_pass(path: Path) -> dict:
    gc.collect()
    latencies = array("d")
    push = latencies.append
    t0 = perf()
    trace = read_pcap(path)
    t_read = perf()
    engine = ScidiveEngine()
    t_built = perf()
    process = engine.process_frame
    for record in trace:
        a = perf()
        process(record.frame, record.timestamp)
        push(perf() - a)
    alerts = list(engine.alerts)
    total_s = perf() - t0
    return {
        "frames": len(trace),
        "total_s": total_s,
        "fps": len(trace) / total_s,
        "read_s": t_read - t0,
        "construct_s": t_built - t_read,
        "latencies": latencies,
        "alerts": [alert_key(alert) for alert in alerts],
        "distiller": engine.distiller.stats.as_dict(),
        "engine_frames": engine.stats.frames,
    }


def run_engine(job: dict, workdir: Path) -> dict:
    path = workdir / "trace.pcap"
    ScidiveEngine()  # imports + rule compile + construction: the set-up cost
    setup_s = time.time() - job["spawned_at"]
    out: dict = {"setup_s": setup_s}
    base = workdir / "base.pcap"
    if base.exists():
        # Untimed: the unfragmented trace's alerts are the reference the
        # fragmented passes must reproduce.
        out["reference_alerts"] = engine_pass(base)["alerts"]
    head = read_pcap(path).records
    warm_n = warmup_frames(len(head))
    engine = ScidiveEngine()
    t0 = perf()
    for record in head[:warm_n]:
        engine.process_frame(record.frame, record.timestamp)
    warm_s = perf() - t0
    del head, engine

    passes: list[dict] = []
    started = perf()
    while want_more(job, len(passes), perf() - started):
        passes.append(engine_pass(path))

    pooled = array("d")
    head_s: list[float] = []
    for one in passes:
        latencies = one.pop("latencies")
        head_s.append(sum(latencies[:warm_n]))
        ordered = sorted(latencies)
        one["p50_us"] = percentile(ordered, 0.50) * 1e6
        one["p90_us"] = percentile(ordered, 0.90) * 1e6
        pooled.extend(latencies)
    ordered = sorted(pooled)
    out.update(
        passes=passes,
        samples=len(ordered),
        p50_us=percentile(ordered, 0.50) * 1e6,
        p90_us=percentile(ordered, 0.90) * 1e6,
        p99_us=percentile(ordered, 0.99) * 1e6,
        p999_us=percentile(ordered, 0.999) * 1e6,
        mean_us=sum(ordered) / len(ordered) * 1e6,
        # Same frames, cold vs warm: the untimed head against the median
        # time the timed passes spent inside process_frame on that head.
        warmup_ratio=warm_s / sorted(head_s)[len(head_s) // 2],
        peak_rss_mb=peak_rss_mb(),
    )
    return out


# -- cluster role --------------------------------------------------------------


def cluster_pass(path: Path, warmup: bool = False) -> dict:
    gc.collect()
    t0 = perf()
    records = read_pcap(path).records
    if warmup:
        records = records[: warmup_frames(len(records))]
    t_read = perf()
    cluster = ScidiveCluster(workers=2, backend="process", overflow="block")
    try:
        cluster.start()
        t_started = perf()
        submit = cluster.submit_frame
        for record in records:
            submit(record.frame, record.timestamp)
        t_submitted = perf()
    finally:
        # stop() joins the workers: no process outlives a pass, even a
        # failed one.
        result = cluster.stop()
    t_stopped = perf()
    stats = result.cluster
    return {
        "frames": len(records),
        "total_s": t_stopped - t0,
        "fps": len(records) / (t_stopped - t0),
        "read_s": t_read - t0,
        "start_s": t_started - t_read,
        "submit_s": t_submitted - t_started,
        "drain_s": t_stopped - t_submitted,
        "alerts": [alert_key(alert) for alert in result.alerts],
        "frames_in": stats.frames_in,
        "frames_routed": stats.frames_routed,
        "frames_replicated": stats.frames_replicated,
        "frames_dropped": stats.frames_dropped,
        "frames_signalling": stats.frames_by_plane.get("signalling", 0),
        "batches_submitted": stats.batches_submitted,
        "worker_restarts": stats.worker_restarts,
        "router_cpu_s": stats.router_seconds,
        "worker_busy_s": [worker.busy_seconds for worker in result.workers],
        "worker_owned": [worker.frames_owned for worker in result.workers],
        "workers_crashed": sum(worker.crashed for worker in result.workers),
        "engine_frames": result.stats.frames,
        "modeled_fps": result.modeled_frames_per_second(),
    }


def run_cluster(job: dict, workdir: Path) -> dict:
    path = workdir / "trace.pcap"
    ScidiveCluster(workers=2, backend="process", overflow="block")
    setup_s = time.time() - job["spawned_at"]
    cluster_pass(path, warmup=True)
    passes: list[dict] = []
    started = perf()
    while want_more(job, len(passes), perf() - started):
        passes.append(cluster_pass(path))
    return {
        "setup_s": setup_s,
        "passes": passes,
        "worker_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


# -- traced role ---------------------------------------------------------------


class SpanHook(FootprintHook):
    """Holds the engine's own stage timings for the footprint in flight;
    the traced loop reads them after each ``process_footprint`` call."""

    __slots__ = INNER_LAYERS

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.housekeep = self.state = self.trail = self.generate = self.match = 0.0

    def housekeeping_timed(self, reclaimed, seconds, frame_no, sim_time) -> None:
        self.housekeep = seconds

    def state_updated(self, seconds, frame_no, sim_time) -> None:
        self.state = seconds

    def trail_pushed(self, seconds, frame_no, sim_time) -> None:
        self.trail = seconds

    def footprint_done(
        self,
        footprint,
        generate_seconds,
        match_seconds,
        events,
        alerts,
        frame_no,
        sim_time,
    ) -> None:
        self.generate = generate_seconds
        self.match = match_seconds


def traced_pass(records: list) -> dict:
    """Drive the body of ``process_frame`` from outside, a span per call.

    Span tree per frame: ``frame`` ⊃ {``distill``, ``forensics``,
    ``footprint`` ⊃ {``housekeep``, ``state``, ``trail``, ``generate``,
    ``match``}}.  The outer four are timed here; the inner five are the
    durations the engine hands its hook.
    """
    gc.collect()
    hook = SpanHook()
    engine = ScidiveEngine(hook=hook)
    distill = engine.distiller.distill
    record_frame = engine.forensics.record_frame
    process_footprint = engine.process_footprint
    stats, distiller_stats = engine.stats, engine.distiller.stats
    kind_of = {SipFootprint: KIND_SIP, RtpFootprint: KIND_RTP}
    held = 0
    names = ("start",) + tuple(SPAN_PARENTS)
    spans = {name: array("d") for name in names}
    push = [spans[name].append for name in names]
    kinds = array("b")
    origin = perf()
    for record in records:
        frame, timestamp = record.frame, record.timestamp
        t0 = perf()
        stats.frames += 1
        footprint = distill(frame, timestamp)
        t1 = perf()
        if footprint is None:
            t2 = t3 = t1
        else:
            record_frame(stats.frames, frame, timestamp, footprint)
            t2 = perf()
            process_footprint(footprint, stats.frames)
            t3 = perf()
        # Book-keeping below sits outside every span: it shows up in
        # engine.trace_overhead_ratio, not in any layer.
        if footprint is not None:
            kind = kind_of.get(type(footprint), KIND_OTHER)
        elif distiller_stats.fragments_held != held:
            held = distiller_stats.fragments_held
            kind = KIND_FRAGMENT
        else:
            kind = KIND_OTHER
        kinds.append(kind)
        row = (t0 - origin, t3 - t0, t1 - t0, t2 - t1, t3 - t2) + tuple(
            getattr(hook, name) for name in INNER_LAYERS
        )
        for append, value in zip(push, row):
            append(value)
        hook.clear()
    wall_s = perf() - origin
    t0 = perf()
    blob = engine.checkpoint()
    checkpoint_s = perf() - t0
    return {
        "engine": engine,
        "spans": spans,
        "kinds": kinds,
        "wall_s": wall_s,
        "checkpoint_s": checkpoint_s,
        "checkpoint_bytes": len(blob),
    }


def write_spans(path: Path, spans: dict, kinds) -> None:
    """One JSON line per span: frame id, layer, parent, start, duration.
    Inner spans carry no start — the engine reports only their duration."""
    with open(path, "w", encoding="utf-8") as handle:
        for i, start in enumerate(spans["start"]):
            forensics_at = start + spans["distill"][i]
            starts = {
                "frame": start,
                "distill": start,
                "forensics": forensics_at,
                "footprint": forensics_at + spans["forensics"][i],
            }
            for layer, parent in SPAN_PARENTS.items():
                seconds = spans[layer][i]
                if seconds == 0.0 and parent:
                    continue  # the layer did not run for this frame
                begin = starts.get(layer)
                span = {
                    "frame": i + 1,
                    "kind": KIND_NAMES[kinds[i]],
                    "layer": layer,
                    "parent": parent,
                    "start_us": None if begin is None else begin * 1e6,
                    "dur_us": seconds * 1e6,
                }
                handle.write(json.dumps(span) + "\n")


def sharding_loops(records: list) -> dict:
    """``shard_key`` and ``SessionSharder.route`` alone: no queues, no
    workers — the router's serial cost per frame."""
    gc.collect()
    fragments = 0
    t0 = perf()
    for record in records:
        if shard_key(record.frame).plane == PLANE_FRAGMENT:
            fragments += 1
    key_s = perf() - t0
    sharder = SessionSharder()
    route = sharder.route
    t0 = perf()
    for record in records:
        route(record.frame, record.timestamp)
    route_s = perf() - t0
    return {
        "shard_key_s": key_s,
        "route_s": route_s,
        "fragment_frames": fragments,
        "fragments_pending": sharder.pending_fragments,
    }


def run_traced(job: dict, workdir: Path) -> dict:
    records = read_pcap(workdir / "trace.pcap").records
    warm = ScidiveEngine()
    for record in records[: warmup_frames(len(records))]:
        warm.process_frame(record.frame, record.timestamp)
    del warm
    traced = traced_pass(records)
    engine, spans, kinds = traced["engine"], traced["spans"], traced["kinds"]
    if job.get("trace_out"):
        write_spans(Path(job["trace_out"]), spans, kinds)
    distill = spans["distill"]
    by_kind = {name: [0.0, 0] for name in KIND_NAMES}  # seconds, frames
    for kind, seconds in zip(kinds, distill):
        entry = by_kind[KIND_NAMES[kind]]
        entry[0] += seconds
        entry[1] += 1
    return {
        "frames": len(records),
        "wall_s": traced["wall_s"],
        "sums": {
            name: sum(column) for name, column in spans.items() if name != "start"
        },
        "distill_by_kind": by_kind,
        "distill_p99_us": percentile(sorted(distill), 0.99) * 1e6,
        "distiller": engine.distiller.stats.as_dict(),
        "footprints": engine.stats.footprints,
        "events": engine.stats.events,
        "alerts": [alert_key(alert) for alert in engine.alerts],
        "live_trails": engine.trails.trail_count,
        "dispatch_skipped": engine.ruleset.dispatch_skipped,
        "checkpoint_ms": traced["checkpoint_s"] * 1e3,
        "checkpoint_kib": traced["checkpoint_bytes"] / 1024.0,
        "sharding": sharding_loops(records),
    }


ROLES = {"engine": run_engine, "cluster": run_cluster, "traced": run_traced}


def main(argv: list[str]) -> int:
    role, workdir = argv[1], Path(argv[2])
    job = json.loads((workdir / "job.json").read_text(encoding="utf-8"))
    try:
        result = ROLES[role](job, workdir)
    except Exception:
        # The parent counts any exception as a failed run; hand it the
        # traceback instead of dying with half a result.
        result = {"error": traceback.format_exc()}
    (workdir / f"{role}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
