"""Overload control under a VoIP flood: degraded-mode detection pinned.

Interleaves a ``--flood-frames`` single-source INVITE/RTP flood (50k
frames by default) into the four headline paper attacks and replays the
mix through a 4-worker cluster with the adaptive overload controller
enabled.  Three guarantees are measured and pinned:

* **alert equivalence** — the paper attacks' alert multiset under the
  flood is identical to a no-flood run of the same innocent frames: the
  penalty box door-drops the flooding source, never the evidence;
* **shed precision** — every shed frame is attributed to the
  adjudicated-heavy flood source (headline metric, baseline 1.0);
* **recovery** — once the flood stops and the queues drain, the
  controller walks shed → recovering → normal within its dwell.

Standalone (not a pytest bench)::

    PYTHONPATH=src python benchmarks/bench_overload.py --json BENCH_overload.json

Exits non-zero if an innocent plane appears in the shed accounting, the
paper alerts diverge, the controller never reaches shed, or it fails to
recover to normal after the flood.  Queues are bounded and blocking
(``overflow="block"``), so peak queue depth and RSS stay flat no matter
how long the flood runs — both are reported in the JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from repro.experiments.harness import (
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_rtp_attack,
)
from repro.cluster import ScidiveCluster
from repro.resilience.chaos import _FLOOD_IP, _flood_frames
from repro.resilience.overload import OverloadConfig
from repro.sim.trace import Trace
from repro.voip.testbed import CLIENT_A_IP

PAPER_RULES = ("BYE-001", "HIJACK-001", "FAKEIM-001", "RTP-003")
FLOOD_SOURCE = str(_FLOOD_IP)


def _concat(segments, gap: float = 5.0) -> Trace:
    """Rebase attack captures onto one forward timeline (each capture
    starts its own clock at zero)."""
    merged = Trace(name="overload-bench")
    t = 0.0
    for segment in segments:
        base = segment.records[0].timestamp if segment.records else 0.0
        for record in segment:
            merged.append(t + record.timestamp - base, record.frame)
        t = merged.records[-1].timestamp + gap if merged.records else gap
    return merged


def _flooded_stream(trace: Trace, flood_frames: int, seed: int):
    """The innocent capture with a uniform flood interleave: flood
    frames borrow the timestamp of the innocent frame they ride behind,
    so the sim clock stays monotonic."""
    records = [(r.frame, r.timestamp) for r in trace.records]
    flood = _flood_frames(random.Random(seed), flood_frames)
    stream = []
    sent = 0
    for index, (frame, ts) in enumerate(records):
        stream.append((frame, ts))
        quota = (index + 1) * len(flood) // len(records)
        while sent < quota:
            stream.append((flood[sent], ts))
            sent += 1
    return stream


def _cluster(workers: int, overload: bool = True) -> ScidiveCluster:
    return ScidiveCluster(
        workers=workers,
        backend="process",
        batch_size=16,
        vantage_ip=CLIENT_A_IP,
        queue_depth=8,
        overflow="block",
        overload_enabled=overload,
        overload_config=OverloadConfig(
            tick_frames=64, hot_min=32, dwell_ticks=2, recovery_ticks=2
        ),
    )


def _paper_signature(alerts):
    """Sorted multiset of the paper attacks' alerts — the degraded-mode
    detection contract compares exactly these across runs."""
    return sorted(
        (a.rule_id, a.time, a.session, a.message)
        for a in alerts
        if a.rule_id in PAPER_RULES
    )


def _run(stream, workers: int, recover: bool, overload: bool = True):
    """Submit the stream, optionally drive the controller back to
    normal once the flood is over, and collect the evidence."""
    cluster = _cluster(workers, overload=overload)
    cluster.start()
    peak_depth = 0
    start = time.perf_counter()
    for n, (frame, ts) in enumerate(stream):
        cluster.submit_frame(frame, ts)
        if n % 512 == 0:
            depth = max(cluster.queue_depths(), default=0)
            if depth > peak_depth:
                peak_depth = depth
    submit_seconds = time.perf_counter() - start

    ticks_to_normal = None
    if recover and cluster.overload is not None:
        # The flood is over; the queues drain while we keep observing.
        last_ts = stream[-1][1]
        for tick in range(400):
            if cluster.overload.state == "normal":
                ticks_to_normal = tick
                break
            time.sleep(0.005)
            cluster._overload_tick(last_ts + tick)

    result = cluster.stop()
    status = cluster.overload_status()
    return {
        "result": result,
        "status": status,
        "peak_queue_depth": peak_depth,
        "submit_seconds": submit_seconds,
        "ticks_to_normal": ticks_to_normal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write machine-readable results here")
    parser.add_argument(
        "--flood-frames",
        type=int,
        default=50_000,
        help="flood frames interleaved into the paper attacks",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    # The bye attack goes last: its teardown leaves torn-down media
    # state on the shared testbed 5-tuple, which would mask a later
    # segment's HIJACK-001 evidence behind RTP-001.
    innocent = _concat(
        runner(seed=args.seed).testbed.ids_tap.trace
        for runner in (run_call_hijack, run_fake_im, run_rtp_attack, run_bye_attack)
    )
    stream = _flooded_stream(innocent, args.flood_frames, seed=args.seed)
    print(
        f"workload: {len(innocent)} innocent frames + "
        f"{args.flood_frames:,} flood frames from {FLOOD_SOURCE}"
    )

    # The no-flood reference runs the same cluster with the controller
    # off: normal operation, nothing shed, the detection ground truth.
    baseline = _run(
        [(r.frame, r.timestamp) for r in innocent.records],
        args.workers,
        recover=False,
        overload=False,
    )
    flood = _run(stream, args.workers, recover=True)

    base_sig = _paper_signature(baseline["result"].alerts)
    flood_sig = _paper_signature(flood["result"].alerts)
    alerts_equivalent = base_sig == flood_sig and len(flood_sig) > 0
    detected = {
        rule: any(a.rule_id == rule for a in flood["result"].alerts)
        for rule in PAPER_RULES
    }

    stats = flood["result"].cluster
    shed_total = sum(stats.frames_shed.values())
    flood_shed = stats.shed_by_source.get(FLOOD_SOURCE, 0)
    shed_precision = flood_shed / shed_total if shed_total else 0.0
    innocent_untouched = (
        set(stats.frames_shed) <= {"penalty-box"}
        and set(stats.shed_by_source) <= {FLOOD_SOURCE}
    )
    transitions = flood["status"]["transitions_total"]
    reached_shed = any(key.endswith("->shed") for key in transitions)
    recovered = (
        flood["status"]["state"] == "normal" and flood["ticks_to_normal"] is not None
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    fps = len(stream) / flood["submit_seconds"]
    print(
        f"flood run: {flood['submit_seconds'] * 1e3:8.2f} ms  "
        f"{fps:10,.0f} frames/s  peak queue depth "
        f"{flood['peak_queue_depth']}/8  peak RSS {rss_mb:,.0f} MiB"
    )
    print(
        f"shed: {shed_total:,} frames, {flood_shed:,} from the flooder "
        f"(precision {shed_precision:.3f})  transitions: "
        + " ".join(f"{k} x{v}" for k, v in sorted(transitions.items()))
    )
    print(
        f"recovery: state={flood['status']['state']} after "
        f"{flood['ticks_to_normal']} post-flood ticks"
    )
    for rule, hit in detected.items():
        print(f"attack {rule:11s}: {'detected under flood' if hit else 'MISSED'}")
    print(
        f"paper-alert multiset: {len(flood_sig)} alerts under flood vs "
        f"{len(base_sig)} without "
        f"[{'identical' if alerts_equivalent else 'DIVERGED'}]"
    )

    equivalent = (
        alerts_equivalent
        and innocent_untouched
        and reached_shed
        and recovered
        and all(detected.values())
    )
    result = {
        "bench": "overload",
        "workload": {
            "innocent_frames": len(innocent),
            "flood_frames": args.flood_frames,
            "workers": args.workers,
            "seed": args.seed,
        },
        "flood_run": {
            "submit_seconds": flood["submit_seconds"],
            "frames_per_second": fps,
            "peak_queue_depth": flood["peak_queue_depth"],
            "peak_rss_mb": rss_mb,
            "frames_shed": dict(stats.frames_shed),
            "shed_by_source": dict(stats.shed_by_source),
            "transitions": dict(transitions),
            "final_state": flood["status"]["state"],
            "ticks_to_normal": flood["ticks_to_normal"],
        },
        "paper_alerts": {
            "baseline": len(base_sig),
            "under_flood": len(flood_sig),
            "identical": alerts_equivalent,
            "detected": detected,
        },
        "shed_precision": shed_precision,
        "reached_shed": reached_shed,
        "recovered": recovered,
        "innocent_untouched": innocent_untouched,
        "equivalent": equivalent,
        "passed": equivalent,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"results written to {args.json}")

    if not equivalent:
        if not alerts_equivalent:
            print("FAIL: the flood changed the paper attacks' alerts", file=sys.stderr)
        if not innocent_untouched:
            print("FAIL: an innocent plane or source was shed", file=sys.stderr)
        if not reached_shed:
            print("FAIL: the controller never reached shed", file=sys.stderr)
        if not recovered:
            print("FAIL: no recovery to normal after the flood", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
