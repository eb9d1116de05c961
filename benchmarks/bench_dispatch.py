"""Indexed vs broadcast dispatch: the protocol-module routing payoff.

Replays a pre-distilled mixed SIP+RTP workload through the footprint
pipeline twice — once with per-protocol generator tables and the
trigger-event rule index (``indexed_dispatch=True``, the default) and
once in the broadcast reference mode where every footprint visits every
generator and every event visits every rule — and reports the
throughput ratio.  Both legs run the shipped rule pack (the engine
default).  The four headline attacks (Figures 5–8) are then replayed in
both modes to prove the routing is detection-neutral.

Standalone (not a pytest bench)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py --json BENCH_dispatch.json

Exits non-zero if any attack's alerts differ between modes or if the
measured speedup falls below ``--min-speedup`` (default 1.0 so CI boxes
with noisy neighbours don't flap; run with ``--min-speedup 1.3`` to
enforce the headline number on quiet hardware).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from repro.core.distiller import Distiller
from repro.core.engine import ScidiveEngine
from repro.experiments.harness import (
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_rtp_attack,
)
from repro.experiments.workloads import (
    WorkloadSpec,
    capture_rtp_flood,
    capture_ssrc_spoof_flood,
    capture_workload,
)
from repro.rulespec import core_pack
from repro.voip.testbed import CLIENT_A_IP

ATTACKS = {
    "bye-attack": (run_bye_attack, "BYE-001"),
    "call-hijack": (run_call_hijack, "HIJACK-001"),
    "fake-im": (run_fake_im, "FAKEIM-001"),
    "rtp-attack": (run_rtp_attack, "RTP-003"),
}


def _distill(trace, offset: float = 0.0) -> list:
    """Decode once up front so the timed loop is pure footprint pipeline.

    ``offset`` shifts the segment's timestamps: each capture starts its
    own clock at zero, so concatenating segments verbatim would jump
    time backwards, wedging idle-state expiry (and rule windows) in ways
    no real capture does.  Rebasing the segments onto one forward
    timeline keeps the replay a single plausible observation run.
    """
    distiller = Distiller()
    footprints = []
    for record in trace:
        footprint = distiller.distill(record.frame, record.timestamp + offset)
        if footprint is not None:
            footprints.append(footprint)
    return footprints


def _time_replay(footprints, indexed: bool, repeats: int):
    """Best-of-N footprint-pipeline replay on a fresh engine each round.

    The collector is paused inside the timed region (and run to
    completion between rounds) so both modes are measured on pipeline
    work, not on whichever round the GC happened to interrupt.  A fresh
    engine per round also means the pack recompiles each time, so
    per-rule state never leaks between rounds.
    """
    best, engine = None, None
    for _ in range(repeats):
        candidate = ScidiveEngine(vantage_ip=CLIENT_A_IP, indexed_dispatch=indexed)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for footprint in footprints:
                candidate.process_footprint(footprint)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        if best is None or elapsed < best:
            best, engine = elapsed, candidate
    return best, engine


def _attack_equivalence(seed: int) -> dict:
    """Replay each paper attack in both modes; alerts must be identical."""
    results = {}
    for name, (runner, rule_id) in ATTACKS.items():
        trace = runner(seed=seed).testbed.ids_tap.trace
        signatures = {}
        for mode, indexed in (("indexed", True), ("broadcast", False)):
            engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, indexed_dispatch=indexed)
            engine.process_trace(trace)
            signatures[mode] = [
                (a.rule_id, a.time, a.session, a.message) for a in engine.alerts
            ]
        detected = any(sig[0] == rule_id for sig in signatures["indexed"])
        results[name] = {
            "rule": rule_id,
            "indexed_alerts": len(signatures["indexed"]),
            "broadcast_alerts": len(signatures["broadcast"]),
            "detected": detected,
            "identical": signatures["indexed"] == signatures["broadcast"],
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write machine-readable results here")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="fail if indexed/broadcast throughput < this",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repetitions (best-of-N)"
    )
    parser.add_argument(
        "--calls", type=int, default=3, help="benign calls in the mixed workload"
    )
    parser.add_argument(
        "--flood-packets",
        type=int,
        default=5000,
        help="garbage RTP packets in the flood segment",
    )
    parser.add_argument(
        "--spoof-packets",
        type=int,
        default=3000,
        help="spoofed-SSRC RTP packets in the spoof segment",
    )
    parser.add_argument("--seed", type=int, default=33)
    args = parser.parse_args(argv)

    # The mixed workload, three segments: benign SIP traffic (calls,
    # IMs, registration churn), a live call under a dense garbage-RTP
    # flood (one MalformedRtp per inbound packet), and a live call with
    # a spoofed-SSRC stream (several media events per packet).  The
    # event-dense segments are exactly the regime where dispatch
    # indexing matters.
    benign = capture_workload(
        WorkloadSpec(
            calls=args.calls,
            call_seconds=2.0,
            ims=4,
            churn_rounds=1,
            require_auth=True,
            seed=args.seed,
        )
    )
    flood = capture_rtp_flood(
        seed=args.seed + 1,
        packets=args.flood_packets,
        interval=0.002,
        observe_after=2.0 + args.flood_packets * 0.002,
    )
    spoof = capture_ssrc_spoof_flood(
        seed=args.seed + 2,
        packets=args.spoof_packets,
        interval=0.004,
    )
    # Segments are rebased onto one forward timeline with a gap between
    # them, exactly as a tap would have seen the day unfold.
    gap = 5.0
    benign_fps = _distill(benign)
    t = (benign_fps[-1].timestamp if benign_fps else 0.0) + gap
    flood_fps = _distill(flood, offset=t)
    t = (flood_fps[-1].timestamp if flood_fps else t) + gap
    spoof_fps = _distill(spoof, offset=t)
    footprints = benign_fps + flood_fps + spoof_fps
    frames = len(benign) + len(flood) + len(spoof)
    protocols = sorted({f.protocol.value for f in footprints})
    print(
        f"workload: {frames} frames -> {len(footprints)} footprints "
        f"({', '.join(protocols)})"
    )

    timings = {}
    for mode, indexed in (("broadcast", False), ("indexed", True)):
        seconds, engine = _time_replay(footprints, indexed, args.repeats)
        timings[mode] = {
            "seconds": seconds,
            "footprints_per_second": len(footprints) / seconds,
            "events": engine.stats.events,
            "alerts": engine.stats.alerts,
            "dispatch_skipped": engine.ruleset.dispatch_skipped,
        }
        print(
            f"{mode:9s}: {seconds * 1e3:8.2f} ms  "
            f"{timings[mode]['footprints_per_second']:10,.0f} footprints/s  "
            f"{timings[mode]['dispatch_skipped']} rule evals skipped"
        )

    speedup = (
        timings["indexed"]["footprints_per_second"]
        / timings["broadcast"]["footprints_per_second"]
    )
    rulepack = core_pack()
    print(f"speedup (indexed / broadcast): {speedup:.2f}x (pack {rulepack.label})")

    attacks = _attack_equivalence(seed=7)
    for name, row in attacks.items():
        status = "ok" if row["identical"] and row["detected"] else "FAIL"
        print(
            f"attack {name:12s}: {row['indexed_alerts']} alerts in both modes, "
            f"{row['rule']} {'detected' if row['detected'] else 'MISSED'} [{status}]"
        )

    equivalent = all(r["identical"] and r["detected"] for r in attacks.values())
    passed = equivalent and speedup >= args.min_speedup
    result = {
        "bench": "dispatch",
        "workload": {
            "frames": frames,
            "footprints": len(footprints),
            "protocols": protocols,
            "calls": args.calls,
            "flood_packets": args.flood_packets,
            "spoof_packets": args.spoof_packets,
            "seed": args.seed,
        },
        "repeats": args.repeats,
        "timings": timings,
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "rulepack": rulepack.info(),
        "attacks": attacks,
        "equivalent": equivalent,
        "passed": passed,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"results written to {args.json}")

    if not equivalent:
        print(
            "FAIL: indexed and broadcast modes disagree on an attack", file=sys.stderr
        )
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x < required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
