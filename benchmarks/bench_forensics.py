"""Forensics overhead: flight recorder + provenance on vs off.

Replays a mixed SIP+RTP workload through the full frame path twice —
once with the default-on :class:`~repro.obs.forensics.ForensicsRecorder`
(one ring append per frame; evidence resolved and the provenance graph
built per alert) and once with ``forensics=False`` — and reports the
throughput ratio ``on / off``.  The four headline attacks are then
replayed in both modes to prove forensics never changes what fires.

Standalone (not a pytest bench)::

    PYTHONPATH=src python benchmarks/bench_forensics.py --json BENCH_forensics.json

Exits non-zero if any attack's alerts differ between modes, or if the
ratio falls below ``--min-ratio`` (default 0.9: the acceptance budget is
<= 10% overhead on the full frame path).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

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
from repro.sim.trace import Trace
from repro.voip.testbed import CLIENT_A_IP

ATTACKS = {
    "bye-attack": (run_bye_attack, "BYE-001"),
    "call-hijack": (run_call_hijack, "HIJACK-001"),
    "fake-im": (run_fake_im, "FAKEIM-001"),
    "rtp-attack": (run_rtp_attack, "RTP-003"),
}


def _concat(segments, gap: float = 5.0) -> Trace:
    """Rebase capture segments onto one forward timeline.

    Each capture starts its own clock at zero; replaying them verbatim
    would jump time backwards and wedge idle-state expiry.  The recorder
    is timed on the *frame* path (it stores raw frames), so unlike the
    dispatch bench this one keeps the traces un-distilled.
    """
    merged = Trace(name="forensics-bench")
    t = 0.0
    for segment in segments:
        base = segment.records[0].timestamp if segment.records else 0.0
        for record in segment:
            merged.append(t + record.timestamp - base, record.frame)
        t = merged.records[-1].timestamp + gap if merged.records else gap
    return merged


def _signature(engine: ScidiveEngine):
    return [(a.rule_id, a.time, a.session, a.message) for a in engine.alerts]


def _time_replay(trace: Trace, forensics_on: bool, repeats: int):
    """Best-of-N full frame-path replay on a fresh engine each round."""
    best, engine = None, None
    for _ in range(repeats):
        candidate = ScidiveEngine(
            vantage_ip=CLIENT_A_IP,
            forensics=None if forensics_on else False,
        )
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            candidate.process_trace(trace)
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
        provenance_ok = True
        for mode, forensics in (("on", None), ("off", False)):
            engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, forensics=forensics)
            engine.process_trace(trace)
            signatures[mode] = _signature(engine)
            if mode == "on":
                provenance_ok = all(
                    a.provenance is not None and a.provenance.frames
                    for a in engine.alerts
                )
        detected = any(sig[0] == rule_id for sig in signatures["on"])
        results[name] = {
            "rule": rule_id,
            "alerts_on": len(signatures["on"]),
            "alerts_off": len(signatures["off"]),
            "detected": detected,
            "identical": signatures["on"] == signatures["off"],
            "provenance_complete": provenance_ok,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write machine-readable results here")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.9,
        help="fail if on/off throughput ratio < this "
        "(0.9 = at most 10%% forensics overhead)",
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
    trace = _concat([benign, flood, spoof])
    print(f"workload: {len(trace)} frames, {trace.duration:.1f} s of sim time")

    timings = {}
    signatures = {}
    for mode, forensics_on in (("off", False), ("on", True)):
        seconds, engine = _time_replay(trace, forensics_on, args.repeats)
        timings[mode] = {
            "seconds": seconds,
            "frames_per_second": len(trace) / seconds,
            "events": engine.stats.events,
            "alerts": engine.stats.alerts,
        }
        signatures[mode] = _signature(engine)
        extra = ""
        if forensics_on and engine.forensics is not None:
            extra = (
                f"  {engine.forensics.session_count} sessions, "
                f"{engine.forensics.record_count} records held"
            )
        print(
            f"forensics {mode:3s}: {seconds * 1e3:8.2f} ms  "
            f"{timings[mode]['frames_per_second']:10,.0f} frames/s{extra}"
        )

    ratio = timings["on"]["frames_per_second"] / timings["off"]["frames_per_second"]
    print(
        f"throughput ratio (on / off): {ratio:.3f} "
        f"({(1 - ratio) * 100:+.1f}% overhead)"
    )

    attacks = _attack_equivalence(seed=7)
    for name, row in attacks.items():
        ok = row["identical"] and row["detected"] and row["provenance_complete"]
        print(
            f"attack {name:12s}: {row['alerts_on']} alerts in both modes, "
            f"{row['rule']} {'detected' if row['detected'] else 'MISSED'}, "
            f"provenance {'complete' if row['provenance_complete'] else 'MISSING'} "
            f"[{'ok' if ok else 'FAIL'}]"
        )

    equivalent = all(
        r["identical"] and r["detected"] and r["provenance_complete"]
        for r in attacks.values()
    ) and signatures["on"] == signatures["off"]
    passed = equivalent and ratio >= args.min_ratio
    result = {
        "bench": "forensics",
        "workload": {
            "frames": len(trace),
            "calls": args.calls,
            "flood_packets": args.flood_packets,
            "spoof_packets": args.spoof_packets,
            "seed": args.seed,
        },
        "repeats": args.repeats,
        "timings": timings,
        "throughput_ratio": ratio,
        "min_ratio": args.min_ratio,
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
        print("FAIL: forensics on/off runs disagree on an attack", file=sys.stderr)
        return 1
    if ratio < args.min_ratio:
        print(
            f"FAIL: throughput ratio {ratio:.3f} < required {args.min_ratio:.3f}",
            file=sys.stderr,
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
