"""CI perf-regression gate: fresh bench JSON vs the committed baseline.

Each bench script writes a machine-readable JSON (``BENCH_shards.json``
from ``bench_shard_scaling.py``, ``BENCH_forensics.json`` from
``bench_forensics.py``, ``BENCH_resilience.json`` from
``bench_resilience.py``, ``BENCH_obs.json`` from
``bench_observability_overhead.py``, ``BENCH_overload.json`` from
``bench_overload.py``).  The baselines are committed; CI re-runs the
benches and calls this script to compare the headline metric against the
baseline with a relative tolerance::

    python benchmarks/check_regression.py \
        --baseline BENCH_shards.json --fresh fresh_shards.json --tolerance 0.2
    python benchmarks/check_regression.py \
        --baseline BENCH_forensics.json --fresh fresh_forensics.json

The headline metric is chosen by the ``bench`` field:
``scaling_at_gate`` (modeled shard scaling) or ``throughput_ratio``
(forensics on vs off; checkpointing on vs off for the resilience bench;
summaries+cost-sampling on vs metrics-only for the observability bench;
``frames_per_second`` for the workload-generator bench, which also
fails when its trace/truth digests or frame count differ from the
baseline;
``shed_precision`` — the adjudicated-heavy source's share of shed
frames — for the overload bench).  A fresh value below
``baseline * (1 - tolerance)`` fails, as does a fresh run whose own
equivalence checks failed.

The script also gates detection *quality*: when the baseline JSON is a
``repro workload run --json`` report (it has a ``systems`` table,
``QUALITY_baseline.json``), the comparison switches to the §4.3 rules —
any attack missed by a stateful system fails, and so does a false-alarm
rate above the committed floor.  Fresh results
*above* the baseline are reported as an improvement (and a nudge to
re-commit the baseline), never a failure.
"""

from __future__ import annotations

import argparse
import json
import sys

HEADLINE = {
    "shard_scaling": "scaling_at_gate",
    "forensics": "throughput_ratio",
    "resilience": "throughput_ratio",
    "observability": "throughput_ratio",
    "workload": "frames_per_second",
    "overload": "shed_precision",
}

# Detection-quality gate (QUALITY_baseline.json vs a fresh
# `repro workload run --json` report): only the stateful systems are
# gated — the Snort-like strawman's numbers are the paper's comparison
# point, not a promise.
QUALITY_GATED_SYSTEMS = ("engine", "cluster")

# Absolute floor for sampled cluster tracing (observability bench): a
# 2-worker cluster tracing at the default 1-in-N session rate must keep
# >= 95% of the untraced cluster's throughput.  Absolute rather than
# baseline-relative because the ratio is a same-machine comparison —
# box speed cancels out.
CLUSTER_TRACE_RATIO_FLOOR = 0.95


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_quality(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Gate a fresh detection-quality report against the committed floor.

    Fails when a stateful system misses any attack, or when its
    false-alarm rate rises above the committed rate plus the relative
    tolerance.  The trace itself must still carry every attack kind the
    baseline promises (a generator regression that silently drops an
    attack must not pass as "nothing missed").
    """
    failures: list[str] = []
    base_counts = baseline.get("attack_counts", {})
    fresh_counts = fresh.get("attack_counts", {})
    for kind, count in sorted(base_counts.items()):
        have = int(fresh_counts.get(kind, 0))
        if have < int(count):
            failures.append(
                f"trace lost attack coverage: {kind} has {have} instance(s), "
                f"baseline promises {count}"
            )
    for system in QUALITY_GATED_SYSTEMS:
        base_sys = baseline.get("systems", {}).get(system)
        if base_sys is None:
            continue
        fresh_sys = fresh.get("systems", {}).get(system)
        if fresh_sys is None:
            failures.append(f"fresh report has no {system!r} system")
            continue
        missed = int(fresh_sys.get("missed", 0))
        base_rate = float(base_sys.get("false_alarm_rate", 0.0))
        fresh_rate = float(fresh_sys.get("false_alarm_rate", 0.0))
        ceiling = base_rate * (1.0 + tolerance) + 1e-9
        print(
            f"quality[{system}]: detected={fresh_sys.get('detected')}/"
            f"{fresh_sys.get('attacks')} missed={missed} "
            f"fa_rate={fresh_rate:.6f} ceiling={ceiling:.6f}"
        )
        if missed > 0:
            failures.append(f"{system} missed {missed} attack(s)")
        if fresh_rate > ceiling:
            failures.append(
                f"{system} false-alarm rate {fresh_rate:.6f} exceeds the "
                f"committed floor {base_rate:.6f} (+{tolerance:.0%})"
            )
    strawman = fresh.get("systems", {}).get("baseline")
    if strawman is not None:
        print(
            f"quality[baseline strawman, not gated]: "
            f"detected={strawman.get('detected')}/{strawman.get('attacks')} "
            f"false_alarms={strawman.get('false_alarms')}"
        )
    return failures


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures = []
    bench = baseline.get("bench")
    if fresh.get("bench") != bench:
        failures.append(
            f"bench kind mismatch: baseline {bench!r} vs fresh {fresh.get('bench')!r}"
        )
        return failures
    metric = HEADLINE.get(bench)
    if metric is None:
        failures.append(f"unknown bench kind {bench!r} (no headline metric)")
        return failures
    if not fresh.get("equivalent", False):
        failures.append("fresh run failed its own detection-equivalence check")
    base_value = float(baseline.get(metric, 0.0))
    fresh_value = float(fresh.get(metric, 0.0))
    floor = base_value * (1.0 - tolerance)
    print(
        f"{bench}: {metric} baseline={base_value:.3f} fresh={fresh_value:.3f} "
        f"floor={floor:.3f} (tolerance {tolerance:.0%})"
    )
    if fresh_value < floor:
        failures.append(
            f"{metric} regressed: {fresh_value:.3f} < {floor:.3f} "
            f"(baseline {base_value:.3f} - {tolerance:.0%})"
        )
    elif fresh_value > base_value:
        print(
            f"note: {metric} improved ({fresh_value:.3f} > {base_value:.3f}); "
            "consider re-committing the baseline"
        )
    if bench == "observability" and "cluster_trace_ratio" in fresh:
        trace_ratio = float(fresh["cluster_trace_ratio"])
        print(
            f"observability: cluster_trace_ratio fresh={trace_ratio:.3f} "
            f"floor={CLUSTER_TRACE_RATIO_FLOOR:.2f} (absolute)"
        )
        if trace_ratio < CLUSTER_TRACE_RATIO_FLOOR:
            failures.append(
                f"sampled cluster tracing throughput ratio {trace_ratio:.3f} "
                f"< {CLUSTER_TRACE_RATIO_FLOOR:.2f} of the untraced cluster"
            )
    if bench == "workload":
        # The generator bench pins what it generates: a trace that moved
        # is a different workload, whatever its throughput.
        for key in ("trace_digest", "truth_digest", "frames"):
            print(f"workload: {key} baseline={baseline.get(key)} fresh={fresh.get(key)}")
            if fresh.get(key) != baseline.get(key):
                failures.append(
                    f"workload {key} drifted: {fresh.get(key)} != "
                    f"baseline {baseline.get(key)}"
                )
    if bench == "overload":
        # Spelled out on top of the `equivalent` roll-up so a failure
        # names the broken guarantee, not just "equivalence failed".
        for flag, message in (
            ("reached_shed", "controller never reached shed under the flood"),
            ("recovered", "controller did not recover to normal after the flood"),
            ("innocent_untouched", "an innocent plane or source was shed"),
        ):
            print(f"overload: {flag}={bool(fresh.get(flag, False))}")
            if not fresh.get(flag, False):
                failures.append(f"overload guarantee broken: {message}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument(
        "--fresh", required=True, help="freshly produced JSON from this run"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed relative drop from baseline (default 20%%)",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    if "systems" in baseline:
        # Detection-quality reports have no "bench" kind — they are the
        # full §4.3 report from `repro workload run --json`.
        failures = compare_quality(baseline, fresh, args.tolerance)
    else:
        failures = compare(baseline, fresh, args.tolerance)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
