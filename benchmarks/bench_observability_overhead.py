"""Observability overhead: what instrumentation costs the hot path.

The ROADMAP's north star is throughput; the observability layer only
earns its place if it is free when off and cheap when on.  This bench
replays the same mixed workload through four engine configurations:

* **off** — no observability (the default; identical code path to the
  seed engine behind one ``is None`` check);
* **metrics** — counters + per-stage histograms only (summaries, rule
  cost sampling and the latency-budget detector disabled);
* **metrics full** — metrics plus the streaming quantile summaries,
  sampled per-rule cost accounting and the latency-budget detector;
* **metrics+trace** — everything, including per-frame span records.

and prints the frames/s and relative overhead for each.  Wall-clock
assertions in the pytest half are deliberately loose (CI machines are
noisy); the printed table carries the real numbers.

Standalone mode measures the *summaries + cost sampling* increment
(metrics full vs metrics) with paired-round CPU timing (see
``_paired_cpu_ratio``) and writes the regression-gate JSON::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py \
        --json BENCH_obs.json

The headline is ``throughput_ratio`` (full / metrics-only); the
acceptance budget is >= 0.95 (at most 5% overhead for the new
features).  A second gated number, ``cluster_trace_ratio``, compares a
2-worker cluster with sampled cross-process tracing (the shipped
1-in-N default) against the same cluster untraced — proving the
tracing plane also costs <= 5% where it actually runs.  Both gated
ratios come from the drift-robust paired-CPU estimator (see
``_paired_cpu_ratio``) — plain wall-clock best-of-N flakes a 5% gate
on a drifting shared runner.  Exits non-zero when either ratio misses
``--min-ratio`` or any configuration changes detection output.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import pytest

from repro.core.engine import ScidiveEngine
from repro.experiments.report import format_stage_summary, format_table
from repro.experiments.workloads import WorkloadSpec, capture_workload
from repro.obs import Observability
from repro.voip.testbed import CLIENT_A_IP


@pytest.fixture(scope="module")
def workload():
    return capture_workload(WorkloadSpec(calls=4, ims=4, churn_rounds=3, seed=51))


def make_metrics_base() -> Observability:
    """Counters + histograms only: the pre-summary instrumentation."""
    ctx = Observability.create(trace=False)
    ctx.summaries = False
    ctx.cost_sample_rate = 0
    ctx.frame_budget = 0.0
    return ctx


def make_metrics_full() -> Observability:
    """Summaries + cost sampling + latency budget, at their defaults."""
    return Observability.create(trace=False)


def _replay(workload, observability=None):
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=observability)
    engine.process_trace(workload)
    return engine


def _time_replay(workload, make_obs, repeats: int = 3) -> tuple[float, ScidiveEngine]:
    """Best-of-N engine-internal cpu_seconds for one configuration."""
    best = float("inf")
    engine = None
    for _ in range(repeats):
        candidate = _replay(workload, make_obs())
        if candidate.stats.cpu_seconds < best:
            best = candidate.stats.cpu_seconds
            engine = candidate
    return best, engine


def test_overhead_matrix(workload, emit):
    base_s, base_engine = _time_replay(workload, lambda: None)
    metrics_s, metrics_engine = _time_replay(
        workload, lambda: Observability.create(trace=False)
    )
    trace_s, trace_engine = _time_replay(
        workload, lambda: Observability.create(trace=True)
    )
    frames = len(workload)

    def row(label, seconds):
        overhead = (seconds / base_s - 1.0) * 100.0
        return [
            label,
            f"{frames / seconds:,.0f}",
            f"{seconds * 1e3:.2f}",
            f"{overhead:+.1f}%",
        ]

    emit(
        format_table(
            ["configuration", "frames/s", "cpu (ms)", "overhead vs off"],
            [
                row("observability off", base_s),
                row("metrics only", metrics_s),
                row("metrics + trace", trace_s),
            ],
            title=f"Observability overhead — {frames} frames, best of 3",
        )
    )
    emit("")
    emit(
        format_stage_summary(
            trace_engine.stage_summary(),
            title="Per-stage latency (metrics + trace run)",
        )
    )

    # Same verdicts in every configuration — instrumentation must never
    # change detection behaviour.
    assert base_engine.stats.footprints == metrics_engine.stats.footprints
    assert base_engine.stats.events == trace_engine.stats.events
    assert len(base_engine.alerts) == len(trace_engine.alerts)
    # The disabled path carries no instrumentation state at all.
    assert base_engine.observability is None and not base_engine.metrics_enabled
    # Loose ceilings: target is <10% for metrics-only (printed above);
    # asserted at 75% so a noisy CI box cannot flake the suite.
    assert metrics_s < base_s * 1.75
    assert trace_s < base_s * 2.5


def test_summary_cost_overhead(workload, emit):
    """Summaries + cost sampling + latency budget vs plain metrics."""
    base_s, base_engine = _time_replay(workload, make_metrics_base)
    full_s, full_engine = _time_replay(workload, make_metrics_full)
    frames = len(workload)
    ratio = base_s / full_s
    emit(
        f"metrics only: {frames / base_s:,.0f} frames/s  "
        f"metrics full: {frames / full_s:,.0f} frames/s  "
        f"ratio {ratio:.3f} ({(1 / ratio - 1) * 100:+.1f}% overhead)"
    )

    # Detection output must be identical with and without the new layer.
    assert base_engine.stats.footprints == full_engine.stats.footprints
    assert base_engine.stats.events == full_engine.stats.events
    assert len(base_engine.alerts) == len(full_engine.alerts)

    # The full configuration actually produced summary + cost data.
    registry = full_engine.metrics_registry()
    text = registry.render_prometheus()
    assert "scidive_frame_latency_seconds" in text
    assert "scidive_stage_latency_seconds" in text
    # Rule cost needs events that actually reach rule candidates; the
    # benign workload has none, so replay an attack densely sampled.
    from repro.experiments.harness import run_bye_attack

    attack_trace = run_bye_attack(seed=7).testbed.ids_tap.trace
    ctx = make_metrics_full()
    ctx.cost_sample_rate = 2
    attack_engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=ctx)
    attack_engine.process_trace(attack_trace)
    costed = [r for r in attack_engine.ruleset.rules if r.cost_samples]
    assert costed, "cost sampling recorded no rule timings"
    assert attack_engine.ruleset.top_cost(3)[0]["cost_seconds"] > 0.0
    # ...and the base configuration carries none of it.
    base_text = base_engine.metrics_registry().render_prometheus()
    assert "scidive_frame_latency_seconds" not in base_text
    assert full_engine.latency_budget is not None
    assert base_engine.latency_budget is None

    # Target is <=5% (enforced by the standalone gate with interleaved
    # timing); asserted loose here so a noisy CI box cannot flake.
    assert full_s < base_s * 1.5


def test_disabled_engine_throughput(benchmark, workload, emit):
    """pytest-benchmark record for the off configuration (seed-comparable)."""
    engine = benchmark(lambda: _replay(workload))
    rate = engine.stats.frames / engine.stats.cpu_seconds
    emit(f"observability off: {rate:,.0f} frames/s (engine-internal)")
    assert engine.stats.alerts == 0  # benign workload
    assert rate > 1000


def test_instrumented_engine_throughput(benchmark, workload, emit):
    engine = benchmark(
        lambda: _replay(workload, Observability.create(trace=True))
    )
    rate = engine.stats.frames / engine.stats.cpu_seconds
    emit(f"metrics + trace: {rate:,.0f} frames/s (engine-internal)")
    registry = engine.metrics_registry()
    assert registry is not None
    text = registry.render_prometheus()
    assert "scidive_stage_seconds" in text and "scidive_frames_total" in text
    assert rate > 500


def test_span_recording_cost(emit):
    """Microbench: raw cost of one Tracer.record call."""
    from repro.obs import Tracer

    tracer = Tracer()
    n = 50_000
    started = time.perf_counter()
    for i in range(n):
        tracer.record("distill", 1e-6, frame=i, sim_time=0.1)
    per_span = (time.perf_counter() - started) / n
    emit(f"Tracer.record: {per_span * 1e9:,.0f} ns/span")
    assert len(tracer.spans) == n
    assert per_span < 50e-6  # generous; typically < 2 µs


# -- standalone regression gate -----------------------------------------------

CONFIGS = {
    "off": lambda: None,
    "base": make_metrics_base,
    "full": make_metrics_full,
}


def _signature(engine: ScidiveEngine):
    return [(a.rule_id, a.time, a.session, a.message) for a in engine.alerts]


def _timed_replay(trace, observability) -> tuple[float, ScidiveEngine]:
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=observability)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        engine.process_trace(trace)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, engine


def _interleaved_timings(trace, repeats: int) -> dict[str, dict]:
    """Best-of-N per configuration, rotated round-robin within rounds.

    Sequential best-of-N is dominated by CPU-frequency and thermal drift
    on shared runners — the same config can swing 20% between blocks,
    swamping a 5% effect.  Interleaving puts every configuration inside
    each drift window, and rotating the order each round removes the
    position-in-round bias (the first slot after a gc.collect is
    consistently the fastest), so the per-round *differences* are what
    survive the best-of reduction.
    """
    best: dict[str, float] = {name: float("inf") for name in CONFIGS}
    engines: dict[str, ScidiveEngine] = {}
    names = list(CONFIGS)
    for round_no in range(repeats):
        shift = round_no % len(names)
        for name in names[shift:] + names[:shift]:
            elapsed, engine = _timed_replay(trace, CONFIGS[name]())
            if elapsed < best[name]:
                best[name] = elapsed
                engines[name] = engine
    frames = len(trace)
    return {
        name: {
            "seconds": best[name],
            "frames_per_second": frames / best[name],
            "events": engines[name].stats.events,
            "alerts": engines[name].stats.alerts,
            "engine": engines[name],
        }
        for name in CONFIGS
    }


def _attack_equivalence(seed: int) -> dict:
    """Replay each paper attack under every configuration; alerts must
    be identical and each attack's rule must still fire."""
    from repro.experiments.harness import (
        run_bye_attack,
        run_call_hijack,
        run_fake_im,
        run_rtp_attack,
    )

    attacks = {
        "bye-attack": (run_bye_attack, "BYE-001"),
        "call-hijack": (run_call_hijack, "HIJACK-001"),
        "fake-im": (run_fake_im, "FAKEIM-001"),
        "rtp-attack": (run_rtp_attack, "RTP-003"),
    }
    results = {}
    for name, (runner, rule_id) in attacks.items():
        trace = runner(seed=seed).testbed.ids_tap.trace
        signatures = {}
        for mode, make_obs in CONFIGS.items():
            engine = ScidiveEngine(
                vantage_ip=CLIENT_A_IP, observability=make_obs()
            )
            engine.process_trace(trace)
            signatures[mode] = _signature(engine)
        detected = any(sig[0] == rule_id for sig in signatures["full"])
        results[name] = {
            "rule": rule_id,
            "alerts": len(signatures["full"]),
            "detected": detected,
            "identical": len(set(map(tuple, signatures.values()))) == 1,
        }
    return results


def _paired_cpu_ratio(run_baseline, run_measured, repeats: int) -> dict:
    """Drift-robust CPU ratio of two configurations (baseline / measured).

    Each round runs the two configurations in an ABBA order (which of
    the two leads alternates per round) and contributes one ratio of
    the round's summed CPU — ABBA sums cancel linear drift *within* a
    round exactly, and pairing keeps both legs of every ratio inside
    the same drift window.  Two drift-robust estimators then come from
    the same samples: the **median** of the per-round ratios (discards
    heavy-tailed rounds, but reads low when a throttling window covers
    most of the phase) and the **ratio of per-mode best** CPU times
    (the classic noise-floor estimate, immune to persistent throttling
    because each mode's fastest replay lands in an unthrottled window,
    but fragile when one mode never visits that window).  Measurement
    noise on CPU time is strictly additive — contention, frequency
    steps and cache pollution only ever inflate it — so each estimator
    errs toward *overstating* overhead and the one closer to the noise
    floor is the better estimate of the true ratio: the headline takes
    the larger of the two.
    """
    import statistics

    runners = {"baseline": run_baseline, "measured": run_measured}
    names = ("baseline", "measured")
    per_round: list[float] = []
    cpu_best = {name: float("inf") for name in names}
    results: dict = {}
    # Warm-up replay per leg: primes allocator and import caches so the
    # first measured round is not systematically cold.
    for name in names:
        runners[name]()
    for round_no in range(repeats):
        first, second = names if round_no % 2 == 0 else names[::-1]
        secs = {first: 0.0, second: 0.0}
        for name in (first, second, second, first):
            cpu, payload = runners[name]()
            secs[name] += cpu
            cpu_best[name] = min(cpu_best[name], cpu)
            results[name] = payload
        per_round.append(secs["baseline"] / secs["measured"])
    median_ratio = statistics.median(per_round)
    best_ratio = cpu_best["baseline"] / cpu_best["measured"]
    return {
        "repeats": repeats,
        "round_ratios": [round(r, 4) for r in per_round],
        "median_ratio": median_ratio,
        "best_ratio": best_ratio,
        "ratio": max(median_ratio, best_ratio),
        "cpu_best": cpu_best,
        "results": results,
    }


def _timed_engine_cpu(trace, make_obs):
    """One single-engine replay, thread-CPU timed (gc parked).

    ``thread_time`` rather than the engine's own wall-clock
    ``cpu_seconds``: on a shared runner the wall clock charges the
    engine for time it spent descheduled, which is exactly the noise
    the paired estimator is trying to exclude.
    """
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=make_obs())
    gc.collect()
    gc.disable()
    try:
        cpu0 = time.thread_time()
        engine.process_trace(trace)
        cpu = time.thread_time() - cpu0
    finally:
        gc.enable()
    return cpu, engine


def _summary_cost_overhead(trace, repeats: int) -> dict:
    """Gated ratio #1: metrics-full vs metrics-base on a single engine."""
    paired = _paired_cpu_ratio(
        lambda: _timed_engine_cpu(trace, make_metrics_base),
        lambda: _timed_engine_cpu(trace, make_metrics_full),
        repeats,
    )
    frames = len(trace)
    base = paired["results"]["baseline"]
    full = paired["results"]["measured"]
    return {
        "repeats": repeats,
        "base_cpu_seconds": paired["cpu_best"]["baseline"],
        "full_cpu_seconds": paired["cpu_best"]["measured"],
        "base_frames_per_second": frames / paired["cpu_best"]["baseline"],
        "full_frames_per_second": frames / paired["cpu_best"]["measured"],
        "round_ratios": paired["round_ratios"],
        "median_ratio": paired["median_ratio"],
        "best_ratio": paired["best_ratio"],
        "ratio": paired["ratio"],
        "identical": (
            base.stats.footprints == full.stats.footprints
            and base.stats.events == full.stats.events
            and _signature(base) == _signature(full)
        ),
    }


def _timed_cluster_replay(trace, *, traced: bool):
    """One 2-worker serial-backend cluster replay, CPU-timed.

    The measurement is the workers' scheduler-aware CPU self-accounting
    (``busy_seconds``: ``thread_time`` inside the worker loop), not wall
    clock — wall clock over a multi-process cluster on a shared runner swings
    10-20% with CPU-frequency drift and GIL scheduling, an order of
    magnitude more than the ~5% effect being gated.  The serial backend
    runs the identical routing, gating, span and merge code (the tracing
    plane is backend-agnostic), so its CPU cost is the honest per-frame
    price of ``--trace-out``.  The traced leg runs the shipped default
    (head sampling at 1-in-``DEFAULT_TRACE_SAMPLE_RATE`` sessions).
    """
    from repro.cluster import ScidiveCluster

    cluster = ScidiveCluster(
        workers=2,
        backend="serial",
        vantage_ip=CLIENT_A_IP,
        metrics_enabled=True,
        trace_enabled=traced,
    )
    gc.collect()
    gc.disable()
    try:
        result = cluster.process_trace(trace)
    finally:
        gc.enable()
    cpu = sum(worker.busy_seconds for worker in result.workers)
    return cpu, result


def _cluster_trace_overhead(trace, repeats: int) -> dict:
    """Gated ratio #2: sampled cluster tracing vs the untraced cluster."""
    paired = _paired_cpu_ratio(
        lambda: _timed_cluster_replay(trace, traced=False),
        lambda: _timed_cluster_replay(trace, traced=True),
        repeats,
    )
    frames = len(trace)
    untraced = paired["results"]["baseline"]
    traced = paired["results"]["measured"]
    return {
        "workers": 2,
        "backend": "serial",
        "repeats": repeats,
        "untraced_cpu_seconds": paired["cpu_best"]["baseline"],
        "traced_cpu_seconds": paired["cpu_best"]["measured"],
        "untraced_frames_per_second": frames / paired["cpu_best"]["baseline"],
        "traced_frames_per_second": frames / paired["cpu_best"]["measured"],
        "round_ratios": paired["round_ratios"],
        "median_ratio": paired["median_ratio"],
        "best_ratio": paired["best_ratio"],
        "merged_spans": len(traced.trace or []),
        "spans_dropped": traced.cluster.spans_dropped,
        "ratio": paired["ratio"],
        "identical": untraced.alert_multiset() == traced.alert_multiset(),
    }


def _cluster_trace_equivalence(seed: int) -> dict:
    """Full-rate tracing on the bye attack: verdicts untouched and the
    merged timeline carries the complete journey for every alert."""
    import collections

    from repro.cluster import ScidiveCluster
    from repro.experiments.harness import run_bye_attack

    reference = run_bye_attack(seed=seed)
    cluster = ScidiveCluster(
        workers=2,
        backend="process",
        vantage_ip=reference.engine.vantage_ip,
        trace_enabled=True,
        trace_sample_rate=1,
    )
    result = cluster.process_trace(reference.testbed.ids_tap.trace)
    stages = {record["span"] for record in result.trace}
    return {
        "alerts": len(result.alerts),
        "identical": result.alert_multiset()
        == collections.Counter(reference.alerts),
        "journey_complete": {"route", "queue-wait", "match"} <= stages,
        "merged_spans": len(result.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write machine-readable results here")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.95,
        help="fail if full/base throughput ratio < this "
        "(0.95 = at most 5%% summary+cost overhead)",
    )
    parser.add_argument(
        "--repeats", type=int, default=10, help="interleaved timing rounds (best-of-N)"
    )
    parser.add_argument("--calls", type=int, default=6)
    parser.add_argument("--ims", type=int, default=6)
    parser.add_argument("--churn-rounds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=51)
    args = parser.parse_args(argv)

    spec = WorkloadSpec(
        calls=args.calls, ims=args.ims, churn_rounds=args.churn_rounds, seed=args.seed
    )
    trace = capture_workload(spec)
    print(f"workload: {len(trace)} frames, {trace.duration:.1f} s of sim time")

    timings = _interleaved_timings(trace, args.repeats)
    engines = {name: row.pop("engine") for name, row in timings.items()}
    for name in CONFIGS:
        row = timings[name]
        print(
            f"observability {name:4s}: {row['seconds'] * 1e3:8.2f} ms  "
            f"{row['frames_per_second']:10,.0f} frames/s"
        )

    gate = _summary_cost_overhead(trace, repeats=max(9, args.repeats))
    ratio = gate["ratio"]
    print(
        f"throughput ratio (full / base): {ratio:.3f} "
        f"({(1 / ratio - 1) * 100:+.1f}% summary+cost overhead; "
        f"median {gate['median_ratio']:.3f} / best-of {gate['best_ratio']:.3f} "
        f"over {gate['repeats']} paired rounds)"
    )

    workload_identical = (
        len({e.stats.footprints for e in engines.values()}) == 1
        and len({e.stats.events for e in engines.values()}) == 1
        and len(set(map(tuple, map(_signature, engines.values())))) == 1
    )
    print(f"workload detection identical across configs: {workload_identical}")

    attacks = _attack_equivalence(seed=7)
    for name, row in attacks.items():
        ok = row["identical"] and row["detected"]
        print(
            f"attack {name:12s}: {row['alerts']} alerts, "
            f"{row['rule']} {'detected' if row['detected'] else 'MISSED'}, "
            f"{'identical' if row['identical'] else 'DIVERGED'} "
            f"[{'ok' if ok else 'FAIL'}]"
        )

    cluster = _cluster_trace_overhead(trace, repeats=max(9, args.repeats))
    print(
        f"cluster (2 workers, serial) untraced: "
        f"{cluster['untraced_frames_per_second']:10,.0f} frames/s (CPU)  "
        f"traced@default-rate: {cluster['traced_frames_per_second']:10,.0f} "
        f"frames/s  ratio {cluster['ratio']:.3f} "
        f"(median {cluster['median_ratio']:.3f} / best-of "
        f"{cluster['best_ratio']:.3f} over {cluster['repeats']} paired rounds)"
    )
    cluster_eq = _cluster_trace_equivalence(seed=7)
    print(
        f"cluster tracing at rate 1: {cluster_eq['merged_spans']} merged "
        f"spans, alerts {'identical' if cluster_eq['identical'] else 'DIVERGED'}, "
        f"journey {'complete' if cluster_eq['journey_complete'] else 'INCOMPLETE'}"
    )

    equivalent = (
        workload_identical
        and gate["identical"]
        and all(r["identical"] and r["detected"] for r in attacks.values())
    )
    cluster_ok = (
        cluster["identical"]
        and cluster_eq["identical"]
        and cluster_eq["journey_complete"]
    )
    passed = (
        equivalent
        and cluster_ok
        and ratio >= args.min_ratio
        and cluster["ratio"] >= args.min_ratio
    )

    result = {
        "bench": "observability",
        "workload": {
            "frames": len(trace),
            "calls": args.calls,
            "ims": args.ims,
            "churn_rounds": args.churn_rounds,
            "seed": args.seed,
        },
        "repeats": args.repeats,
        "timings": timings,
        "summary_cost": gate,
        "throughput_ratio": ratio,
        "cluster_trace_ratio": cluster["ratio"],
        "cluster": cluster,
        "cluster_equivalence": cluster_eq,
        "min_ratio": args.min_ratio,
        "attacks": attacks,
        "equivalent": equivalent,
        "passed": passed,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if not equivalent:
        print("FAIL: instrumentation changed detection output", file=sys.stderr)
        return 1
    if not cluster_ok:
        print("FAIL: cluster tracing changed detection output or lost the "
              "journey", file=sys.stderr)
        return 1
    if ratio < args.min_ratio:
        print(f"FAIL: ratio {ratio:.3f} < {args.min_ratio}", file=sys.stderr)
        return 1
    if cluster["ratio"] < args.min_ratio:
        print(f"FAIL: cluster trace ratio {cluster['ratio']:.3f} < "
              f"{args.min_ratio}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
