"""Command-line interface: run scenarios, replay captures, print Table 1.

Usage::

    python -m repro scenario bye-attack [--seed 7] [--pcap out.pcap] [--json alerts.jsonl]
                                        [--workers 4] [--batch-size 64]
                                        [--metrics-out m.txt] [--trace-out t.jsonl]
                                        [--serve-http 8080] [--serve-linger 10]
                                        [--bundle-dir bundles/]
    python -m repro replay capture.pcap [--vantage 10.0.0.10] [--json alerts.jsonl]
                                        [--workers 4] [--cluster-backend process]
                                        [--metrics-out m.txt] [--trace-out t.jsonl]
                                        [--serve-http 8080] [--bundle-dir bundles/]
    python -m repro explain scidive-1 --bundle-dir bundles/
    python -m repro chaos [--seed 7] [--workers 4] [--json chaos.json]
    python -m repro bench-shards [--workers 1 2 4 8] [--json BENCH_shards.json]
    python -m repro stats bye-attack [--seed 7] [--format table|prom|json]
    python -m repro rules check src/repro/rulespec/packs/ [pack.rules ...]
    python -m repro rules show src/repro/rulespec/packs/scidive-core.rules
    python -m repro rules reload --pack custom.rules [--port 8080]
    python -m repro top [--port 8080] [--interval 1.0] [--once]
    python -m repro trace <call-id|alert-id|trace-id> [--trace-file t.jsonl]
    python -m repro profile [--scenario bye-attack] [--once] [--out hot.collapsed]
    python -m repro table1 [--seed 7]
    python -m repro modules
    python -m repro list

``scenario`` drives the full simulated testbed (attack or benign),
``replay`` runs the IDS offline over a standard pcap (``--broadcast``
disables indexed dispatch for A/B comparison), ``stats`` runs a
scenario with full observability and prints the per-stage/per-rule
report, ``table1`` regenerates the paper's attack matrix, ``modules``
lists the registered protocol modules with their generators and rules.
``bench-shards`` sweeps the session-sharded cluster across worker
counts.  ``--workers N`` (scenario/replay) shards the replay across N
worker engines by session affinity (see :mod:`repro.cluster`);
``--metrics-out`` writes Prometheus-text metrics, ``--trace-out``
writes a JSON-lines span trace; ``--log-level`` turns on structured
logging for any command.

Forensics surface: ``--serve-http PORT`` (scenario/replay) runs the
observability sidecar (``/metrics``, ``/metrics/history``, ``/healthz``,
``/alerts``) for the duration of the run plus ``--serve-linger``
seconds — ``repro top`` renders a live dashboard over it; ``--bundle-dir``
makes every alert write an evidence bundle (JSON + pcap) there, and
``explain`` renders one bundle by alert id.

Rule packs (:mod:`repro.rulespec`): ``replay --rules PACK`` compiles the
detection policy from a ``.rules`` file instead of the built-in rule
classes (single engine and ``--workers N`` alike); ``rules check`` lints
packs with line-anchored diagnostics (exit 1 on errors — CI runs it);
``rules show`` prints a pack's identity (name@version+hash) and compiled
rules; ``rules reload`` hot-swaps the pack on a *running* engine or
cluster through its ``--serve-http`` sidecar (``POST /rules/reload``).

Cluster tracing works at any worker count: under ``--workers N`` the
router head-samples sessions by shard key (``--trace-sample``, default
1 = every session), workers record spans gated on the propagated trace
context, and ``--trace-out`` writes the merged time-sorted timeline.
``repro trace <id>`` renders one call's journey (sharder → queue →
pipeline stages → alert) from that file or a live ``/trace`` endpoint;
``repro profile`` samples a replay's hot path into collapsed-stack
(flamegraph-ready) form, and ``--profile-out DIR`` attaches the same
sampler to every cluster worker.
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from contextlib import contextmanager as _contextmanager
from typing import Callable, Sequence

from repro import obs
from repro.core.export import write_alerts_jsonl
from repro.experiments.harness import (
    BENIGN_KINDS,
    ExperimentResult,
    run_benign,
    run_billing_fraud,
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_password_guess,
    run_register_dos,
    run_rtcp_bye_attack,
    run_rtp_attack,
    run_ssrc_spoof,
)
from repro.experiments.report import format_stage_summary, format_table

# ScidiveCluster's backends (repro.cluster.cluster.BACKENDS), spelled out
# so building the parser does not import the cluster.
CLUSTER_BACKENDS = ("process", "serial")

ATTACK_SCENARIOS: dict[str, Callable[..., ExperimentResult]] = {
    "bye-attack": run_bye_attack,
    "call-hijack": run_call_hijack,
    "fake-im": run_fake_im,
    "rtp-attack": run_rtp_attack,
    "register-dos": run_register_dos,
    "password-guess": run_password_guess,
    "billing-fraud": run_billing_fraud,
    "rtcp-bye": run_rtcp_bye_attack,
    "ssrc-spoof": run_ssrc_spoof,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SCIDIVE reproduction command line"
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="enable structured logging at this level",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of key=value text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="run an attack or benign scenario")
    scenario.add_argument("name", help="scenario name (see `repro list`)")
    scenario.add_argument("--seed", type=int, default=7)
    scenario.add_argument("--pcap", help="write the tap capture to this pcap file")
    scenario.add_argument("--json", help="write alerts to this JSON-lines file")
    _add_cluster_flags(scenario)
    _add_obs_flags(scenario)
    _add_serve_flags(scenario)

    replay = sub.add_parser("replay", help="replay a pcap through the IDS")
    replay.add_argument("pcap", help="pcap file (LINKTYPE_ETHERNET)")
    replay.add_argument("--vantage", default=None,
                        help="protected endpoint IP (default: network-wide)")
    replay.add_argument("--json", help="write alerts to this JSON-lines file")
    replay.add_argument("--broadcast", action="store_true",
                        help="disable indexed dispatch (reference fan-out mode)")
    replay.add_argument("--rules", default=None, metavar="PACK",
                        help="compile the detection policy from this .rules "
                             "pack instead of the built-in rule classes")
    _add_cluster_flags(replay)
    _add_obs_flags(replay)
    _add_serve_flags(replay)

    explain = sub.add_parser(
        "explain", help="render an alert's evidence bundle (graph + timeline)"
    )
    explain.add_argument("alert_id", help="alert id, e.g. scidive-1 (see /alerts "
                                          "or the bundle filenames)")
    explain.add_argument("--bundle-dir", default=".",
                         help="directory holding <alert-id>.json bundles")

    bench = sub.add_parser(
        "bench-shards",
        help="sweep the session-sharded cluster across worker counts",
    )
    bench.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8],
                       help="worker counts to sweep")
    bench.add_argument("--cluster-backend", default="process",
                       choices=CLUSTER_BACKENDS,
                       help="worker transport (default: process)")
    bench.add_argument("--batch-size", type=int, default=64)
    bench.add_argument("--sessions", type=int, default=96,
                       help="distinct synthetic media sessions in the workload")
    bench.add_argument("--packets", type=int, default=40,
                       help="RTP packets per media session")
    bench.add_argument("--seed", type=int, default=33)
    bench.add_argument("--json", help="write the sweep report to this JSON file")

    chaos = sub.add_parser(
        "chaos",
        help="replay the paper attacks under fault injection and check "
             "the crash-safety invariants",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--attacks", nargs="+", default=None,
                       help="attacks to replay (default: all four paper attacks)")
    chaos.add_argument("--workers", type=int, default=0,
                       help="0 = single engine; N = ScidiveCluster with N "
                            "process workers, checkpointing on, crash "
                            "injection")
    chaos.add_argument("--no-crashes", action="store_true",
                       help="skip worker crash injection (cluster mode)")
    chaos.add_argument("--mutation-rate", type=float, default=0.25,
                       help="probability a media frame spawns a mutated copy")
    chaos.add_argument("--flood", type=int, default=0, metavar="N",
                       help="interleave an N-frame INVITE/RTP flood from one "
                            "attacker host and check the overload controller "
                            "sheds it without losing the paper-attack alerts "
                            "(with --workers > 0)")
    chaos.add_argument("--json", help="write the chaos report to this JSON file")

    stats = sub.add_parser(
        "stats", help="run a scenario with full observability and report"
    )
    stats.add_argument("name", help="scenario name (see `repro list`)")
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument("--format", choices=["table", "prom", "json"], default="table",
                       help="report format: human tables, Prometheus text, or JSON")
    _add_obs_flags(stats)

    rules = sub.add_parser(
        "rules", help="lint, inspect and hot-reload detection rule packs"
    )
    rules_sub = rules.add_subparsers(dest="rules_command", required=True)
    check = rules_sub.add_parser(
        "check", help="lint rule packs (exit 1 on any error)"
    )
    check.add_argument("paths", nargs="+", metavar="PACK",
                       help=".rules file or a directory to scan recursively")
    show = rules_sub.add_parser(
        "show", help="print a pack's identity and compiled rules"
    )
    show.add_argument("pack", metavar="PACK", help=".rules file")
    reload_ = rules_sub.add_parser(
        "reload",
        help="hot-swap the rule pack on a running --serve-http engine/cluster",
    )
    reload_.add_argument("--pack", required=True, metavar="PACK",
                         help=".rules file to load (path is resolved by the "
                              "serving process)")
    reload_.add_argument("--url", default=None,
                         help="sidecar base URL (overrides --host/--port)")
    reload_.add_argument("--host", default="127.0.0.1")
    reload_.add_argument("--port", type=int, default=8080)

    top = sub.add_parser(
        "top", help="live dashboard over a running --serve-http sidecar"
    )
    top.add_argument("--url", default=None,
                     help="sidecar base URL (overrides --host/--port)")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8080)
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds (curses mode)")
    top.add_argument("--window", type=float, default=10.0,
                     help="sliding window for the rate panel, in seconds")
    top.add_argument("--once", action="store_true",
                     help="print one plain-text snapshot and exit "
                          "(no curses; scripts and CI use this)")

    trace_p = sub.add_parser(
        "trace",
        help="frame-journey audit: render one call's path through the "
             "cluster (sharder → queue → pipeline stages → alert)",
    )
    trace_p.add_argument("id", help="trace id, SIP Call-ID, or alert id "
                                    "(alert ids need --bundle-dir)")
    trace_p.add_argument("--trace-file", default="trace.jsonl",
                         help="merged span timeline written by --trace-out "
                              "(default: trace.jsonl)")
    trace_p.add_argument("--url", default=None,
                         help="fetch spans from a live sidecar's /trace "
                              "endpoint instead of --trace-file")
    trace_p.add_argument("--host", default="127.0.0.1")
    trace_p.add_argument("--port", type=int, default=None,
                         help="live sidecar port (implies --url)")
    trace_p.add_argument("--bundle-dir", default=None,
                         help="resolve alert ids through the evidence "
                              "bundles in this directory")
    trace_p.add_argument("--limit", type=int, default=None,
                         help="show at most the last N spans of the journey")

    profile_p = sub.add_parser(
        "profile",
        help="sample a replay's hot path and write a collapsed-stack "
             "(flamegraph-ready) profile",
    )
    profile_p.add_argument("--scenario", default="bye-attack",
                           help="scenario workload to profile "
                                "(see `repro list`; default: bye-attack)")
    profile_p.add_argument("--pcap", default=None,
                           help="profile a pcap replay instead of a scenario")
    profile_p.add_argument("--vantage", default=None,
                           help="protected endpoint IP for --pcap replays")
    profile_p.add_argument("--seed", type=int, default=7)
    profile_p.add_argument("--interval", type=float, default=0.005,
                           help="sampling period in seconds (default 0.005)")
    profile_p.add_argument("--passes", type=int, default=0,
                           help="replay the workload exactly N times "
                                "(default: keep replaying until ctrl-c)")
    profile_p.add_argument("--once", action="store_true",
                           help="replay for about one second of samples and "
                                "exit (CI smoke mode)")
    profile_p.add_argument("--out", default=None,
                           help="collapsed-stack output file "
                                "(default: <workload>.collapsed)")
    profile_p.add_argument("--top", type=int, default=12, dest="top_n",
                           help="rows in the hottest-frames table")

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--seed", type=int, default=7)

    workload = sub.add_parser(
        "workload",
        help="generate labeled virtual-carrier workloads and score "
             "detection quality against ground truth (§4.3)",
    )
    workload_sub = workload.add_subparsers(dest="workload_command", required=True)
    wl_generate = workload_sub.add_parser(
        "generate", help="synthesize a labeled trace and write the artifacts"
    )
    _add_workload_spec_flags(wl_generate)
    wl_generate.add_argument("--out", default="workload-out",
                             help="artifact directory (trace.pcap, truth.json, "
                                  "stats.json)")
    wl_check = workload_sub.add_parser(
        "check", help="lint workload scenario specs (exit 1 on any error)"
    )
    wl_check.add_argument("paths", nargs="+", metavar="SPEC",
                          help=".workload spec file or a directory to scan "
                               "recursively")
    wl_run = workload_sub.add_parser(
        "run",
        help="generate a labeled trace, run the detection systems over it "
             "and print the Section 4.3 quality report",
    )
    _add_workload_spec_flags(wl_run)
    _add_workload_eval_flags(wl_run)
    wl_run.add_argument("--out", default=None,
                        help="also write trace/truth/report artifacts here")
    wl_report = workload_sub.add_parser(
        "report",
        help="score saved artifacts (trace.pcap + truth.json) without "
             "regenerating the workload",
    )
    wl_report.add_argument("--trace", required=True, help="trace pcap file")
    wl_report.add_argument("--truth", required=True,
                           help="ground-truth labels JSON")
    _add_workload_eval_flags(wl_report)

    sub.add_parser("modules", help="list registered protocol modules")
    sub.add_parser("list", help="list available scenarios")
    return parser


def _add_workload_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, metavar="SPEC",
                        help=".workload scenario spec (default: built-in "
                             "200-subscriber scenario)")
    parser.add_argument("--subscribers", type=int, default=None,
                        help="override the population size")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the simulated seconds")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the generator seed")
    parser.add_argument("--start-hour", type=float, default=None,
                        help="override the diurnal clock's starting hour")
    parser.add_argument("--mix", nargs="+", default=None, metavar="KEY=VALUE",
                        help="attack mix overrides: 'attacks=0.01' sets the "
                             "attack-to-benign-session ratio; '<kind>=<count>' "
                             "pins one attack kind (e.g. bye=3 rtp=auto "
                             "register-dos=0)")


def _add_workload_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--systems", nargs="+",
                        default=["engine", "cluster", "baseline"],
                        choices=["engine", "cluster", "baseline"],
                        help="detection systems to score")
    parser.add_argument("--workers", type=int, default=4,
                        help="cluster worker count")
    parser.add_argument("--cluster-backend", default="process",
                        choices=CLUSTER_BACKENDS,
                        help="cluster worker transport")
    parser.add_argument("--overload", action="store_true",
                        help="run the scored cluster with the adaptive "
                             "overload controller enabled (the flood "
                             "scenarios' degraded-mode configuration)")
    parser.add_argument("--sweeps", action="store_true",
                        help="include the threshold-sweep operating curves "
                             "(re-runs the engine per threshold)")
    parser.add_argument("--json", default=None,
                        help="write the quality report to this JSON file")
    parser.add_argument("--fail-on-miss", action="store_true",
                        help="exit 1 if the engine or cluster misses any "
                             "attack (the CI quality gate)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out",
                        help="write Prometheus-text metrics to this file")
    parser.add_argument("--trace-out",
                        help="write the per-frame span trace to this JSON-lines "
                             "file (with --workers N: the merged cluster "
                             "timeline)")
    parser.add_argument("--trace-sample", type=int, default=1, metavar="N",
                        help="cluster tracing: sample 1-in-N sessions "
                             "(default 1 = trace every session)")
    parser.add_argument("--profile-out", default=None, metavar="DIR",
                        help="attach a sampling stack profiler and write "
                             "collapsed-stack profiles (engine.collapsed, or "
                             "worker-N.collapsed per cluster worker) here")


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--serve-http", type=int, metavar="PORT", default=None,
                        help="serve /metrics, /healthz and /alerts on this "
                             "port for the duration of the run (0 = ephemeral)")
    parser.add_argument("--serve-linger", type=float, metavar="SECONDS",
                        default=0.0,
                        help="keep the HTTP sidecar up this long after the "
                             "run finishes (with --serve-http)")
    parser.add_argument("--bundle-dir", default=None,
                        help="write an evidence bundle (JSON + pcap) here for "
                             "every alert; render with `repro explain`")


def _start_server(args: argparse.Namespace):
    """Start the observability sidecar when --serve-http was given."""
    port = getattr(args, "serve_http", None)
    if port is None:
        return None
    from repro.obs.server import ObsServer

    server = ObsServer(port=port).start()
    print(f"observability sidecar on {server.url()} "
          "(/metrics /metrics/history /healthz /alerts /trace)")
    return server


def _linger(server, args: argparse.Namespace) -> None:
    linger = getattr(args, "serve_linger", 0.0) or 0.0
    if server is None or linger <= 0:
        return
    print(f"sidecar serving for another {linger:g}s (ctrl-c to stop early)")
    try:
        _time.sleep(linger)
    except KeyboardInterrupt:
        pass


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="shard the replay across N worker engines (default 1: "
                             "single engine)")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="frames per worker batch (with --workers > 1)")
    parser.add_argument("--cluster-backend", default="process",
                        choices=CLUSTER_BACKENDS,
                        help="worker transport (with --workers > 1)")
    parser.add_argument("--overload", action="store_true",
                        help="enable the adaptive overload controller: "
                             "brownout/shed state machine with a per-source "
                             "penalty box (cluster, or single-engine replay)")


def _cluster_replay(trace, args: argparse.Namespace, vantage: str | None,
                    source=None):
    """Replay a trace through a ScidiveCluster; print the merged view."""
    from repro.cluster import ScidiveCluster

    pack_fields = {}
    rules_path = getattr(args, "rules", None)
    if rules_path:
        from repro.rulespec import load_pack

        pack = load_pack(rules_path)
        # The pack crosses to workers as config primitives, so process
        # workers and post-crash respawns compile the same policy.
        pack_fields = {"pack_text": pack.source_text,
                       "pack_path": pack.source_path}
    trace_out = getattr(args, "trace_out", None)
    profile_dir = getattr(args, "profile_out", None)
    cluster = ScidiveCluster(
        workers=args.workers,
        backend=args.cluster_backend,
        batch_size=args.batch_size,
        vantage_ip=vantage,
        metrics_enabled=bool(
            getattr(args, "metrics_out", None)
            or getattr(args, "serve_http", None) is not None
        ),
        trace_enabled=bool(trace_out),
        trace_sample_rate=max(1, getattr(args, "trace_sample", 1) or 1),
        profile_dir=profile_dir,
        overload_enabled=getattr(args, "overload", False),
        **pack_fields,
    )
    if source is not None:
        # Bind before the replay starts so /healthz and /metrics answer
        # mid-run (router-side view; the merged view appears at stop).
        source.set_cluster(cluster)
    result = cluster.process_trace(trace)
    stats = result.stats
    print(f"cluster replay ({args.workers} workers, {args.cluster_backend}): "
          f"{result.cluster.frames_in} frames in, "
          f"{stats.footprints} footprints, {stats.events} events, "
          f"{len(result.alerts)} alerts, "
          f"{result.cluster.batches_submitted} batches, "
          f"{result.cluster.worker_restarts} restarts")
    status = cluster.overload_status()
    if status is not None:
        shed = result.cluster.frames_shed
        shed_txt = ", ".join(
            f"{plane}={count:,}" for plane, count in sorted(shed.items())
        ) or "none"
        print(f"overload: state={status['state']} "
              f"transitions={status['transitions_total'] or '{}'} "
              f"shed by plane: {shed_txt}")
        heavy = sorted(
            status.get("shed_by_source", {}).items(),
            key=lambda kv: -kv[1],
        )[:5]
        if heavy:
            print("  penalty box: " + "  ".join(
                f"{ip}={count:,}" for ip, count in heavy
            ))
    if trace_out:
        count = obs.write_spans_jsonl(trace_out, result.trace or [])
        dropped = result.cluster.spans_dropped
        suffix = f" ({dropped} dropped at the span cap)" if dropped else ""
        print(f"{count} merged spans written to {trace_out}{suffix}")
    if profile_dir:
        print(f"worker profiles (collapsed stacks) in {profile_dir}/")
    return result


def _print_alerts(result_alerts) -> None:
    if not result_alerts:
        print("no alerts")
        return
    rows = [
        [f"{a.time:9.4f}", a.rule_id, a.severity.name, a.session or "-", a.message]
        for a in result_alerts
    ]
    print(format_table(["t (s)", "rule", "severity", "session", "message"], rows))


def _run_scenario(name: str, seed: int) -> ExperimentResult | None:
    if name in ATTACK_SCENARIOS:
        return ATTACK_SCENARIOS[name](seed=seed)
    if name.removeprefix("benign-") in BENIGN_KINDS:
        return run_benign(name.removeprefix("benign-"), seed=seed)
    return None


def _export_observability(ctx: obs.Observability | None, args: argparse.Namespace,
                          engine=None) -> None:
    if ctx is None:
        return
    if args.metrics_out:
        pack = getattr(engine, "rulepack", None) if engine is not None else None
        obs.set_build_info(ctx.registry, backend="engine",
                           pack=pack.label if pack is not None else None)
        ctx.registry.write_prometheus(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out and ctx.tracer is not None:
        count = ctx.tracer.write_jsonl(args.trace_out)
        print(f"{count} spans written to {args.trace_out}")


@_contextmanager
def _maybe_profile(args: argparse.Namespace, label: str):
    """Attach a sampling profiler for the block when --profile-out was given."""
    out_dir = getattr(args, "profile_out", None)
    if not out_dir:
        yield None
        return
    import os as _os

    from repro.obs.profile import StackSampler

    sampler = StackSampler().start()
    try:
        yield sampler
    finally:
        sampler.stop()
        _os.makedirs(out_dir, exist_ok=True)
        path = _os.path.join(out_dir, f"{label}.collapsed")
        count = sampler.write_collapsed(path)
        print(f"{count} profile samples written to {path}")


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.bundle_dir:
        obs.configure_forensics(bundle_dir=args.bundle_dir)
    server = _start_server(args)
    try:
        want_obs = bool(args.metrics_out or args.trace_out or server) \
            and args.workers <= 1
        ctx = obs.enable(trace=bool(args.trace_out)) if want_obs else None
        if server is not None and ctx is not None:
            server.source.set_registry(ctx.registry)
        try:
            if args.workers <= 1:
                with _maybe_profile(args, "engine"):
                    result = _run_scenario(args.name, args.seed)
            else:
                result = _run_scenario(args.name, args.seed)
        finally:
            obs.disable()
        if result is None:
            print(f"unknown scenario {args.name!r}; try `repro list`",
                  file=sys.stderr)
            return 2
        print(f"scenario {args.name}: {result.engine.stats.frames} frames, "
              f"{result.engine.stats.footprints} footprints, "
              f"{result.engine.stats.events} events")
        if args.workers > 1:
            from collections import Counter

            cluster_result = _cluster_replay(
                result.testbed.ids_tap.trace, args, result.engine.vantage_ip,
                source=server.source if server is not None else None,
            )
            _print_alerts(cluster_result.alerts)
            same = Counter(cluster_result.alerts) == Counter(result.alerts)
            print("cluster alerts match the single-engine run" if same
                  else "WARNING: cluster alerts DIFFER from the single-engine run")
            alerts = cluster_result.alerts
            if args.metrics_out and cluster_result.registry is not None:
                cluster_result.registry.write_prometheus(args.metrics_out)
                print(f"merged cluster metrics written to {args.metrics_out}")
        else:
            if server is not None:
                server.source.set_engine(result.engine)
            _print_alerts(result.alerts)
            alerts = result.alerts
        if args.pcap:
            from repro.net.pcap import write_pcap

            write_pcap(args.pcap, result.testbed.ids_tap.trace)
            print(f"capture written to {args.pcap}")
        if args.json:
            count = write_alerts_jsonl(args.json, alerts)
            print(f"{count} alerts written to {args.json}")
        if args.bundle_dir:
            _write_malformed(args.bundle_dir, result.engine)
            written = obs.list_bundles(args.bundle_dir)
            print(f"{len(written)} evidence bundles in {args.bundle_dir}")
        _export_observability(ctx, args, engine=result.engine)
        _linger(server, args)
        return 0
    finally:
        if server is not None:
            server.stop()
        if args.bundle_dir:
            obs.configure_forensics(bundle_dir=None)


def _write_malformed(bundle_dir: str, engine) -> None:
    """Persist the engine's malformed-frame quarantine (if any) so
    ``repro explain malformed`` can render the hostile input."""
    if engine.forensics is None:
        return
    path = obs.write_malformed_bundle(bundle_dir, engine.forensics)
    if path is not None:
        count = len(engine.forensics.malformed_records())
        print(f"{count} malformed frames quarantined; "
              f"inspect with `repro explain malformed --bundle-dir {bundle_dir}`")


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.engine import ScidiveEngine
    from repro.net.pcap import read_pcap

    if args.rules:
        from repro.rulespec import lint_path

        errors = [i for i in lint_path(args.rules) if i.severity == "error"]
        if errors:
            for issue in errors:
                print(str(issue), file=sys.stderr)
            print(f"--rules {args.rules}: pack rejected "
                  f"({len(errors)} error(s))", file=sys.stderr)
            return 2
    trace = read_pcap(args.pcap)
    if args.bundle_dir:
        obs.configure_forensics(bundle_dir=args.bundle_dir)
    server = _start_server(args)
    try:
        if args.workers > 1:
            cluster_result = _cluster_replay(
                trace, args, args.vantage,
                source=server.source if server is not None else None,
            )
            _print_alerts(cluster_result.alerts)
            if args.json:
                count = write_alerts_jsonl(args.json, cluster_result.alerts)
                print(f"{count} alerts written to {args.json}")
            if args.metrics_out and cluster_result.registry is not None:
                cluster_result.registry.write_prometheus(args.metrics_out)
                print(f"merged cluster metrics written to {args.metrics_out}")
            _linger(server, args)
            return 0
        want_obs = bool(args.metrics_out or args.trace_out or server)
        ctx = obs.Observability.create(trace=bool(args.trace_out)) if want_obs else None
        engine = ScidiveEngine(vantage_ip=args.vantage, observability=ctx,
                               indexed_dispatch=not args.broadcast,
                               rulepack=args.rules)
        overload = None
        if getattr(args, "overload", False):
            from repro.resilience import EngineOverload

            overload = EngineOverload(engine)
            # /healthz reads engine.overload; the attribute only exists
            # on instrumented replays.
            engine.overload = overload
        if server is not None:
            # Bind before the replay so /healthz and /metrics answer mid-run.
            if ctx is not None:
                server.source.set_registry(ctx.registry)
            server.source.set_engine(engine)
        with _maybe_profile(args, "engine"):
            if overload is not None:
                for record in trace:
                    engine.process_frame(record.frame, record.timestamp)
                    overload.record_frame(record.timestamp)
                engine.snapshot_gauges()
            else:
                engine.process_trace(trace)
        mode = "broadcast" if args.broadcast else "indexed"
        if engine.rulepack is not None:
            mode += f" dispatch, pack {engine.rulepack.label}"
        else:
            mode += " dispatch"
        print(f"replayed {len(trace)} frames ({mode}): "
              f"{engine.stats.footprints} footprints, "
              f"{engine.stats.events} events, {len(engine.alerts)} alerts")
        if overload is not None:
            status = overload.as_dict()
            print(f"overload: state={status['state']} "
                  f"transitions={status['transitions_total'] or '{}'} "
                  f"burn={status['burn_rate']:.2f}x")
        _print_alerts(engine.alerts)
        if args.json:
            count = write_alerts_jsonl(args.json, engine.alerts)
            print(f"{count} alerts written to {args.json}")
        if args.bundle_dir:
            _write_malformed(args.bundle_dir, engine)
            written = obs.list_bundles(args.bundle_dir)
            print(f"{len(written)} evidence bundles in {args.bundle_dir}")
        _export_observability(ctx, args, engine=engine)
        _linger(server, args)
        return 0
    finally:
        if server is not None:
            server.stop()
        if args.bundle_dir:
            obs.configure_forensics(bundle_dir=None)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one scenario fully instrumented and print the metrics report."""
    ctx = obs.enable(trace=True)
    # A stats run is a report, not a production deployment: sample rule
    # cost and stage sketches densely so short scenarios still populate
    # the cost table and quantile panels.
    ctx.cost_sample_rate = 2
    ctx.summary_sample_rate = 1
    try:
        result = _run_scenario(args.name, args.seed)
    finally:
        obs.disable()
    if result is None:
        print(f"unknown scenario {args.name!r}; try `repro list`", file=sys.stderr)
        return 2
    engine = result.engine
    engine.snapshot_gauges()
    if args.format == "prom":
        print(ctx.registry.render_prometheus(), end="")
    elif args.format == "json":
        import json as _json

        from repro.obs.server import _quantile_view

        # Same Alert serialization the /alerts endpoint uses (Alert.to_dict),
        # so scripted consumers see one schema everywhere.
        payload = ctx.registry.as_dict()
        payload["alerts"] = [alert.to_dict() for alert in result.alerts]
        if ctx.tracer is not None:
            payload["spans"] = len(ctx.tracer.spans)
            payload["spans_dropped"] = ctx.tracer.dropped
        payload["rule_costs"] = engine.ruleset.rule_stats()
        payload["top_rules"] = engine.ruleset.top_cost()
        if engine.rulepack is not None:
            payload["rulepack"] = engine.rulepack.info()
        stage_q = _quantile_view(
            ctx.registry, "scidive_stage_latency_seconds", by="stage"
        )
        if stage_q is not None:
            payload["stage_quantiles"] = stage_q
        frame_q = _quantile_view(ctx.registry, "scidive_frame_latency_seconds")
        if frame_q is not None:
            payload["frame_quantiles"] = frame_q
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        stats = engine.stats
        counter_rows = [
            ["frames", stats.frames],
            ["footprints", stats.footprints],
            ["events", stats.events],
            ["alerts", stats.alerts],
            ["engine cpu (s)", f"{stats.cpu_seconds:.4f}"],
            ["frames / cpu-second", f"{stats.frames_per_cpu_second:,.0f}"],
            ["live trails", engine.trails.trail_count],
            ["trail footprints retained",
             engine.trails.size_stats()["footprints_retained"]],
            ["live sessions", engine.trails.session_count],
            ["tracked dialogs", engine.sip_state.call_count],
            ["tracked registrations", engine.registrations.session_count],
            ["trails reclaimed", engine.expired_trails],
            *(
                [name.replace("_", " "), value]
                for name, value in engine.distiller.table_stats().items()
            ),
            ["rule evaluations skipped", engine.ruleset.dispatch_skipped],
        ]
        if ctx.tracer is not None:
            counter_rows.append(["spans recorded", len(ctx.tracer.spans)])
            counter_rows.append(["spans dropped", ctx.tracer.dropped])
        if engine.rulepack is not None:
            counter_rows.append(["rule pack", engine.rulepack.label])
        print(format_table(
            ["metric", "value"],
            counter_rows,
            title=f"Pipeline counters — {args.name} (seed {args.seed})",
        ))
        print()
        print(format_stage_summary(engine.stage_summary()))
        from repro.obs.server import _quantile_view

        stage_q = _quantile_view(
            ctx.registry, "scidive_stage_latency_seconds", by="stage"
        )
        frame_q = _quantile_view(ctx.registry, "scidive_frame_latency_seconds")
        if stage_q or frame_q:
            rows = []
            if frame_q:
                rows.append(["frame"] + _quantile_cells(frame_q))
            for stage, view in (stage_q or {}).items():
                rows.append([stage] + _quantile_cells(view))
            print()
            print(format_table(
                ["stage", "p50 (ms)", "p90 (ms)", "p99 (ms)", "samples"],
                rows, title="Latency quantiles (streaming sketch)",
            ))
        print()
        rule_rows = [
            [r["rule_id"], r["attack_class"],
             r["mode"] if r["enabled"] else "disabled",
             r["matches_attempted"], r["alerts_raised"],
             r["shadow_matches"] + r["suppressed_alerts"],
             f"{r['cost_seconds'] * 1e3:.3f}", r["cost_samples"]]
            for r in engine.ruleset.rule_stats()
        ]
        print(format_table(
            ["rule", "class", "mode", "matches attempted", "alerts raised",
             "withheld", "est. cost (ms)", "cost samples"],
            rule_rows, title="Per-rule activity",
        ))
    _export_observability(ctx, args, engine=engine)
    return 0


def _quantile_cells(view: dict) -> list[str]:
    return [
        f"{view.get('p50', 0.0) * 1e3:.3f}",
        f"{view.get('p90', 0.0) * 1e3:.3f}",
        f"{view.get('p99', 0.0) * 1e3:.3f}",
        str(view.get("count", 0)),
    ]


def _cmd_explain(args: argparse.Namespace) -> int:
    """Render one alert's evidence bundle from the bundle alone."""
    try:
        bundle = obs.load_bundle(args.bundle_dir, args.alert_id)
    except FileNotFoundError:
        print(f"no bundle for {args.alert_id!r} in {args.bundle_dir}",
              file=sys.stderr)
        available = obs.list_bundles(args.bundle_dir)
        if available:
            print("available: " + ", ".join(available), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(obs.format_bundle(bundle))
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    handlers = {
        "check": _cmd_rules_check,
        "show": _cmd_rules_show,
        "reload": _cmd_rules_reload,
    }
    return handlers[args.rules_command](args)


def _expand_rule_paths(targets: Sequence[str]) -> tuple[list[str], list[str]]:
    """Resolve check targets: directories scan recursively for ``*.rules``;
    returns (paths, complaints-for-empty-dirs)."""
    from pathlib import Path

    paths: list[str] = []
    missing: list[str] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            found = sorted(str(p) for p in path.rglob("*.rules"))
            if found:
                paths.extend(found)
            else:
                missing.append(f"{target}: no .rules files found")
        else:
            paths.append(str(path))
    return paths, missing


def _cmd_rules_check(args: argparse.Namespace) -> int:
    """Lint rule packs with line-anchored diagnostics; exit 1 on errors
    (CI gates on this, so warnings alone stay exit 0)."""
    from repro.rulespec import lint_path

    paths, missing = _expand_rule_paths(args.paths)
    for complaint in missing:
        print(complaint, file=sys.stderr)
    if not paths:
        return 2
    errors = warnings = 0
    for path in paths:
        for issue in lint_path(path):
            print(str(issue))
            if issue.severity == "error":
                errors += 1
            else:
                warnings += 1
    verdict = "FAIL" if errors else "ok"
    print(f"{verdict}: {len(paths)} pack(s) checked, "
          f"{errors} error(s), {warnings} warning(s)")
    return 1 if errors or missing else 0


def _cmd_rules_show(args: argparse.Namespace) -> int:
    """Print a pack's identity and its compiled rules."""
    from repro.rulespec import RulePackError, compile_pack, load_pack

    try:
        pack = load_pack(args.pack)
        ruleset = compile_pack(pack)
    except RulePackError as exc:
        for issue in exc.issues:
            print(str(issue), file=sys.stderr)
        return 1
    print(f"pack {pack.label}  ({pack.source_path})")
    rows = []
    for rdef, rule in zip(pack.rules, ruleset.rules):
        trigger = rdef.event or " + ".join(rdef.events)
        rows.append([
            rdef.rule_id, rdef.shape, trigger, rule.severity.name,
            rdef.mode if rdef.enabled else "disabled",
            f"{pack.source_path}:{rdef.line}",
        ])
    print(format_table(
        ["rule", "shape", "trigger", "severity", "mode", "source"],
        rows, title=f"{len(pack.rules)} compiled rules",
    ))
    return 0


def _cmd_rules_reload(args: argparse.Namespace) -> int:
    """POST /rules/reload on a running sidecar and report the outcome."""
    import json as _json
    import os as _os
    import urllib.error
    import urllib.request

    from repro.obs.retry import with_retries

    base = (args.url or f"http://{args.host}:{args.port}").rstrip("/")
    body = _json.dumps({"path": _os.path.abspath(args.pack)}).encode("utf-8")
    request = urllib.request.Request(
        f"{base}/rules/reload", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )

    def _post() -> dict:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return _json.loads(response.read().decode("utf-8"))

    try:
        # Transient connect failures get 3 jittered-backoff attempts; an
        # HTTP error status (409 rejected pack) is final and not retried.
        payload = with_retries(_post)
    except urllib.error.HTTPError as exc:
        try:
            detail = _json.loads(exc.read().decode("utf-8")).get("error", "")
        except ValueError:
            detail = ""
        print(f"reload rejected ({exc.code}): {detail}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"sidecar unreachable at {base}: {exc}", file=sys.stderr)
        return 1
    info = payload.get("rulepack", {})
    print(f"reloaded {info.get('label', '?')} on {payload.get('target', '?')} "
          f"(reload #{payload.get('reloads', '?')})")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection harness: replay the paper attacks under chaos and
    gate on the crash-safety invariants (exit 1 on any violation)."""
    import json as _json

    from repro.resilience import ChaosConfig, format_report, run_chaos

    overrides: dict = {
        "seed": args.seed,
        "workers": args.workers,
        "inject_crashes": not args.no_crashes,
        "mutation_rate": args.mutation_rate,
        "flood_frames": args.flood,
    }
    if args.attacks:
        overrides["attacks"] = tuple(args.attacks)
    try:
        config = ChaosConfig(**overrides).validate()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_chaos(config)
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"chaos report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_bench_shards(args: argparse.Namespace) -> int:
    """Sweep ScidiveCluster worker counts on the mixed workload."""
    import json as _json

    from repro.cluster.benchmark import (
        build_scaling_workload,
        format_sweep,
        run_scaling_sweep,
    )

    trace = build_scaling_workload(
        sessions=args.sessions, packets_per_session=args.packets, seed=args.seed,
    )
    report = run_scaling_sweep(
        trace, worker_counts=tuple(args.workers),
        backend=args.cluster_backend, batch_size=args.batch_size,
    )
    print(format_sweep(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"sweep report written to {args.json}")
    if not report["equivalent"]:
        print("FAIL: cluster and single-engine alerts disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Dashboard over a live sidecar (curses, or --once plain text)."""
    from repro.obs import top as _top

    base_url = args.url or f"http://{args.host}:{args.port}"
    if args.once:
        return _top.run_once(base_url, window=args.window)
    try:
        return _top.run_curses(
            base_url, interval=args.interval, window=args.window
        )
    except KeyboardInterrupt:
        return 0


def _session_trace_candidates(identifier: str) -> list[str]:
    """Trace ids a bare call id could resolve to (SIP, then accounting)."""
    from repro.cluster.sharding import PLANE_SIGNALLING, ShardKey

    return [
        obs.session_trace_id(
            ShardKey(PLANE_SIGNALLING, (kind, identifier)).canon()
        )
        for kind in ("sip", "acct")
    ]


def _load_trace_spans(args: argparse.Namespace) -> list[dict] | None:
    """Span records from a merged --trace-out file or a live /trace endpoint."""
    if args.url or args.port is not None:
        import json as _json
        import urllib.error
        import urllib.request

        from repro.obs.retry import with_retries

        base = (args.url or f"http://{args.host}:{args.port}").rstrip("/")

        def _get() -> dict:
            with urllib.request.urlopen(
                f"{base}/trace?limit=1000000", timeout=30.0
            ) as response:
                return _json.loads(response.read().decode("utf-8"))

        try:
            payload = with_retries(_get)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"sidecar unreachable at {base}: {exc}", file=sys.stderr)
            return None
        return list(payload.get("spans", ()))
    try:
        return obs.read_trace_jsonl(args.trace_file)
    except FileNotFoundError:
        print(f"no trace file at {args.trace_file}; run with --trace-out "
              "first, or point --url/--port at a live sidecar",
              file=sys.stderr)
        return None


def _cmd_trace(args: argparse.Namespace) -> int:
    """Frame-journey audit: one call's spans, sharder to alert."""
    records = _load_trace_spans(args)
    if records is None:
        return 2
    by_trace: dict[str, int] = {}
    for record in records:
        tid = record.get("trace", "")
        if tid:
            by_trace[tid] = by_trace.get(tid, 0) + 1
    tid = args.id if args.id in by_trace else None
    label = args.id
    if tid is None and args.bundle_dir:
        try:
            bundle = obs.load_bundle(args.bundle_dir, args.id)
        except (FileNotFoundError, ValueError):
            bundle = None
        if bundle is not None:
            session = (bundle.get("alert") or {}).get("session")
            if session:
                label = f"{args.id} (session {session})"
                for candidate in _session_trace_candidates(session):
                    if candidate in by_trace:
                        tid = candidate
                        break
    if tid is None:
        for candidate in _session_trace_candidates(args.id):
            if candidate in by_trace:
                tid = candidate
                break
    if tid is None:
        print(f"no spans for {args.id!r}", file=sys.stderr)
        if by_trace:
            preview = ", ".join(sorted(by_trace)[:8])
            print(f"{len(by_trace)} trace id(s) available: {preview}",
                  file=sys.stderr)
        print("hint: the id can be a trace id, a SIP/accounting call id, "
              "or (with --bundle-dir) an alert id", file=sys.stderr)
        return 2
    journey = obs.sort_timeline(
        [record for record in records if record.get("trace") == tid]
    )
    shown = journey[-args.limit:] if args.limit else journey
    rows = []
    for record in shown:
        meta = record.get("meta") or {}
        worker = record.get("worker", meta.get("worker", "-"))
        detail = " ".join(
            f"{key}={value}"
            for key, value in sorted(meta.items())
            if key != "worker"
        )
        rows.append([
            f"{record.get('t_sim', 0.0):9.4f}",
            record.get("span", "?"),
            str(worker),
            str(record.get("frame", "-")),
            f"{float(record.get('dur_us', 0.0)):10.1f}",
            detail or "-",
        ])
    print(f"trace {tid} — {label}: {len(journey)} spans"
          + (f" (showing last {len(shown)})" if len(shown) < len(journey) else ""))
    print(format_table(
        ["t (s)", "stage", "worker", "frame", "dur (µs)", "detail"], rows,
    ))
    totals: dict[str, float] = {}
    for record in journey:
        stage = str(record.get("span", "?")).partition(":")[0]
        totals[stage] = totals.get(stage, 0.0) + float(record.get("dur_us", 0.0))
    print("per-stage time: " + "  ".join(
        f"{stage}={totals[stage]:.1f}µs" for stage in sorted(totals)
    ))
    alert_spans = sum(
        1 for record in journey
        if str(record.get("span", "")).startswith("match")
        and (record.get("meta") or {}).get("alerts")
    )
    if alert_spans:
        print(f"{alert_spans} match span(s) raised alerts on this journey")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Sample a replay's hot path into a collapsed-stack profile."""
    from repro.core.engine import ScidiveEngine
    from repro.obs.profile import StackSampler, format_top

    if args.pcap:
        from repro.net.pcap import read_pcap

        trace = read_pcap(args.pcap)
        label = args.pcap.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        vantage = args.vantage
    else:
        result = _run_scenario(args.scenario, args.seed)
        if result is None:
            print(f"unknown scenario {args.scenario!r}; try `repro list`",
                  file=sys.stderr)
            return 2
        trace = result.testbed.ids_tap.trace
        label = args.scenario
        vantage = result.engine.vantage_ip
    sampler = StackSampler(args.interval).start()
    passes = 0
    started = _time.monotonic()
    try:
        # --passes N replays exactly N times; --once replays until about a
        # second of wall clock has gone by (so CI always collects samples);
        # with neither, keep replaying until ctrl-c.
        while True:
            engine = ScidiveEngine(vantage_ip=vantage)
            engine.process_trace(trace)
            passes += 1
            if args.passes > 0 and passes >= args.passes:
                break
            if args.once and _time.monotonic() - started >= 1.0:
                break
    except KeyboardInterrupt:
        pass
    finally:
        sampler.stop()
    out = args.out or f"{label}.collapsed"
    count = sampler.write_collapsed(out)
    print(f"profiled {passes} replay pass(es) of {label}: "
          f"{count} samples at {sampler.interval * 1e3:g}ms")
    print(format_top(sampler, args.top_n))
    print(f"collapsed stacks written to {out}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import TABLE1_HEADERS, build_table1

    rows = build_table1(seed=args.seed)
    print(format_table(TABLE1_HEADERS, [r.cells() for r in rows], title="Table 1"))
    return 0


def _cmd_modules(args: argparse.Namespace) -> int:
    """Describe the registered protocol modules (the stock pipeline)."""
    from repro.core.protocols import default_modules

    rows = []
    for module in default_modules():
        generators = module.generators()
        rules = module.rules()
        rows.append([
            module.name,
            ",".join(sorted(p.value for p in module.protocols)),
            "yes" if module.decoder is not None else "-",
            ", ".join(g.name for g in generators),
            ", ".join(r.rule_id for r in rules),
        ])
    print(format_table(
        ["module", "protocols", "decoder", "generators", "rules"],
        rows, title="Registered protocol modules",
    ))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    handlers = {
        "generate": _cmd_workload_generate,
        "check": _cmd_workload_check,
        "run": _cmd_workload_run,
        "report": _cmd_workload_report,
    }
    return handlers[args.workload_command](args)


def _workload_spec(args: argparse.Namespace):
    """Resolve the scenario: spec file (or built-in default) + CLI overrides."""
    import dataclasses as _dataclasses

    from repro.workload import ATTACK_KINDS, DEFAULT_SCENARIO, load_scenario
    from repro.workload.scenario import AttackMix

    spec = load_scenario(args.spec) if args.spec else DEFAULT_SCENARIO
    overrides: dict = {}
    for attr, key in (
        ("subscribers", "subscribers"),
        ("duration", "duration"),
        ("seed", "seed"),
        ("start_hour", "start_hour"),
    ):
        value = getattr(args, attr)
        if value is not None:
            overrides[key] = value
    if args.mix:
        attacks = {mix.kind: mix for mix in spec.attacks}
        for entry in args.mix:
            key, sep, value = entry.partition("=")
            if not sep:
                raise ValueError(f"--mix entries are KEY=VALUE (got {entry!r})")
            if key == "attacks":
                overrides["attack_ratio"] = float(value)
            elif key in ATTACK_KINDS:
                count = -1 if value == "auto" else int(value)
                if count == 0:
                    attacks.pop(key, None)
                elif key in attacks:
                    # Keep the spec's spacing — and, for flood kinds,
                    # its packets/pps — when only the count changes.
                    attacks[key] = _dataclasses.replace(
                        attacks[key], count=count
                    )
                else:
                    attacks[key] = AttackMix(key, count)
            else:
                raise ValueError(
                    f"--mix key {key!r} is neither 'attacks' nor an attack "
                    f"kind {sorted(ATTACK_KINDS)}"
                )
        overrides["attacks"] = tuple(attacks.values())
    return spec.with_overrides(**overrides) if overrides else spec


def _workload_generate(args: argparse.Namespace):
    from repro.workload import ScenarioError, generate_workload

    try:
        spec = _workload_spec(args)
    except (ScenarioError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return None
    return generate_workload(spec)


def _write_workload_artifacts(result, out_dir: str) -> None:
    import json
    import os

    from repro.net.pcap import write_pcap
    from repro.workload import trace_digest

    os.makedirs(out_dir, exist_ok=True)
    write_pcap(os.path.join(out_dir, "trace.pcap"), result.trace)
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        fh.write(result.truth.to_json())
    stats = result.stats.as_dict()
    stats["trace_digest"] = trace_digest(result.trace)
    stats["truth_digest"] = result.truth.digest()
    with open(os.path.join(out_dir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
    print(f"wrote trace.pcap, truth.json, stats.json to {out_dir}/")


def _cmd_workload_generate(args: argparse.Namespace) -> int:
    from repro.workload import trace_digest

    result = _workload_generate(args)
    if result is None:
        return 1
    stats = result.stats
    print(
        f"generated {stats.frames} frames / {stats.wire_bytes} bytes over "
        f"{stats.duration:.0f}s: {sum(stats.benign_sessions.values())} benign "
        f"sessions, {sum(stats.attack_sessions.values())} attacks "
        f"{stats.attack_sessions}"
    )
    print(f"trace digest {trace_digest(result.trace)}")
    _write_workload_artifacts(result, args.out)
    return 0


def _cmd_workload_check(args: argparse.Namespace) -> int:
    """Lint workload scenario specs; CI gates on exit status."""
    from pathlib import Path

    from repro.workload import lint_path

    paths: list[str] = []
    missing: list[str] = []
    for target in args.paths:
        path = Path(target)
        if path.is_dir():
            found = sorted(str(p) for p in path.rglob("*.workload"))
            if found:
                paths.extend(found)
            else:
                missing.append(f"{target}: no .workload files found")
        elif path.is_file():
            paths.append(str(path))
        else:
            missing.append(f"{target}: no such file or directory")
    for complaint in missing:
        print(complaint, file=sys.stderr)
    if not paths:
        return 2
    errors = warnings = 0
    for path in paths:
        for issue in lint_path(path):
            print(str(issue))
            if issue.severity == "error":
                errors += 1
            else:
                warnings += 1
    verdict = "FAIL" if errors else "ok"
    print(f"{verdict}: {len(paths)} spec(s) checked, "
          f"{errors} error(s), {warnings} warning(s)")
    return 1 if errors or missing else 0


def _evaluate_and_report(trace, truth, args: argparse.Namespace) -> int:
    from repro.experiments.quality import evaluate_workload, format_quality_report

    report = evaluate_workload(
        trace,
        truth,
        systems=tuple(args.systems),
        workers=args.workers,
        cluster_backend=args.cluster_backend,
        cluster_overload=getattr(args, "overload", False),
        sweeps=args.sweeps,
    )
    print(format_quality_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"\nquality report written to {args.json}")
    if args.fail_on_miss:
        gated = [
            quality
            for name, quality in report.systems.items()
            if name in ("engine", "cluster")
        ]
        missed = sum(quality.missed for quality in gated)
        if missed or not gated:
            print(f"FAIL: {missed} attack(s) missed by the stateful systems",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_workload_run(args: argparse.Namespace) -> int:
    result = _workload_generate(args)
    if result is None:
        return 1
    if args.out:
        _write_workload_artifacts(result, args.out)
    return _evaluate_and_report(result.trace, result.truth, args)


def _cmd_workload_report(args: argparse.Namespace) -> int:
    from repro.net.pcap import read_pcap
    from repro.workload import GroundTruth

    trace = read_pcap(args.trace)
    with open(args.truth, encoding="utf-8") as fh:
        truth = GroundTruth.from_json(fh.read())
    return _evaluate_and_report(trace, truth, args)


def _cmd_list(args: argparse.Namespace) -> int:
    print("attack scenarios:")
    for name in ATTACK_SCENARIOS:
        print(f"  {name}")
    print("benign scenarios:")
    for kind in BENIGN_KINDS:
        print(f"  benign-{kind}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.log_level:
        obs.setup_logging(level=args.log_level, json_lines=args.log_json)
    handlers = {
        "scenario": _cmd_scenario,
        "replay": _cmd_replay,
        "explain": _cmd_explain,
        "chaos": _cmd_chaos,
        "bench-shards": _cmd_bench_shards,
        "stats": _cmd_stats,
        "rules": _cmd_rules,
        "top": _cmd_top,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "table1": _cmd_table1,
        "workload": _cmd_workload,
        "modules": _cmd_modules,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
