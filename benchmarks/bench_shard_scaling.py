"""Shard-scaling sweep: ScidiveCluster vs the single engine.

Replays a mixed SIP+RTP workload (real signalling plane + many distinct
media sessions) through :class:`repro.cluster.ScidiveCluster` at several
worker counts and reports, per count, the wall-clock throughput and the
modeled (critical-path) throughput — see
:mod:`repro.cluster.benchmark` for why both exist.  Every cluster run's
alert multiset is checked against the single engine, so the scaling
numbers only ever describe configurations that detect identically.

Standalone (not a pytest bench)::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --json BENCH_shards.json

Exits non-zero if any worker count's alerts differ from the single
engine, or if the modeled scaling at ``--gate-workers`` (default 4)
falls below ``--min-scaling`` (default 1.8).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cluster.benchmark import (
    DEFAULT_WORKER_COUNTS,
    build_scaling_workload,
    format_sweep,
    run_scaling_sweep,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write machine-readable results here")
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(DEFAULT_WORKER_COUNTS),
        help="worker counts to sweep",
    )
    parser.add_argument(
        "--backend", default="process", choices=["process", "serial"]
    )
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument(
        "--sessions", type=int, default=96, help="distinct synthetic media sessions"
    )
    parser.add_argument(
        "--packets", type=int, default=40, help="RTP packets per media session"
    )
    parser.add_argument("--seed", type=int, default=33)
    parser.add_argument(
        "--min-scaling",
        type=float,
        default=1.8,
        help="fail if modeled scaling at --gate-workers < this",
    )
    parser.add_argument(
        "--gate-workers",
        type=int,
        default=4,
        help="the worker count the scaling gate applies to",
    )
    args = parser.parse_args(argv)

    trace = build_scaling_workload(
        sessions=args.sessions,
        packets_per_session=args.packets,
        seed=args.seed,
    )
    report = run_scaling_sweep(
        trace,
        worker_counts=tuple(args.workers),
        backend=args.backend,
        batch_size=args.batch_size,
    )
    print(format_sweep(report))

    gate_row = next(
        (row for row in report["sweep"] if row["workers"] == args.gate_workers), None
    )
    gate_scaling = gate_row["scaling_modeled"] if gate_row else 0.0
    equivalent = report["equivalent"]
    passed = equivalent and gate_scaling >= args.min_scaling
    result = {
        "bench": "shard_scaling",
        "workload": {
            **report["workload"],
            "sessions": args.sessions,
            "packets_per_session": args.packets,
            "seed": args.seed,
        },
        "backend": report["backend"],
        "batch_size": report["batch_size"],
        "single_engine": report["single_engine"],
        "sweep": report["sweep"],
        "equivalent": equivalent,
        "gate_workers": args.gate_workers,
        "scaling_at_gate": gate_scaling,
        "min_scaling": args.min_scaling,
        "passed": passed,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"results written to {args.json}")

    if not equivalent:
        print("FAIL: cluster and single-engine alerts disagree", file=sys.stderr)
        return 1
    if gate_row is None:
        print(f"note: {args.gate_workers} workers not in sweep; scaling gate skipped")
    elif gate_scaling < args.min_scaling:
        print(
            f"FAIL: modeled scaling {gate_scaling:.2f}x at "
            f"{args.gate_workers} workers < required {args.min_scaling:.2f}x",
            file=sys.stderr,
        )
        return 1
    print(f"PASS (modeled scaling {gate_scaling:.2f}x at {args.gate_workers} workers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
