"""The pipeline ledger: pcap in → alerts out, end to end and layer by layer.

One command::

    python benchmarks/ledger/run.py --seed 42

generates the four labelled workloads, replays each from a pcap file
through a single ``ScidiveEngine`` and through a 2-worker process
cluster, checks the outputs against the ground truth and against each
other, and prints every metric of ``BENCHMARK.json`` by name with its
unit.  README.md in this directory says how to read it.

The benchmark driver calls the same file once per workload::

    run.py --workload NAME --seed N --seconds S --trace 0|1

and reads the last stdout line: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``, both without).

Load model: closed loop, one client.  The load is generated here, before
any timing; the measured children (``passes.py``) get only the files.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from compare import spread  # noqa: E402
from passes import INNER_LAYERS, accounted  # noqa: E402
from repro.core.alerts import Alert, Severity  # noqa: E402
from repro.experiments.quality import evaluate_alerts  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK_ROOT = ROOT / ".ledger_work"

DEFAULT_PASSES = 5
# Under --seconds a mode runs passes until its share of the time is
# spent, but never fewer than this: a median needs three.
MIN_PASSES = 3
MIN_PASSES_TRACED = 2
SETUP_REPEATS = 3
RESIDUAL_LIMIT = 0.10
# The layers whose self times, plus the residual, make up a traced frame.
LEAF_LAYERS = ("distill", "forensics") + INNER_LAYERS
CHILD_TIMEOUT_S = 150.0


# -- children ------------------------------------------------------------------


def run_child(role: str, workdir: Path, job: dict) -> dict:
    """Run one measured role in a fresh interpreter and return its JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    job = dict(job, spawned_at=time.time())
    (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), role, str(workdir)],
        env=env,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # Its own session: the cluster's worker processes go down with it.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return {"error": f"{role} child timed out after {CHILD_TIMEOUT_S:.0f}s"}
    result_path = workdir / f"{role}.json"
    if code != 0 or not result_path.exists():
        return {"error": f"{role} child exited with code {code}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


# -- correctness ---------------------------------------------------------------


def to_alert(row: list) -> Alert:
    rule_id, rule_name, when, session, severity, attack_class, message = row
    return Alert(
        rule_id=rule_id,
        rule_name=rule_name,
        time=when,
        session=session,
        severity=Severity(severity),
        attack_class=attack_class,
        message=message,
    )


def multiset(rows: list[list]) -> collections.Counter:
    return collections.Counter(tuple(row) for row in rows)


def multiset_distance(a: collections.Counter, b: collections.Counter) -> int:
    """Alerts in one multiset and not the other, both ways."""
    return sum(((a - b) + (b - a)).values())


class Score:
    """attempted = frames submitted in timed passes + attacks scored per
    pass; failed = frames lost or unaccounted + attacks missed + false
    alarms + alerts in any multiset difference + exceptions."""

    def __init__(self, truth) -> None:
        self.truth = truth
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        # A child died: there is nothing to derive metrics from.
        self.broken = False

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{what}: {count}")

    def detection(self, system: str, rows: list[list]) -> None:
        quality = evaluate_alerts(system, [to_alert(row) for row in rows], self.truth)
        self.attempted += quality.attacks
        self.fail(quality.missed, f"{system} attacks missed")
        self.fail(len(quality.false_alarms), f"{system} false alarms")

    def engine_pass(self, one: dict, reference: collections.Counter) -> None:
        frames = one["frames"]
        self.attempted += frames
        self.fail(
            abs(frames - accounted(one["distiller"])), "engine frames unaccounted"
        )
        self.fail(abs(frames - one["engine_frames"]), "engine frames not processed")
        self.detection("engine", one["alerts"])
        self.fail(
            multiset_distance(multiset(one["alerts"]), reference),
            "engine alerts differ between passes",
        )

    def cluster_pass(self, one: dict, reference: collections.Counter) -> None:
        frames = one["frames"]
        self.attempted += frames
        self.fail(one["frames_dropped"], "cluster frames dropped or shed")
        unaccounted = (
            abs(frames - one["frames_in"])
            + abs(one["frames_in"] - one["frames_routed"] - one["frames_dropped"])
            + abs(one["frames_routed"] - one["engine_frames"])
        )
        self.fail(unaccounted, "cluster frames unaccounted")
        self.fail(one["workers_crashed"] + one["worker_restarts"], "worker crashes")
        self.detection("cluster", one["alerts"])
        self.fail(
            multiset_distance(multiset(one["alerts"]), reference),
            "cluster alerts differ from engine",
        )


def score_run(truth, engine: dict, cluster: dict, traced: dict | None) -> Score:
    score = Score(truth)
    for role, result in (("engine", engine), ("cluster", cluster), ("traced", traced)):
        if result is not None and "error" in result:
            score.fail(1, f"{role} child failed\n{result['error']}")
            score.broken = True
    if score.broken:
        score.attempted = 1
        return score
    reference = multiset(engine["passes"][0]["alerts"])
    for one in engine["passes"]:
        score.engine_pass(one, reference)
    if "reference_alerts" in engine:
        score.fail(
            multiset_distance(multiset(engine["reference_alerts"]), reference),
            "fragmented alerts differ from the unfragmented trace",
        )
    for one in cluster["passes"]:
        score.cluster_pass(one, reference)
    if traced is not None:
        score.fail(
            abs(traced["frames"] - accounted(traced["distiller"]))
            + traced["sharding"]["fragments_pending"],
            "traced frames unaccounted",
        )
        score.fail(
            multiset_distance(multiset(traced["alerts"]), reference),
            "traced alerts differ from untraced",
        )
    return score


# -- metrics -------------------------------------------------------------------


def end_to_end(setup_s: float, engine: dict, cluster: dict) -> dict[str, float]:
    return {
        "engine_fps": median(p["fps"] for p in engine["passes"]),
        "engine_frame_p50_us": engine["p50_us"],
        "engine_frame_p90_us": engine["p90_us"],
        "cluster2_fps": median(p["fps"] for p in cluster["passes"]),
        "engine_peak_rss_mb": engine["peak_rss_mb"],
        "setup_s": setup_s + engine["setup_s"] + cluster["setup_s"],
    }


def per_layer(
    built, write_s: float, engine: dict, cluster: dict, traced: dict
) -> dict[str, float]:
    frames = traced["frames"]
    sums = traced["sums"]
    frame_s = sums["frame"]
    residual_s = frame_s - sum(sums[layer] for layer in LEAF_LAYERS)
    by_kind = traced["distill_by_kind"]
    distiller = traced["distiller"]
    sip_footprints = by_kind["sip"][1]

    def share(layer: str) -> float:
        return sums[layer] / frame_s

    def mean_us(seconds: float, count: int) -> float:
        return seconds / count * 1e6 if count else 0.0

    engine_passes, cluster_passes = engine["passes"], cluster["passes"]
    engine_fps = [p["fps"] for p in engine_passes]
    engine_pass_s = median(p["total_s"] for p in engine_passes)

    def cmed(key: str) -> float:
        return median(p[key] for p in cluster_passes)

    busy = [
        median(p["worker_busy_s"][w] for p in cluster_passes)
        for w in range(len(cluster_passes[0]["worker_busy_s"]))
    ]
    first = cluster_passes[0]
    owned, frames_in = first["worker_owned"], first["frames_in"]
    delivered = first["frames_routed"] + first["frames_replicated"]
    ignored = distiller["ignored"] + distiller["non_ip"] + distiller["non_udp"]
    cluster_fps = cmed("fps")
    sharding = traced["sharding"]
    return {
        "workload.generate_s": built.generate_s + built.transform_s,
        "workload.frames": frames,
        "workload.wire_bytes": built.trace.total_bytes,
        "workload.sip_frame_share": sip_footprints / frames,
        "workload.fragment_frame_share": sharding["fragment_frames"] / frames,
        "pcap.write_s": write_s,
        "pcap.read_us_per_frame": median(
            mean_us(p["read_s"], p["frames"]) for p in engine_passes
        ),
        "distill.us_per_frame": mean_us(sums["distill"], frames),
        "distill.share": share("distill"),
        "distill.sip_us": mean_us(*by_kind["sip"]),
        "distill.rtp_us": mean_us(*by_kind["rtp"]),
        "distill.fragment_us": mean_us(*by_kind["fragment"]),
        "distill.p99_us": traced["distill_p99_us"],
        "distill.footprints": distiller["footprints"],
        "distill.malformed": distiller["malformed"],
        "distill.fragments_held": distiller["fragments_held"],
        "distill.ignored": ignored,
        "forensics.record_us_per_frame": mean_us(
            sums["forensics"], distiller["footprints"]
        ),
        "forensics.share": share("forensics"),
        "state.us_per_sip_footprint": mean_us(sums["state"], sip_footprints),
        "state.share": share("state"),
        "trail.push_us_per_footprint": mean_us(sums["trail"], traced["footprints"]),
        "trail.share": share("trail"),
        "trail.live_trails": traced["live_trails"],
        "generate.us_per_footprint": mean_us(sums["generate"], traced["footprints"]),
        "generate.share": share("generate"),
        "generate.events": traced["events"],
        "match.us_per_event": mean_us(sums["match"], traced["events"]),
        "match.share": share("match"),
        "match.alerts": len(traced["alerts"]),
        "match.dispatch_skipped": traced["dispatch_skipped"],
        "engine.construct_ms": median(p["construct_s"] for p in engine_passes) * 1e3,
        "engine.housekeep_share": share("housekeep"),
        "engine.residual_share": residual_s / frame_s,
        "engine.trace_overhead_ratio": (frames / traced["wall_s"]) / median(engine_fps),
        "engine.warmup_ratio": engine["warmup_ratio"],
        "engine.frame_mean_us": engine["mean_us"],
        "engine.frame_p99_us": engine["p99_us"],
        "engine.frame_p999_us": engine["p999_us"],
        "engine.fps_iqr_share": spread(engine_fps),
        "checkpoint.kib": traced["checkpoint_kib"],
        "checkpoint.ms": traced["checkpoint_ms"],
        "sharding.shard_key_us_per_frame": mean_us(sharding["shard_key_s"], frames),
        "sharding.route_us_per_frame": mean_us(sharding["route_s"], frames),
        "sharding.broadcast_share": first["frames_signalling"] / frames_in,
        "sharding.owner_imbalance": max(owned) / (sum(owned) / len(owned)),
        "cluster.start_s": cmed("start_s"),
        "cluster.submit_s": cmed("submit_s"),
        "cluster.drain_s": cmed("drain_s"),
        "cluster.router_cpu_s": cmed("router_cpu_s"),
        "cluster.submit_wait_s": median(
            p["submit_s"] - p["router_cpu_s"] for p in cluster_passes
        ),
        "cluster.worker_busy_max_s": max(busy),
        "cluster.worker_busy_sum_s": sum(busy),
        "cluster.busy_imbalance": max(busy) / (sum(busy) / len(busy)),
        "cluster.replication_ratio": delivered / frames_in,
        "cluster.work_inflation": sum(busy) / engine_pass_s,
        "cluster.batches_submitted": cmed("batches_submitted"),
        "cluster.frames_dropped": max(p["frames_dropped"] for p in cluster_passes),
        "cluster.speedup_vs_engine": cluster_fps / median(engine_fps),
        "cluster.modeled_fps": cmed("modeled_fps"),
        "cluster.worker_peak_rss_mb": cluster["worker_peak_rss_mb"],
    }


# -- one workload ----------------------------------------------------------------


def check_drift(name: str, seed: int, digests: dict[str, str], score: Score) -> None:
    if seed != workloads.PINNED_SEED:
        return
    pinned = workloads.pinned_digests().get(name)
    if pinned is not None and pinned != digests:
        changed = sorted(key for key in digests if pinned.get(key) != digests[key])
        score.fail(1, f"workload drifted ({name} @ seed {seed}: {', '.join(changed)})")


@dataclasses.dataclass(slots=True)
class Measured:
    """Everything one workload's set-up and children produced."""

    built: workloads.BuiltWorkload
    setups: list[float]
    write_s: float
    engine: dict
    cluster: dict
    traced: dict | None


def measure(
    name: str,
    seed: int,
    *,
    trace: int | None = None,
    passes: int | None = None,
    seconds: float | None = None,
    trace_out: Path | None = None,
    spec: Path | None = None,
    fragmented: bool | None = None,
) -> Measured:
    """Build workload ``name`` and run its measured children."""
    want_e2e, want_layers = trace != 1, trace != 0
    job: dict = {"passes": passes, "trace_out": None}
    if passes is None and seconds is None:
        job["passes"] = DEFAULT_PASSES
    elif passes is None:
        job["min_passes"] = MIN_PASSES if want_e2e else MIN_PASSES_TRACED
        job["budget_s"] = seconds / (3 if want_layers else 2)
    if trace_out is not None:
        trace_out.mkdir(parents=True, exist_ok=True)
        job["trace_out"] = str(trace_out / f"{name}.spans.jsonl")

    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up is repeated and its median reported, so one slow disk
        # flush or scheduler hiccup does not read as a set-up regression.
        setups: list[float] = []
        for _ in range(SETUP_REPEATS if want_e2e else 1):
            started = time.perf_counter()
            built = workloads.build(name, seed, spec=spec, fragmented=fragmented)
            write_s = workloads.write_inputs(built, workdir)
            setups.append(time.perf_counter() - started)
        engine = run_child("engine", workdir, job)
        cluster = run_child("cluster", workdir, job)
        traced = run_child("traced", workdir, job) if want_layers else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    return Measured(built, setups, write_s, engine, cluster, traced)


def report(measured: Measured, trace: int | None = None) -> dict:
    """Score one workload's measurements and name its metrics."""
    built, engine, cluster = measured.built, measured.engine, measured.cluster
    score = score_run(built.truth, engine, cluster, measured.traced)
    record: dict = {
        "workload": built.name,
        "seed": built.seed,
        "metrics": {},
        "digests": {},
    }
    if not score.broken:
        record["digests"] = workloads.digests_of(built, engine["passes"][0]["alerts"])
        check_drift(built.name, built.seed, record["digests"], score)
        values: dict[str, float] = {}
        if trace != 1:
            values.update(end_to_end(median(measured.setups), engine, cluster))
            record["samples"] = {
                "engine_fps": [p["fps"] for p in engine["passes"]],
                "engine_frame_p50_us": [p["p50_us"] for p in engine["passes"]],
                "engine_frame_p90_us": [p["p90_us"] for p in engine["passes"]],
                "cluster2_fps": [p["fps"] for p in cluster["passes"]],
                "setup_s": measured.setups,
            }
        if trace != 0:
            values.update(
                per_layer(built, measured.write_s, engine, cluster, measured.traced)
            )
            score.fail(
                int(values["engine.residual_share"] > RESIDUAL_LIMIT),
                f"engine.residual_share above {RESIDUAL_LIMIT}",
            )
            values["failed_share"] = score.failed / score.attempted
        # BENCHMARK.json is the only list of names and units: a value it
        # does not name is a KeyError here, not a silently dropped metric.
        units = {
            entry["name"]: entry["unit"]
            for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
        }
        record["metrics"] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        }
        record["passes"] = {
            "engine": len(engine["passes"]),
            "cluster": len(cluster["passes"]),
            "latency_samples": engine["samples"],
        }
    record.update(
        correct=score.failed == 0,
        attempted=score.attempted,
        failed=score.failed,
        notes=score.notes,
    )
    return record


# -- command line ----------------------------------------------------------------


def stamp(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "passes": args.passes or (DEFAULT_PASSES if args.seconds is None else None),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}) ==")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in record["digests"].items():
        print(f"  {key:34s} {value}")
    for note in record["notes"]:
        print(f"  FAILED {note}")
    print(
        f"  attempted {record['attempted']}  failed {record['failed']}  "
        f"correct {record['correct']}"
    )


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument(
        "--workload",
        action="append",
        choices=workloads.WORKLOADS,
        help="repeatable; default: all four",
    )
    parser.add_argument(
        "--passes", type=int, help=f"timed passes per mode (default {DEFAULT_PASSES})"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        help=f"measure by time instead: passes until the time is spent, "
        f"at least {MIN_PASSES} per mode",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only; default both",
    )
    parser.add_argument("--out", type=Path, help="write all results as JSON here")
    parser.add_argument(
        "--trace-out", type=Path, help="directory for <workload>.spans.jsonl"
    )
    args = parser.parse_args(argv)
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    records = []
    for name in args.workload or workloads.WORKLOADS:
        measured = measure(
            name,
            args.seed,
            trace=args.trace,
            passes=args.passes,
            seconds=args.seconds,
            trace_out=args.trace_out,
        )
        record = report(measured, args.trace)
        records.append(record)
        print_record(record)
        # The driver reads the last line of a one-workload run.
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": record["metrics"],
                }
            ),
            flush=True,
        )
    if args.out is not None:
        args.out.write_text(
            json.dumps({"stamp": stamp(args), "runs": records}, indent=1),
            encoding="utf-8",
        )
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
