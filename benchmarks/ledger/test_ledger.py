"""Self-test of the pipeline ledger on a ~2k-frame toy workload.

Run as ``pytest benchmarks/ledger`` (tier-1 collects ``tests/`` only).
The toy spec goes through the same ``measure`` → ``report`` path as the
four committed workloads, fragmented so every code path of the harness
runs, then the scoring is attacked with doctored child results.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as ledger  # noqa: E402
import workloads  # noqa: E402

TOY_SPEC = """\
[workload]
name = toy
subscribers = 30
duration = 500
start_hour = 9
seed = 5
media_pps = 2

[attack bye]
count = 1

[attack hijack]
count = 1

[attack fake-im]
count = 1

[attack rtp]
count = 1
"""
TOY_SEED = 5
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def toy_spec(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("ledger") / "toy.workload"
    path.write_text(TOY_SPEC, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def measured(toy_spec) -> ledger.Measured:
    return ledger.measure("toy", TOY_SEED, passes=2, spec=toy_spec, fragmented=True)


@pytest.fixture(scope="module")
def record(measured) -> dict:
    return ledger.report(measured)


def test_toy_run_is_correct(record, measured):
    assert record["notes"] == []
    assert record["correct"] and record["failed"] == 0
    frames = len(measured.built.trace)
    assert 1000 < frames < 4000
    # 2 engine + 2 cluster timed passes, each frames + 4 scored attacks.
    assert record["attempted"] == 4 * (frames + 4)
    assert record["metrics"]["failed_share"]["value"] == 0.0


def test_names_match_the_contract(record):
    benchmark = ledger.BENCHMARK
    declared = {
        entry["name"]: entry["unit"]
        for entry in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    emitted = {name: metric["unit"] for name, metric in record["metrics"].items()}
    assert emitted == declared
    for name in list(declared) + [entry["name"] for entry in benchmark["workloads"]]:
        assert NAME_RE.fullmatch(name), name
    assert tuple(entry["name"] for entry in benchmark["workloads"]) == (
        workloads.WORKLOADS
    )
    for name in workloads.WORKLOADS:
        assert workloads.spec_path(name).exists()
    assert set(workloads.pinned_digests()) == set(workloads.WORKLOADS)
    assert benchmark["paths"] == ["benchmarks/ledger"]


def test_trace_flag_selects_the_metric_set(measured):
    benchmark = ledger.BENCHMARK
    end_to_end = {entry["name"] for entry in benchmark["end_to_end"]}
    per_layer = {entry["name"] for entry in benchmark["per_layer"]}
    assert set(ledger.report(measured, trace=0)["metrics"]) == end_to_end
    assert set(ledger.report(measured, trace=1)["metrics"]) == per_layer


def test_layer_self_times_and_residual_sum_to_frame_time(record, measured):
    value = {name: metric["value"] for name, metric in record["metrics"].items()}
    shares = (
        "distill.share",
        "forensics.share",
        "state.share",
        "trail.share",
        "generate.share",
        "match.share",
        "engine.housekeep_share",
        "engine.residual_share",
    )
    assert sum(value[name] for name in shares) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= value["engine.residual_share"] <= ledger.RESIDUAL_LIMIT
    assert 0.0 < value["engine.trace_overhead_ratio"]
    # The fragmented toy trace left the fast path and came back whole.
    assert value["distill.fragments_held"] > 0
    assert value["workload.fragment_frame_share"] > 0
    assert value["distill.ignored"] > 0
    sums = measured.traced["sums"]
    inner = sum(sums[layer] for layer in ("housekeep", "state", "trail", "generate"))
    assert inner + sums["match"] <= sums["footprint"]


def rescore(measured, engine=None, cluster=None, traced=None) -> ledger.Score:
    return ledger.score_run(
        measured.built.truth,
        engine or measured.engine,
        cluster or measured.cluster,
        traced or measured.traced,
    )


def test_tampered_alerts_fail(measured):
    assert rescore(measured).failed == 0
    cluster = copy.deepcopy(measured.cluster)
    dropped = cluster["passes"][0]["alerts"].pop()
    score = rescore(measured, cluster=cluster)
    assert score.failed >= 1
    assert any("differ from engine" in note for note in score.notes)

    engine = copy.deepcopy(measured.engine)
    forged = list(dropped)
    forged[2] += 100.0  # same rule, a time no label covers: a false alarm
    engine["passes"][1]["alerts"].append(forged)
    score = rescore(measured, engine=engine)
    assert any("false alarms" in note for note in score.notes)
    assert any("between passes" in note for note in score.notes)

    engine = copy.deepcopy(measured.engine)
    engine["reference_alerts"].pop()
    assert rescore(measured, engine=engine).failed >= 1

    traced = copy.deepcopy(measured.traced)
    traced["alerts"].pop()
    assert rescore(measured, traced=traced).failed >= 1


def test_lost_frames_fail(measured):
    cluster = copy.deepcopy(measured.cluster)
    one = cluster["passes"][0]
    one["frames_dropped"] += 1
    one["frames_routed"] -= 1
    one["engine_frames"] -= 1
    assert rescore(measured, cluster=cluster).failed >= 1

    engine = copy.deepcopy(measured.engine)
    engine["passes"][0]["distiller"]["footprints"] -= 1
    score = rescore(measured, engine=engine)
    assert score.failed == 1 and "unaccounted" in score.notes[0]

    broken = rescore(measured, cluster={"error": "Traceback ..."})
    assert broken.broken and broken.failed == 1 and broken.attempted == 1


def test_same_seed_same_digests(measured, toy_spec):
    again = workloads.build("toy", TOY_SEED, spec=toy_spec, fragmented=True)
    alerts = [one["alerts"] for one in measured.engine["passes"]]
    first = workloads.digests_of(measured.built, alerts[0])
    assert first == workloads.digests_of(again, alerts[1])
    other = workloads.build("toy", TOY_SEED + 1, spec=toy_spec, fragmented=True)
    assert workloads.digests_of(other, alerts[0])["trace_digest"] != (
        first["trace_digest"]
    )


def test_drift_is_reported(monkeypatch):
    digests = {"trace_digest": "a", "truth_digest": "b", "alert_digest": "c"}
    pinned = {"toy": dict(digests, trace_digest="changed")}
    monkeypatch.setattr(workloads, "pinned_digests", lambda: pinned)
    score = ledger.Score(None)
    ledger.check_drift("toy", workloads.PINNED_SEED + 1, digests, score)
    assert score.failed == 0
    ledger.check_drift("toy", workloads.PINNED_SEED, digests, score)
    assert score.failed == 1 and "workload drifted" in score.notes[0]


def test_compare_verdicts(tmp_path, record):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, True, 0.05)[1] == "ok"
    slower = [value * 0.9 for value in steady]
    assert compare.verdict(steady, slower, True, 0.05)[1] == "REGRESSED"
    assert compare.verdict(steady, slower, False, 0.05)[1] == "ok"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy, True, 0.05)[1] == "unresolved"
    assert compare.verdict(noisy, [200.0, 210.0], True, 0.05)[1] == "better"

    out = tmp_path / "toy.json"
    out.write_text(json.dumps({"runs": [record]}), encoding="utf-8")
    runs = compare.load_runs(out)
    # One run: the quartiles come from its per-pass samples.
    assert len(compare.samples(runs, "toy", "engine_fps")) == 2
