"""Detection-quality scoring on the shared small workload.

The paper's Section-4.3 claim, in miniature: the stateful engine (and
the sharded cluster, which must detect identically) catches every
injected attack, while the stateless baseline cannot see the cross
protocol ones.
"""

from __future__ import annotations

import collections

import pytest

from repro.cluster import ScidiveCluster
from repro.experiments.quality import (
    evaluate_alerts,
    evaluate_workload,
    run_engine_alerts,
)
from repro.workload import ATTACK_KINDS, FLOOD_KINDS


def alert_key(alert):
    return (alert.rule_id, round(alert.time, 6), alert.session)


def test_engine_detects_every_attack(small_workload, small_engine_alerts):
    quality = evaluate_alerts("engine", small_engine_alerts, small_workload.truth)
    assert quality.missed == 0, [
        o.label.kind for o in quality.outcomes if not o.detected
    ]
    assert quality.recall == 1.0
    detected_kinds = {o.label.kind for o in quality.outcomes if o.detected}
    # Floods are pressure labels: unmissable by construction, never
    # counted as detections.
    assert detected_kinds == set(ATTACK_KINDS) - set(FLOOD_KINDS)
    for outcome in quality.outcomes:
        if not outcome.label.expected_rules:
            continue
        assert outcome.delay is not None and outcome.delay >= 0.0
        assert outcome.detecting_rule in outcome.label.expected_rules


def test_cluster_equivalent_to_engine(small_workload, small_engine_alerts):
    cluster = ScidiveCluster(workers=4, backend="serial", vantage_ip=None)
    result = cluster.process_trace(small_workload.trace)
    expected = collections.Counter(alert_key(a) for a in small_engine_alerts)
    got = collections.Counter(alert_key(a) for a in result.alerts)
    assert got == expected


def test_full_report_shape(small_workload):
    report = evaluate_workload(small_workload.trace, small_workload.truth)
    assert set(report.systems) == {"engine", "cluster", "baseline"}
    assert report.frames == len(small_workload.trace)
    # Engine and cluster detect identically; both catch everything.
    for system in ("engine", "cluster"):
        assert report.systems[system].missed == 0, system
    # The stateless baseline misses the stateful/cross-protocol attacks
    # (that asymmetry is the paper's whole argument).
    assert report.systems["baseline"].missed > 0
    # The report serialises; the gate script reads this dict.
    data = report.as_dict()
    assert data["systems"]["engine"]["false_alarm_rate"] == pytest.approx(
        report.systems["engine"].false_alarm_rate
    )


def test_engine_false_alarm_rate_low(small_workload, small_engine_alerts):
    quality = evaluate_alerts("engine", small_engine_alerts, small_workload.truth)
    # Benign churn must stay quiet: alerts not attributed to any attack
    # window are false alarms, and there should be none on this trace.
    assert quality.false_alarms == []


def test_pcap_roundtrip_scores_identically(
    small_workload, small_engine_alerts, tmp_path
):
    # `repro workload report` reads the trace back from trace.pcap; the
    # pcap's microsecond timestamps must score exactly like the
    # in-memory trace (labels are quantized to the same grid at
    # generation), or alerts on the injection frame fall a fraction of
    # a microsecond outside the detection window and flip to misses.
    from repro.net.pcap import read_pcap, write_pcap

    path = tmp_path / "trace.pcap"
    write_pcap(path, small_workload.trace)
    reread = read_pcap(path)
    assert [r.timestamp for r in reread] == [
        r.timestamp for r in small_workload.trace
    ]
    direct = evaluate_alerts("engine", small_engine_alerts, small_workload.truth)
    rescored = evaluate_alerts(
        "engine", run_engine_alerts(reread)[0], small_workload.truth
    )
    assert rescored.missed == 0
    assert rescored.false_alarms == direct.false_alarms == []
    assert [o.as_dict() for o in rescored.outcomes] == [
        o.as_dict() for o in direct.outcomes
    ]
