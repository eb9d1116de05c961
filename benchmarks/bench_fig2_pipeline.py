"""Figure 2: the SCIDIVE architecture pipeline, stage by stage.

Verifies and times each stage of Distiller → Trails → Event Generator →
Rule Matching on a recorded attack workload, reporting the population of
every stage (footprints per protocol, trails per protocol, events per
kind, alerts per rule) — the moving parts of the architecture figure.
"""

from __future__ import annotations

from collections import Counter

from conftest import once

from repro.core.engine import ScidiveEngine
from repro.experiments.report import format_table
from repro.experiments.workloads import capture_attack_workload
from repro.voip.testbed import CLIENT_A_IP


def _measure():
    trace, t_attack = capture_attack_workload(seed=61)
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
    engine.process_trace(trace)
    return trace, t_attack, engine


def test_fig2_pipeline_stages(benchmark, emit):
    trace, t_attack, engine = once(benchmark, _measure)

    trail_kinds = Counter(key[0] for key in engine.trails.trails)
    # A call's SIP trail is its record in the call table.
    trail_kinds["sip"] += sum(
        1 for call in engine.trails.calls.values() if call.count
    )
    event_kinds = Counter(e.name for e in engine.event_log)
    alert_kinds = Counter(a.rule_id for a in engine.alerts)

    rows = [
        ["frames captured", len(trace)],
        ["footprints distilled", engine.stats.footprints],
    ]
    rows += [[f"trails: {kind}", count] for kind, count in sorted(trail_kinds.items())]
    rows += [["sessions linked", engine.trails.session_count]]
    rows += [[f"events: {name}", count] for name, count in sorted(event_kinds.items())]
    rows += [[f"alerts: {rule}", count] for rule, count in sorted(alert_kinds.items())]
    emit(
        format_table(
            ["pipeline stage / population", "count"],
            rows,
            title="Figure 2 — Distiller → Trails → Events → Rules on a BYE-attack workload",
        )
    )
    # Architecture invariants.
    assert engine.stats.footprints > 0
    assert trail_kinds["sip"] >= 2  # registrations + calls
    assert trail_kinds["rtp"] >= 2  # two directions
    assert engine.trails.session_count >= 2
    assert event_kinds["CallEstablished"] >= 2
    assert alert_kinds == {"BYE-001": 1}
