"""Indexed dispatch must be invisible to detection.

The per-protocol generator tables and the trigger-event rule index are
pure routing optimisations: for any trace, an indexed engine must emit
byte-identical alert sequences to the broadcast reference (the
wildcard oracle, :mod:`tests.core.dispatch_oracle`) — with observability
on or off.  Exercised on the paper's four headline attacks
(Figures 5–8).
"""

from __future__ import annotations

import pytest

from repro.core.engine import ScidiveEngine
from repro.experiments.harness import (
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_rtp_attack,
)
from repro.obs import Observability
from repro.voip.testbed import CLIENT_A_IP
from tests.core.dispatch_oracle import wildcard_engine

ATTACKS = {
    "bye-attack": (run_bye_attack, "BYE-001"),
    "call-hijack": (run_call_hijack, "HIJACK-001"),
    "fake-im": (run_fake_im, "FAKEIM-001"),
    "rtp-attack": (run_rtp_attack, "RTP-003"),
}


@pytest.fixture(scope="module")
def attack_traces():
    """name -> captured tap trace, simulated once per attack."""
    return {name: runner(seed=7).testbed.ids_tap.trace
            for name, (runner, _) in ATTACKS.items()}


def _alert_signature(trace, indexed: bool, metrics: bool):
    ctx = Observability.create(trace=False) if metrics else None
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=ctx)
    if not indexed:
        wildcard_engine(engine)
    engine.process_trace(trace)
    signature = [(a.rule_id, a.time, a.session, a.message) for a in engine.alerts]
    return engine, signature


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_indexed_equals_broadcast(attack_traces, name):
    trace = attack_traces[name]
    reference_engine, reference = _alert_signature(trace, indexed=False, metrics=False)
    expected_rule = ATTACKS[name][1]
    assert any(rule_id == expected_rule for rule_id, *_ in reference), \
        f"{name}: broadcast reference must detect the attack"
    for indexed, metrics in ((True, False), (True, True), (False, True)):
        engine, signature = _alert_signature(trace, indexed=indexed, metrics=metrics)
        assert signature == reference, (name, indexed, metrics)
        assert engine.stats.events == reference_engine.stats.events
        assert engine.stats.footprints == reference_engine.stats.footprints


def test_indexed_engine_actually_skips_work(attack_traces):
    engine, _ = _alert_signature(attack_traces["rtp-attack"], indexed=True,
                                 metrics=False)
    broadcast, _ = _alert_signature(attack_traces["rtp-attack"], indexed=False,
                                    metrics=False)
    assert engine.ruleset.dispatch_skipped > 0
    assert broadcast.ruleset.dispatch_skipped == 0
    # Broadcast evaluates every rule on every event; indexed evaluates
    # strictly fewer without losing a single alert.
    attempted = lambda e: sum(r.matches_attempted for r in e.ruleset.rules)  # noqa: E731
    assert attempted(engine) + engine.ruleset.dispatch_skipped == attempted(broadcast)
