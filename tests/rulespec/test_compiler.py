"""The compiled shipped pack: what it lowers to and what a bare engine runs.

The shipped pack is the only definition of the paper's rules, so this
suite checks the wiring around it rather than a second copy: a bare
``ScidiveEngine()`` runs the very rules the pack file compiles to (same
alerts, same pack label, on every scenario the harness can produce),
engines compiled from the one process-cached pack share no rule state,
and the ``RULE_*`` constants name exactly the pack's rules.
"""

from __future__ import annotations

import collections

import pytest

from repro.core import rules_library
from repro.core.engine import ScidiveEngine
from repro.core.events import (
    EVENT_ACCOUNTING_MISMATCH,
    EVENT_MALFORMED_SIP,
    EVENT_ORPHAN_RTP_AFTER_BYE,
    EVENT_REPEATED_UNAUTH_REGISTER,
    Event,
)
from repro.experiments.harness import (
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
from repro.rulespec import CORE_PACK_PATH as SHIPPED
from repro.rulespec import CORE_PACK_SOURCE, core_pack, load_pack, parse_pack
from repro.voip.testbed import CLIENT_A_IP

SCENARIOS = {
    "benign": run_benign,
    "billing-fraud": run_billing_fraud,
    "bye-attack": run_bye_attack,
    "call-hijack": run_call_hijack,
    "fake-im": run_fake_im,
    "password-guess": run_password_guess,
    "register-dos": run_register_dos,
    "rtcp-bye-attack": run_rtcp_bye_attack,
    "rtp-attack": run_rtp_attack,
    "ssrc-spoof": run_ssrc_spoof,
}

_TRACES: dict[str, object] = {}


def _scenario_trace(name: str):
    """Capture each scenario once per test session; replays are cheap."""
    if name not in _TRACES:
        _TRACES[name] = SCENARIOS[name](seed=7).testbed.ids_tap.trace
    return _TRACES[name]


def _alerts(trace, rulepack=None) -> collections.Counter:
    """Alert multiset *with* the pack label each alert was raised under
    (alert equality alone ignores provenance)."""
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=rulepack)
    engine.process_trace(trace)
    return collections.Counter((a, a.pack_version) for a in engine.alerts)


@pytest.fixture(scope="module")
def pack():
    return load_pack(str(SHIPPED))


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pack_matches_rule_classes(self, name, pack):
        # The rule classes a bare engine holds are the pack file's,
        # compiled: handing the file over explicitly changes nothing,
        # down to the pack label stamped on every alert.
        trace = _scenario_trace(name)
        assert _alerts(trace, rulepack=pack) == _alerts(trace)

    def test_benign_traffic_stays_silent(self, pack):
        assert not _alerts(_scenario_trace("benign"), rulepack=pack)

    def test_dsl_alerts_carry_provenance(self, pack):
        # A bare engine: provenance must not depend on being handed a
        # pack, and must not embed where this checkout happens to live.
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.process_trace(_scenario_trace("bye-attack"))
        assert engine.alerts
        for alert in engine.alerts:
            assert alert.pack_version == pack.label
            assert alert.rule_source.startswith(f"{CORE_PACK_SOURCE}:")
            payload = alert.to_dict()
            assert payload["pack_version"] == pack.label
            assert payload["rule_source"] == alert.rule_source


class TestCompileShape:
    def test_same_rule_ids_as_hand_wired(self, pack):
        # The RULE_* constants tests and benches import are hand-written
        # strings; they must name exactly the pack's rules.
        constants = {
            value for name, value in vars(rules_library).items()
            if name.startswith("RULE_")
        }
        assert constants == {rdef.rule_id for rdef in pack.rules}
        assert len(constants) == len(pack.rules) == 12

    def test_bare_engine_reports_the_shipped_pack(self, pack):
        engine = ScidiveEngine()
        assert engine.rulepack is core_pack()
        assert engine.rulepack.label == pack.label
        assert engine.rulepack.info()["source_path"] == CORE_PACK_SOURCE
        assert [r.rule_id for r in engine.ruleset.rules] == [
            rdef.rule_id for rdef in pack.rules
        ]

    def test_compiled_ruleset_is_indexed(self, pack):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=pack)
        engine.process_trace(_scenario_trace("rtp-attack"))
        # The compiled pack must land in the indexed dispatch path, not
        # silently fall back to broadcast.
        assert engine.ruleset.dispatch_skipped > 0

    def test_rule_stats_surface_pack_provenance(self, pack):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=pack)
        for row in engine.ruleset.rule_stats():
            assert row["pack_version"] == pack.label
            assert str(row["source_location"]).startswith(str(SHIPPED))

    def test_recompiling_canonical_form_is_identical(self, pack):
        reparsed, _ = parse_pack(pack.describe(), "<describe>")
        trace = _scenario_trace("call-hijack")
        assert _alerts(trace, rulepack=reparsed) == _alerts(trace, rulepack=pack)


def _event(name: str, time: float, **attrs) -> Event:
    return Event(name=name, time=time, session="s", attrs=attrs)


class TestEnginesShareNoRuleState:
    """``core_pack()`` hands every engine the same RulePack object; what
    must never be shared is anything compiled from it."""

    def _armed_pair(self):
        first, second = ScidiveEngine(), ScidiveEngine()
        assert first.rulepack is second.rulepack
        for engine in (first, second):
            # A cooldown (BYE-001), a threshold bucket one short of
            # firing (DOS-001: 4 of 5) and two of FRAUD-001's three
            # conjunction members.
            alerts = engine.inject_event(_event(
                EVENT_ORPHAN_RTP_AFTER_BYE, 1.0, party="a", endpoint="e"))
            assert [a.rule_id for a in alerts] == ["BYE-001"]
            for i in range(4):
                assert not engine.inject_event(_event(
                    EVENT_REPEATED_UNAUTH_REGISTER, 1.0 + i * 0.1,
                    source="10.0.0.66", user="bob"))
            assert not engine.inject_event(_event(EVENT_MALFORMED_SIP, 1.5))
            assert not engine.inject_event(_event(EVENT_ACCOUNTING_MISMATCH, 1.6))
        return first, second

    def test_rule_objects_are_distinct(self):
        first, second = ScidiveEngine(), ScidiveEngine()
        for a, b in zip(first.ruleset.rules, second.ruleset.rules):
            assert a.rule_id == b.rule_id and a is not b
        assert first.ruleset.history is not second.ruleset.history

    def test_state_advances_independently(self):
        first, second = self._armed_pair()
        # Had the engines shared buckets, the second engine's four
        # REGISTER events would already have fired the threshold.
        fifth = _event(EVENT_REPEATED_UNAUTH_REGISTER, 1.9,
                       source="10.0.0.66", user="bob")
        assert [a.rule_id for a in first.inject_event(fifth)] == ["DOS-001"]
        assert len(first.alerts_for_rule("DOS-001")) == 1
        assert not second.alerts_for_rule("DOS-001")

    def test_reset_on_one_leaves_the_other_armed(self):
        first, second = self._armed_pair()
        first.reset_detection_state()
        probes = [
            _event(EVENT_ORPHAN_RTP_AFTER_BYE, 1.7, party="a", endpoint="e"),
            _event(EVENT_REPEATED_UNAUTH_REGISTER, 1.9,
                   source="10.0.0.66", user="bob"),
            _event("RtpSourceMismatch", 2.0, src="10.0.0.66:4000"),
        ]
        fired = {
            name: [a.rule_id for p in probes for a in engine.inject_event(p)]
            for name, engine in (("reset", first), ("armed", second))
        }
        # Reset engine: cooldown gone (BYE fires again), bucket and
        # conjunction members gone (one event reaches neither).
        assert fired["reset"] == ["BYE-001", "RTP-002"]
        # Untouched engine: still inside BYE's cooldown, fifth REGISTER
        # and third conjunction member both complete.
        assert fired["armed"] == ["DOS-001", "RTP-002", "FRAUD-001"]
