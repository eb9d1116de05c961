"""Integration tests: H.323 calls, the forged-release attack, detection."""

from __future__ import annotations

import pytest

from repro.attacks import ForgedReleaseAttack
from repro.core.engine import ScidiveEngine
from repro.core.rules_library import RULE_H323_RELEASE
from repro.h323.endpoint import H323CallState
from repro.h323.testbed import H323Testbed, H323TestbedConfig, TERMINAL_A_IP


@pytest.fixture
def h323_testbed() -> H323Testbed:
    return H323Testbed(H323TestbedConfig(seed=7))


class TestH323Calls:
    def test_register_and_call(self, h323_testbed):
        tb = h323_testbed
        tb.register_all()
        assert tb.terminal_a.registered and tb.terminal_b.registered
        call = tb.terminal_a.call("bob")
        tb.run_for(1.5)
        assert call.state == H323CallState.ACTIVE
        assert call.remote_media is not None
        # Media flows both ways at the 20 ms cadence.
        tb.run_for(1.0)
        b_call = list(tb.terminal_b.calls.values())[0]
        assert call.rtp.total_received > 40
        assert b_call.rtp.total_received > 40

    def test_release_tears_down(self, h323_testbed):
        tb = h323_testbed
        tb.register_all()
        call = tb.terminal_a.call("bob")
        tb.run_for(1.5)
        tb.terminal_a.release(call)
        tb.run_for(1.0)
        assert call.state == H323CallState.RELEASED
        sent = call.rtp.sender.packets_sent
        tb.run_for(0.5)
        assert call.rtp.sender.packets_sent == sent

    def test_call_to_unknown_alias_fails(self, h323_testbed):
        tb = h323_testbed
        tb.register_all()
        call = tb.terminal_a.call("nobody")
        tb.run_for(1.0)
        assert call.state == H323CallState.FAILED

    def test_gatekeeper_resolution_used(self, h323_testbed):
        tb = h323_testbed
        tb.register_all()
        tb.terminal_a.call("bob")
        tb.run_for(1.0)
        assert tb.gatekeeper.admissions_granted >= 1


class TestForgedRelease:
    def _attack_run(self, tb: H323Testbed):
        ids = ScidiveEngine(vantage_ip=TERMINAL_A_IP)
        ids.attach(tb.ids_tap)
        attack = ForgedReleaseAttack(tb)
        tb.register_all()
        call = tb.terminal_a.call("bob")
        tb.run_for(1.5)
        injection = tb.now()
        attack.launch_now()
        tb.run_for(1.5)
        return ids, attack, call, injection

    def test_attack_works(self, h323_testbed):
        ids, attack, call, injection = self._attack_run(h323_testbed)
        assert attack.report.completed
        assert call.state == H323CallState.RELEASED
        assert call.released_by_peer  # the victim blames its peer
        b_call = list(h323_testbed.terminal_b.calls.values())[0]
        assert b_call.state == H323CallState.ACTIVE  # B kept talking

    def test_detected_by_h323_rule(self, h323_testbed):
        ids, attack, call, injection = self._attack_run(h323_testbed)
        alerts = ids.alerts_for_rule(RULE_H323_RELEASE)
        assert len(alerts) >= 1
        assert alerts[0].time - injection < 0.1

    def test_same_engine_no_sip_rules_triggered(self, h323_testbed):
        ids, attack, call, injection = self._attack_run(h323_testbed)
        # Only the H.323 rule fires; the SIP-side rules stay silent on an
        # H.323 deployment — one engine, both CMPs.
        assert {a.rule_id for a in ids.alerts} == {RULE_H323_RELEASE}

    def test_benign_release_not_flagged(self, h323_testbed):
        tb = h323_testbed
        ids = ScidiveEngine(vantage_ip=TERMINAL_A_IP)
        ids.attach(tb.ids_tap)
        tb.register_all()
        call = tb.terminal_a.call("bob")
        tb.run_for(1.5)
        b_call = list(tb.terminal_b.calls.values())[0]
        tb.terminal_b.release(b_call)  # B really hangs up
        tb.run_for(1.5)
        assert ids.alerts == []

    def test_h225_trails_linked_to_session(self, h323_testbed):
        ids, attack, call, injection = self._attack_run(h323_testbed)
        session_id = f"h323-crv-{call.call_reference}"
        session = ids.trails.calls.get(session_id)
        assert session is not None
        protocols = {t.protocol.value for t in session.trails}
        assert "h225" in protocols
