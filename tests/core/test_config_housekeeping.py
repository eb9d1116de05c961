"""Tests for engine state housekeeping and OPTIONS handling."""

from __future__ import annotations

from repro.attacks import ByeAttack
from repro.core.engine import ScidiveEngine
from repro.core.rules_library import RULE_BYE_ATTACK
from repro.voip.scenarios import normal_call
from repro.voip.testbed import CLIENT_A_IP, Testbed, TestbedConfig


class TestHousekeeping:
    def _engine_after_calls(self, n_calls: int, housekeep_at: float | None):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.attach(testbed.ids_tap)
        testbed.register_all()
        for __ in range(n_calls):
            normal_call(testbed, talk_seconds=0.5, settle=0.3)
        if housekeep_at is not None:
            engine.state_idle_timeout = housekeep_at
            engine.housekeep(testbed.now())
        return testbed, engine

    def test_expire_reclaims_dead_sessions(self):
        __, engine = self._engine_after_calls(3, housekeep_at=0.1)
        assert engine.trails.trail_count == 0
        assert engine.trails.session_count == 0
        assert engine.trails.calls == {}

    def test_expire_keeps_recent_state(self):
        __, engine = self._engine_after_calls(3, housekeep_at=3600.0)
        assert engine.trails.trail_count > 0
        assert engine.trails.session_count >= 3

    def test_automatic_housekeeping_counter(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.housekeeping_every = 50  # very eager
        engine.state_idle_timeout = 0.2
        engine.attach(testbed.ids_tap)
        testbed.register_all()
        for __ in range(3):
            normal_call(testbed, talk_seconds=0.5, settle=0.3)
        assert engine.expired_trails > 0

    def test_detection_unharmed_by_housekeeping(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.housekeeping_every = 50
        engine.state_idle_timeout = 30.0  # generous: live calls survive
        engine.attach(testbed.ids_tap)
        attack = ByeAttack(testbed)
        testbed.register_all()
        normal_call(testbed, talk_seconds=0.5)
        testbed.phone_a.call("sip:bob@example.com")
        testbed.run_for(1.5)
        attack.launch_now()
        testbed.run_for(1.5)
        assert engine.alerts_for_rule(RULE_BYE_ATTACK)

    def test_media_index_cleaned(self):
        from repro.net.addr import IPv4Address

        testbed, engine = self._engine_after_calls(1, housekeep_at=0.1)
        assert engine.trails.media.linked((IPv4Address.parse("10.0.0.10").packed, 40000)) is None


class TestOptionsHandling:
    def test_options_answered_with_allow(self, testbed):
        from repro.net.addr import Endpoint
        from repro.sip.message import SipResponse, parse_message

        testbed.register_all()
        got: list = []

        def on_datagram(payload, src, now):
            got.append(parse_message(payload))

        sock = testbed.stack_b.bind(5099, on_datagram)
        request = (
            b"OPTIONS sip:alice@10.0.0.10 SIP/2.0\r\n"
            b"Via: SIP/2.0/UDP 10.0.0.20:5099;branch=z9hG4bK-opt\r\n"
            b"Max-Forwards: 70\r\n"
            b"From: <sip:bob@example.com>;tag=o1\r\n"
            b"To: <sip:alice@example.com>\r\n"
            b"Call-ID: opt-1\r\nCSeq: 1 OPTIONS\r\nContent-Length: 0\r\n\r\n"
        )
        sock.send_to(Endpoint.parse("10.0.0.10:5060"), request)
        testbed.run_for(0.5)
        assert got and isinstance(got[0], SipResponse)
        assert got[0].status == 200
        assert "INVITE" in (got[0].headers.get("Allow") or "")
