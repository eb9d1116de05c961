"""Tests for deployment configuration and engine state housekeeping."""

from __future__ import annotations

import pytest

from repro.attacks import ByeAttack
from repro.core.config import ScidiveConfig
from repro.core.engine import ScidiveEngine
from repro.core.rules_library import RULE_BYE_ATTACK, RULE_RTP_SEQ
from repro.resilience.checkpoint import RulePackMismatch
from repro.rulespec import core_pack
from repro.voip.scenarios import normal_call
from repro.voip.testbed import CLIENT_A_IP, Testbed, TestbedConfig


class TestScidiveConfig:
    def test_defaults_match_paper(self):
        config = ScidiveConfig()
        assert config.seq_jump_threshold == 100
        assert config.monitoring_window == 0.5
        assert config.dos_threshold == 5

    def test_roundtrip_dict(self):
        config = ScidiveConfig(vantage_ip="10.0.0.10", seq_jump_threshold=250,
                               disabled_rules=("RTP-001",))
        again = ScidiveConfig.from_dict(config.to_dict())
        assert again == config

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "scidive.json"
        config = ScidiveConfig(dos_threshold=9)
        config.save(path)
        assert ScidiveConfig.load(path) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ScidiveConfig.from_dict({"vantage_ip": None, "bogus": 1})

    def test_built_engine_detects(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
        engine.attach(testbed.ids_tap)
        attack = ByeAttack(testbed)
        testbed.register_all()
        testbed.phone_a.call("sip:bob@example.com")
        testbed.run_for(1.5)
        attack.launch_now()
        testbed.run_for(1.5)
        assert engine.alerts_for_rule(RULE_BYE_ATTACK)

    def test_disabled_rule_never_fires(self):
        from repro.attacks import RtpAttack

        testbed = Testbed(TestbedConfig(seed=7))
        config = ScidiveConfig(vantage_ip=CLIENT_A_IP, disabled_rules=(RULE_RTP_SEQ,))
        engine = config.build_engine()
        engine.attach(testbed.ids_tap)
        attack = RtpAttack(testbed, packets=30)
        testbed.register_all()
        testbed.phone_a.call("sip:bob@example.com")
        testbed.run_for(1.5)
        attack.launch_now()
        testbed.run_for(1.5)
        assert engine.alerts_for_rule(RULE_RTP_SEQ) == []
        # Other media rules still cover the attack.
        assert engine.alerts

    def test_threshold_knob_propagates(self):
        config = ScidiveConfig(dos_threshold=2, dos_window=99.0)
        ruleset = config.build_ruleset()
        rule = next(r for r in ruleset.rules if r.rule_id == "DOS-001")
        assert rule.threshold == 2
        assert rule.window == 99.0

    def test_default_config_runs_the_shipped_pack(self):
        engine = ScidiveConfig().build_engine()
        assert engine.rulepack.label == core_pack().label
        assert [g.name for g in engine.generators] == [
            g.name for g in ScidiveEngine().generators
        ]

    def test_tuned_config_is_its_own_pack(self):
        config = ScidiveConfig(
            dos_threshold=2, dos_window=99.0, disabled_rules=(RULE_RTP_SEQ,),
            reregistration_window=7.0,
        )
        engine = config.build_engine()
        rules = {r.rule_id: r for r in engine.ruleset.rules}
        assert RULE_RTP_SEQ not in rules and len(rules) == 11
        assert (rules["DOS-001"].threshold, rules["DOS-001"].window) == (2, 99.0)
        # Untouched knobs keep the shipped values.
        assert (rules["PWD-001"].threshold, rules["PWD-001"].window) == (4, 30.0)
        # The tuning is visible wherever the pack identity is: a tuned
        # engine's checkpoints do not restore into a stock one.
        assert engine.rulepack.label != core_pack().label
        assert engine.rulepack.rule("DOS-001").threshold == 2
        with pytest.raises(RulePackMismatch):
            ScidiveEngine().restore(engine.checkpoint())
        im_source = next(g for g in engine.generators if g.name == "im-source")
        assert im_source.reregistration_window == 7.0


class TestHousekeeping:
    def _engine_after_calls(self, n_calls: int, housekeep_at: float | None):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
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
        assert engine.sip_state.calls == {}

    def test_expire_keeps_recent_state(self):
        __, engine = self._engine_after_calls(3, housekeep_at=3600.0)
        assert engine.trails.trail_count > 0
        assert engine.trails.session_count >= 3

    def test_automatic_housekeeping_counter(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
        engine.housekeeping_every = 50  # very eager
        engine.state_idle_timeout = 0.2
        engine.attach(testbed.ids_tap)
        testbed.register_all()
        for __ in range(3):
            normal_call(testbed, talk_seconds=0.5, settle=0.3)
        assert engine.expired_trails > 0

    def test_detection_unharmed_by_housekeeping(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
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
        from repro.net.addr import Endpoint

        testbed, engine = self._engine_after_calls(1, housekeep_at=0.1)
        assert engine.trails.media_owner(Endpoint.parse("10.0.0.10:40000")) is None


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
