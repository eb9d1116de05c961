"""The per-stage exception firewall: quarantine, metrics, circuit break.

A throwing rule, generator or decoder must degrade to a contained,
visible incident — never kill the frame path.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ScidiveEngine
from repro.core.events import Event, EventGenerator
from repro.core.rules import Rule, Severity
from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import build_udp_frame
from repro.obs.registry import MetricsRegistry
from repro.resilience import QUARANTINE_RULE_ID, StageFirewall

MAC1 = MacAddress("02:00:00:00:00:01")
MAC2 = MacAddress("02:00:00:00:00:02")
A = IPv4Address.parse("10.0.0.10")
B = IPv4Address.parse("10.0.0.66")

SIP_OPTIONS = (
    b"OPTIONS sip:probe@10.0.0.10 SIP/2.0\r\n"
    b"Call-ID: fw-test@example\r\n"
    b"From: <sip:a@example>;tag=1\r\nTo: <sip:b@example>\r\n"
    b"CSeq: 1 OPTIONS\r\nContent-Length: 0\r\n\r\n"
)


def _sip_frame() -> bytes:
    return build_udp_frame(MAC1, MAC2, A, B, 5060, 5060, SIP_OPTIONS)


class _ThrowingRule(Rule):
    trigger_events = None  # wildcard: sees every event

    def __init__(self) -> None:
        super().__init__("THROW-001", "always throws", Severity.LOW, "test")

    def on_event(self, event):
        raise RuntimeError("rule exploded")


class _ThrowingGenerator(EventGenerator):
    name = "throwing-generator"

    def on_footprint(self, footprint, trail, ctx):
        raise ValueError("generator exploded")


def _throwing_decoder(distiller, payload, common):
    raise OSError("decoder exploded")


class TestStageFirewall:
    def test_trips_exactly_once_at_threshold(self):
        firewall = StageFirewall(threshold=3)
        exc = RuntimeError("x")
        assert not firewall.record_error("rule", "R", exc)
        assert not firewall.record_error("rule", "R", exc)
        assert firewall.record_error("rule", "R", exc)       # the trip
        assert not firewall.record_error("rule", "R", exc)   # never again
        assert firewall.is_quarantined("rule", "R")
        assert firewall.total_errors == 4

    def test_emits_one_self_diagnostic_alert(self):
        seen = []
        firewall = StageFirewall(threshold=2, emit_alert=seen.append)
        exc = RuntimeError("x")
        for _ in range(5):
            firewall.record_error("generator", "G", exc, when=1.5)
        assert len(seen) == 1
        alert = seen[0]
        assert alert.rule_id == QUARANTINE_RULE_ID
        assert alert.attack_class == "self-diagnostic"
        assert "G" in alert.message

    def test_metrics_counter(self):
        registry = MetricsRegistry()
        firewall = StageFirewall(engine_name="e1", registry=registry)
        firewall.record_error("decoder", "D", RuntimeError("x"))
        rendered = registry.render_prometheus()
        assert "scidive_stage_errors_total" in rendered
        assert 'component="D"' in rendered

    def test_state_roundtrip(self):
        firewall = StageFirewall(threshold=1)
        firewall.record_error("rule", "R", RuntimeError("x"))
        state = firewall.state()
        fresh = StageFirewall(threshold=1)
        fresh.load_state(state)
        assert fresh.is_quarantined("rule", "R")
        assert fresh.errors == firewall.errors


class TestEngineIntegration:
    def test_throwing_rule_is_quarantined_not_fatal(self):
        engine = ScidiveEngine()
        bad = _ThrowingRule()
        engine.ruleset.add(bad)
        threshold = engine.firewall.threshold
        for n in range(threshold + 2):
            engine.inject_event(Event(name="probe", time=float(n), session="s"))
        # Pipeline survived, the rule left the set, one CRITICAL
        # self-alert announces it.
        assert all(r.rule_id != "THROW-001" for r in engine.ruleset.rules)
        quarantine_alerts = [
            a for a in engine.alert_log.alerts if a.rule_id == QUARANTINE_RULE_ID
        ]
        assert len(quarantine_alerts) == 1
        assert engine.firewall.is_quarantined("rule", "THROW-001")

    def test_throwing_generator_is_quarantined(self):
        engine = ScidiveEngine()
        engine.generators = engine.generators + [_ThrowingGenerator()]
        threshold = engine.firewall.threshold
        for n in range(threshold + 2):
            engine.process_frame(_sip_frame(), float(n))
        assert all(g.name != "throwing-generator" for g in engine.generators)
        assert engine.firewall.is_quarantined("generator", "throwing-generator")
        # Detection kept running: the SIP frames were still distilled.
        assert engine.stats.footprints == threshold + 2

    def test_throwing_decoder_is_quarantined_and_frames_degrade(self):
        engine = ScidiveEngine()
        engine.distiller.decoders = (_throwing_decoder,) + engine.distiller.decoders
        threshold = engine.firewall.threshold
        for n in range(threshold):
            engine.process_frame(_sip_frame(), float(n))
        # While quarantining, each poisoned decode degraded to malformed.
        assert engine.distiller.stats.malformed == threshold
        assert engine.firewall.is_quarantined("decoder", "_throwing_decoder")
        assert _throwing_decoder not in engine.distiller.decoders
        # After removal the chain works normally again.
        engine.process_frame(_sip_frame(), float(threshold))
        assert engine.distiller.stats.malformed == threshold

    def test_firewall_false_propagates(self):
        engine = ScidiveEngine(firewall=False)
        engine.ruleset.add(_ThrowingRule())
        with pytest.raises(RuntimeError, match="rule exploded"):
            engine.inject_event(Event(name="probe", time=0.0, session="s"))

    def test_health_view_exposes_firewall(self):
        from repro.obs.server import StatusSource

        engine = ScidiveEngine()
        engine.firewall.record_error("rule", "R", RuntimeError("x"))
        source = StatusSource()
        source.set_engine(engine)
        view = source.health()["engine"]["firewall"]
        assert view["total_errors"] == 1
        assert view["errors"] == {"rule:R": 1}
