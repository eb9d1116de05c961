"""Tests for the assembled engine and the §4.3 analytic models."""

from __future__ import annotations

import math

import pytest

from repro.core import analysis
from repro.core.engine import ScidiveEngine
from repro.core.rules_library import RULE_BYE_ATTACK
from repro.sim.distributions import Constant, Exponential, Uniform
from repro.voip.scenarios import normal_call
from repro.voip.testbed import CLIENT_A_IP, Testbed


class TestScidiveEngine:
    def test_online_processing_produces_footprints(self, testbed, engine_at_a):
        testbed.register_all()
        normal_call(testbed, talk_seconds=1.0)
        assert engine_at_a.stats.frames > 0
        assert engine_at_a.stats.footprints > 0
        assert engine_at_a.stats.events > 0
        assert engine_at_a.trails.session_count >= 1

    def test_offline_replay_equals_online(self, testbed):
        online = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        online.attach(testbed.ids_tap)
        testbed.register_all()
        normal_call(testbed, talk_seconds=1.0)
        offline = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        offline.process_trace(testbed.ids_tap.trace)
        assert offline.stats.footprints == online.stats.footprints
        assert [e.name for e in offline.event_log] == [e.name for e in online.event_log]
        assert len(offline.alerts) == len(online.alerts)

    def test_cpu_accounting(self, testbed, engine_at_a):
        testbed.register_all()
        assert engine_at_a.stats.cpu_seconds > 0
        assert engine_at_a.stats.frames_per_cpu_second > 0

    def test_inject_event_reaches_rules(self):
        from repro.core.events import EVENT_ORPHAN_RTP_AFTER_BYE, Event

        engine = ScidiveEngine()
        alerts = engine.inject_event(
            Event(name=EVENT_ORPHAN_RTP_AFTER_BYE, time=1.0, session="x",
                  attrs={"party": "bob@example.com", "endpoint": "10.0.0.20:40000", "delay": 0.01})
        )
        assert [a.rule_id for a in alerts] == [RULE_BYE_ATTACK]

    def test_event_subscribers_called(self, testbed):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, name="ids-a")
        engine.attach(testbed.ids_tap)
        seen = []
        engine.event_subscribers.append(lambda name, event: seen.append((name, event.name)))
        testbed.register_all()
        normal_call(testbed, talk_seconds=0.5)
        assert seen
        assert all(name == "ids-a" for name, __ in seen)

    def test_reset_detection_state(self, testbed, engine_at_a):
        testbed.register_all()
        normal_call(testbed, talk_seconds=0.5)
        engine_at_a.reset_detection_state()
        assert engine_at_a.event_log == []
        assert engine_at_a.alerts == []
        # Protocol state survives: session knowledge retained.
        assert engine_at_a.trails.session_count >= 1


class TestAnalysis:
    """The paper's own checkable conclusions."""

    def test_expected_delay_is_10ms_under_paper_assumptions(self):
        g = Uniform(0.0, 0.020)
        n = Exponential(scale=0.003)
        assert analysis.expected_detection_delay(n, g, n) == pytest.approx(0.010)

    def test_expected_delay_formula_general(self):
        n_rtp = Constant(0.004)
        n_sip = Constant(0.001)
        g = Constant(0.005)
        # D = 0.020 + 0.004 - 0.005 - 0.001
        assert analysis.expected_detection_delay(n_rtp, g, n_sip) == pytest.approx(0.018)

    def test_pf_is_half_for_iid(self):
        n = Exponential(scale=0.002)
        assert analysis.false_alarm_probability(n, n) == pytest.approx(0.5, abs=1e-6)

    def test_pf_symmetry_broken_by_slower_sip(self):
        rtp = Exponential(scale=0.002)
        slow_sip = Exponential(scale=0.010)
        # SIP usually slower => rarely overtakes => P_f < 0.5.
        assert analysis.false_alarm_probability(rtp, slow_sip) < 0.25

    def test_pf_window_cap_reduces_probability(self):
        n = Exponential(scale=0.002)
        assert analysis.false_alarm_probability(n, n, m=0.001) < analysis.false_alarm_probability(n, n)

    def test_pf_constant_delays(self):
        # Equal constant delays: SIP never strictly beats RTP.
        assert analysis.false_alarm_probability(Constant(0.005), Constant(0.005)) in (0.0, 1.0)

    def test_pm_decreases_with_window(self):
        g = Uniform(0.0, 0.020)
        n = Exponential(scale=0.002)
        values = [analysis.missed_alarm_probability(n, g, n, m) for m in (0.021, 0.030, 0.060)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-4

    def test_pm_analytic_matches_mc(self):
        g = Uniform(0.0, 0.020)
        n = Exponential(scale=0.002)
        for m in (0.022, 0.030):
            a = analysis.missed_alarm_probability(n, g, n, m)
            mc = analysis.missed_alarm_probability_mc(n, g, n, m, trials=40_000, seed=5)
            assert mc == pytest.approx(a, abs=0.01)

    def test_pf_analytic_matches_mc(self):
        n_rtp = Exponential(scale=0.002)
        n_sip = Exponential(scale=0.004)
        a = analysis.false_alarm_probability(n_rtp, n_sip)
        mc = analysis.false_alarm_probability_mc(n_rtp, n_sip, trials=40_000, seed=6)
        assert mc == pytest.approx(a, abs=0.01)

    def test_delay_sampler_mean_matches_expectation(self):
        g = Uniform(0.0, 0.020)
        n = Exponential(scale=0.002)
        samples = analysis.detection_delay_samples(n, g, n, n=50_000, seed=2)
        assert sum(samples) / len(samples) == pytest.approx(0.010, abs=0.0005)

    def test_multi_packet_model_reduces_pm_with_loss(self):
        g = Uniform(0.0, 0.020)
        n = Exponential(scale=0.002)
        # With 30% loss and only one packet considered, misses are common;
        # considering five packets nearly eliminates them for large m.
        one = analysis.missed_alarm_probability_mc(
            n, g, n, m=0.2, loss_rate=0.3, packets_considered=1, seed=7
        )
        five = analysis.missed_alarm_probability_mc(
            n, g, n, m=0.2, loss_rate=0.3, packets_considered=5, seed=7
        )
        assert one > 0.25
        assert five < 0.01
