"""The latency-budget burn-rate signal and its engine integration."""

from __future__ import annotations

import pytest

from repro.core.alerts import Severity
from repro.core.engine import ScidiveEngine
from repro.experiments.harness import run_bye_attack
from repro.obs import Observability
from repro.obs.budget import DEFAULT_FRAME_BUDGET, LatencyBudgetDetector
from repro.resilience.overload import EngineOverload, OverloadConfig
from repro.voip.testbed import CLIENT_A_IP


class TestDetector:
    def test_rejects_nonpositive_budget_and_tiny_window(self):
        with pytest.raises(ValueError):
            LatencyBudgetDetector(budget=0.0)
        with pytest.raises(ValueError):
            LatencyBudgetDetector(window=1)

    def test_quiet_engine_never_overloads(self):
        det = LatencyBudgetDetector(budget=0.005, window=4)
        for _ in range(100):
            det.record(0.001)
        assert det.burn_rate == pytest.approx(0.2)
        assert not det.overloaded
        assert det.frames_over_budget == 0

    def test_burn_rate_is_window_average_in_budgets(self):
        det = LatencyBudgetDetector(budget=0.010, window=4)
        for latency in (0.005, 0.010, 0.015, 0.010):
            det.record(latency)
        assert det.burn_rate == pytest.approx(1.0)
        assert det.overloaded

    def test_recovery_clears_overload(self):
        det = LatencyBudgetDetector(budget=0.001, window=4)
        for _ in range(4):
            det.record(1.0)
        assert det.overloaded
        for _ in range(4):
            det.record(0.0001)
        assert not det.overloaded
        assert det.burn_rate == pytest.approx(0.1)

    def test_window_sum_tracks_evictions_exactly(self):
        det = LatencyBudgetDetector(budget=1.0, window=3)
        for latency in (1.0, 2.0, 3.0, 4.0, 5.0):
            det.record(latency)
        # Window holds (3, 4, 5): burn = 12 / (3 * 1.0 budget).
        assert det.burn_rate == pytest.approx(4.0)
        assert det.frames == 5

    def test_over_budget_fraction_counts_all_frames(self):
        det = LatencyBudgetDetector(budget=0.010, window=4)
        for latency in (0.005, 0.020, 0.005, 0.020):
            det.record(latency)
        assert det.over_budget_fraction == pytest.approx(0.5)

    def test_as_dict_is_json_safe_and_reset_zeroes(self):
        import json

        det = LatencyBudgetDetector(budget=0.001, window=4)
        for _ in range(6):
            det.record(1.0)
        view = json.loads(json.dumps(det.as_dict()))
        assert view["overloaded"] is True
        assert view["frames"] == 6
        assert view["budget_seconds"] == 0.001


class TestEngineIntegration:
    def test_instrumented_engine_gets_default_budget(self):
        engine = ScidiveEngine(
            vantage_ip=CLIENT_A_IP,
            observability=Observability.create(trace=False),
        )
        assert engine.latency_budget is not None
        assert engine.latency_budget.budget == DEFAULT_FRAME_BUDGET

    def test_dark_engine_has_no_detector(self):
        assert ScidiveEngine(vantage_ip=CLIENT_A_IP).latency_budget is None

    def test_zero_budget_disables_the_detector(self):
        ctx = Observability.create(trace=False)
        ctx.frame_budget = 0.0
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=ctx)
        assert engine.latency_budget is None

    @staticmethod
    def _impossible_budget_run():
        ctx = Observability.create(trace=False)
        ctx.frame_budget = 1e-12  # every frame blows the budget
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=ctx)
        return ctx, engine, run_bye_attack(seed=7).testbed.ids_tap.trace

    def test_impossible_budget_burns_without_alerting(self):
        ctx, engine, trace = self._impossible_budget_run()
        engine.process_trace(trace)
        # The budget is a signal: no alert of its own, ever.
        assert not any(a.rule_id.startswith("SELF-OVERLOAD")
                       for a in engine.alerts)
        assert engine.latency_budget.overloaded
        # The registry's burn-rate gauge reflects the detector once the
        # engine snapshots its gauges.
        engine.snapshot_gauges()
        families = ctx.registry.get("scidive_frame_budget_burn_rate")
        child = families.labels(engine=engine.name)
        assert child.value > 1.0

    def test_controller_turns_the_burn_into_a_brownout_alert(self):
        _ctx, engine, trace = self._impossible_budget_run()
        overload = EngineOverload(engine, OverloadConfig(tick_frames=64))
        for record in trace:
            engine.process_frame(record.frame, record.timestamp)
            overload.record_frame(record.timestamp)
        overloads = [a for a in engine.alerts
                     if a.rule_id.startswith("SELF-OVERLOAD")]
        assert [a.rule_id for a in overloads] == ["SELF-OVERLOAD-BROWNOUT"]
        assert overloads[0].severity is Severity.HIGH
        assert overloads[0].attack_class == "self-diagnostic"
        assert "burn rate" in overloads[0].message
