"""Sampled per-rule cost accounting in RuleSet.match."""

from __future__ import annotations

import pytest

from repro.core.alerts import AlertLog
from repro.core.events import Event
from repro.core.rules import RuleSet, SingleEventRule


def ev(name: str, t: float) -> Event:
    return Event(name=name, time=t, session="s1", attrs={})


def run(ruleset: RuleSet, events: list[Event]) -> AlertLog:
    log = AlertLog()
    for event in events:
        ruleset.match(event, log)
    return log


class TestSampling:
    def test_disabled_by_default(self):
        rule = SingleEventRule("R1", "r", "Boom")
        rs = RuleSet([rule])
        assert rs.cost_sample_rate == 0
        run(rs, [ev("Boom", float(i)) for i in range(20)])
        assert rule.cost_samples == 0
        assert rule.cost_seconds == 0.0
        assert rule.matches_attempted == 20  # counting is never sampled

    def test_every_nth_match_call_is_timed(self):
        rule = SingleEventRule("R1", "r", "Boom")
        rs = RuleSet([rule])
        rs.cost_sample_rate = 4
        run(rs, [ev("Boom", float(i)) for i in range(16)])
        assert rule.cost_samples == 4
        assert rule.cost_seconds > 0.0

    def test_rate_one_times_everything(self):
        rule = SingleEventRule("R1", "r", "Boom")
        rs = RuleSet([rule])
        rs.cost_sample_rate = 1
        run(rs, [ev("Boom", float(i)) for i in range(5)])
        assert rule.cost_samples == 5

    def test_sampled_cost_scales_to_estimated_total(self):
        import time

        class SlowRule(SingleEventRule):
            def on_event(self, event):
                time.sleep(0.001)
                return super().on_event(event)

        rule = SlowRule("R1", "slow", "Boom", cooldown=1e9)
        rs = RuleSet([rule])
        rs.cost_sample_rate = 4
        run(rs, [ev("Boom", float(i)) for i in range(16)])
        # 4 timed sleeps of >= 1 ms, each scaled by 4: the estimate
        # approximates the true 16 ms total, and certainly exceeds the
        # unscaled 4 ms that was actually measured.
        assert rule.cost_seconds >= 0.012

    def test_timed_tick_spans_all_candidates_of_one_event(self):
        a = SingleEventRule("RA", "a", "Boom")
        b = SingleEventRule("RB", "b", "Boom")
        rs = RuleSet([a, b])
        rs.cost_sample_rate = 2
        run(rs, [ev("Boom", float(i)) for i in range(4)])
        # The tick counts match() calls, not rule invocations: on each
        # sampled event *every* candidate is timed coherently.
        assert a.cost_samples == 2
        assert b.cost_samples == 2


class TestSurfacing:
    def _costed_ruleset(self):
        hot = SingleEventRule("HOT", "hot", "Boom", cooldown=1e9)
        cold = SingleEventRule("COLD", "cold", "Never")
        rs = RuleSet([hot, cold])
        rs.cost_sample_rate = 1
        run(rs, [ev("Boom", float(i)) for i in range(8)])
        return rs, hot, cold

    def test_rule_stats_carry_cost_fields(self):
        rs, hot, _ = self._costed_ruleset()
        row = next(r for r in rs.rule_stats() if r["rule_id"] == "HOT")
        assert row["cost_samples"] == 8
        assert row["cost_seconds"] == pytest.approx(hot.cost_seconds)

    def test_top_cost_ranks_and_drops_untouched_rules(self):
        rs, _, _ = self._costed_ruleset()
        top = rs.top_cost()
        assert top[0]["rule_id"] == "HOT"
        assert top[0]["cost_per_match"] > 0.0
        assert all(entry["rule_id"] != "COLD" for entry in top)

    def test_top_cost_k_limits_rows(self):
        rs, _, _ = self._costed_ruleset()
        assert len(rs.top_cost(k=1)) == 1

    def test_reset_zeroes_cost_state(self):
        rs, hot, _ = self._costed_ruleset()
        rs.reset()
        assert hot.cost_samples == 0
        assert hot.cost_seconds == 0.0
        assert rs._cost_tick == 0

    def test_checkpoint_state_round_trips_cost(self):
        _, hot, _ = self._costed_ruleset()
        state = hot.checkpoint_state()
        assert state["cost_samples"] == 8
        fresh = SingleEventRule("HOT", "hot", "Boom", cooldown=1e9)
        for key, value in state.items():
            setattr(fresh, key, value)
        assert fresh.cost_seconds == pytest.approx(hot.cost_seconds)
