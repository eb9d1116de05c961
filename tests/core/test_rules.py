"""Unit tests for the rule matching engine."""

from __future__ import annotations

import pytest

from repro.core.alerts import AlertLog, Severity
from repro.core.events import Event
from repro.core.rules import (
    ConjunctionRule,
    RuleSet,
    SequenceRule,
    SingleEventRule,
    ThresholdRule,
)


def ev(name: str, t: float, session: str = "s1", **attrs) -> Event:
    return Event(name=name, time=t, session=session, attrs=attrs)


def run(ruleset: RuleSet, events: list[Event]):
    log = AlertLog()
    for event in events:
        ruleset.match(event, log)
    return log


class TestSingleEventRule:
    def test_fires_on_match(self):
        rs = RuleSet([SingleEventRule("R1", "r", "Boom")])
        log = run(rs, [ev("Boom", 1.0)])
        assert len(log) == 1
        assert log.alerts[0].rule_id == "R1"

    def test_ignores_other_events(self):
        rs = RuleSet([SingleEventRule("R1", "r", "Boom")])
        assert len(run(rs, [ev("Quiet", 1.0)])) == 0

    def test_predicate_filters(self):
        rule = SingleEventRule("R1", "r", "Boom", predicate=lambda e: e.attrs.get("size", 0) > 5)
        rs = RuleSet([rule])
        log = run(rs, [ev("Boom", 1.0, size=3), ev("Boom", 2.0, size=9)])
        assert len(log) == 1
        assert log.alerts[0].time == 2.0

    def test_message_template_formats_attrs(self):
        rule = SingleEventRule("R1", "r", "Boom", message="got {color} at {session}")
        log = run(RuleSet([rule]), [ev("Boom", 1.0, color="red")])
        assert log.alerts[0].message == "got red at s1"

    def test_cooldown_suppresses_duplicates(self):
        rule = SingleEventRule("R1", "r", "Boom", cooldown=1.0)
        log = run(
            RuleSet([rule]),
            [ev("Boom", 1.0), ev("Boom", 1.5), ev("Boom", 2.5)],
        )
        assert [a.time for a in log.alerts] == [1.0, 2.5]

    def test_cooldown_is_per_session(self):
        rule = SingleEventRule("R1", "r", "Boom", cooldown=10.0)
        log = run(
            RuleSet([rule]),
            [ev("Boom", 1.0, session="s1"), ev("Boom", 1.1, session="s2")],
        )
        assert len(log) == 2


class TestThresholdRule:
    def test_fires_at_threshold(self):
        rule = ThresholdRule("T1", "t", "Tick", threshold=3, window=10.0)
        log = run(RuleSet([rule]), [ev("Tick", t) for t in [1.0, 2.0, 3.0]])
        assert len(log) == 1
        assert len(log.alerts[0].events) == 3

    def test_below_threshold_silent(self):
        rule = ThresholdRule("T1", "t", "Tick", threshold=3, window=10.0)
        assert len(run(RuleSet([rule]), [ev("Tick", 1.0), ev("Tick", 2.0)])) == 0

    def test_window_slides(self):
        rule = ThresholdRule("T1", "t", "Tick", threshold=3, window=1.0)
        events = [ev("Tick", t) for t in [0.0, 5.0, 10.0]]  # never 3 within 1s
        assert len(run(RuleSet([rule]), events)) == 0

    def test_group_by_isolates(self):
        rule = ThresholdRule(
            "T1", "t", "Tick", threshold=2, window=10.0,
            group_by=lambda e: e.attrs.get("user", ""),
        )
        events = [
            ev("Tick", 1.0, user="a"),
            ev("Tick", 2.0, user="b"),
            ev("Tick", 3.0, user="a"),
        ]
        log = run(RuleSet([rule]), events)
        assert len(log) == 1  # only user a reached 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdRule("T", "t", "X", threshold=0, window=1.0)

    def test_message_count_placeholder(self):
        rule = ThresholdRule("T1", "t", "Tick", threshold=2, window=10.0, message="{count} ticks")
        log = run(RuleSet([rule]), [ev("Tick", 1.0), ev("Tick", 2.0)])
        assert log.alerts[0].message == "2 ticks"


class TestSequenceRule:
    def test_in_order_fires(self):
        rule = SequenceRule("S1", "s", ("A", "B", "C"), window=10.0)
        log = run(RuleSet([rule]), [ev("A", 1.0), ev("B", 2.0), ev("C", 3.0)])
        assert len(log) == 1
        assert [e.name for e in log.alerts[0].events] == ["A", "B", "C"]

    def test_out_of_order_silent(self):
        rule = SequenceRule("S1", "s", ("A", "B"), window=10.0)
        assert len(run(RuleSet([rule]), [ev("B", 1.0), ev("A", 2.0)])) == 0

    def test_window_expiry_resets(self):
        rule = SequenceRule("S1", "s", ("A", "B"), window=1.0)
        assert len(run(RuleSet([rule]), [ev("A", 1.0), ev("B", 5.0)])) == 0

    def test_interleaved_sessions_independent(self):
        rule = SequenceRule("S1", "s", ("A", "B"), window=10.0)
        events = [
            ev("A", 1.0, session="x"),
            ev("A", 1.5, session="y"),
            ev("B", 2.0, session="y"),
        ]
        log = run(RuleSet([rule]), events)
        assert len(log) == 1
        assert log.alerts[0].session == "y"

    def test_restart_on_new_first_event(self):
        rule = SequenceRule("S1", "s", ("A", "B"), window=10.0)
        # A, then A again (restart), then B: still fires.
        log = run(RuleSet([rule]), [ev("A", 1.0), ev("A", 2.0), ev("B", 3.0)])
        assert len(log) == 1

    def test_too_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            SequenceRule("S", "s", ("A",), window=1.0)


class TestConjunctionRule:
    def test_any_order_fires(self):
        rule = ConjunctionRule("C1", "c", ("X", "Y", "Z"), window=10.0)
        log = run(RuleSet([rule]), [ev("Z", 1.0), ev("X", 2.0), ev("Y", 3.0)])
        assert len(log) == 1
        assert {e.name for e in log.alerts[0].events} == {"X", "Y", "Z"}

    def test_incomplete_silent(self):
        rule = ConjunctionRule("C1", "c", ("X", "Y"), window=10.0)
        assert len(run(RuleSet([rule]), [ev("X", 1.0), ev("X", 2.0)])) == 0

    def test_window_ages_out_members(self):
        rule = ConjunctionRule("C1", "c", ("X", "Y"), window=1.0)
        assert len(run(RuleSet([rule]), [ev("X", 1.0), ev("Y", 5.0)])) == 0

    def test_custom_correlation_key(self):
        rule = ConjunctionRule(
            "C1", "c", ("X", "Y"), window=10.0, correlate=lambda e: "global"
        )
        # Different sessions, same correlation group.
        log = run(RuleSet([rule]), [ev("X", 1.0, session="a"), ev("Y", 2.0, session="b")])
        assert len(log) == 1

    def test_resets_after_firing(self):
        rule = ConjunctionRule("C1", "c", ("X", "Y"), window=10.0, cooldown=0.0)
        events = [ev("X", 1.0), ev("Y", 2.0), ev("X", 3.0), ev("Y", 4.0)]
        assert len(run(RuleSet([rule]), events)) == 2


class TestRuleSet:
    def test_duplicate_rule_id_rejected(self):
        rs = RuleSet([SingleEventRule("R1", "a", "X")])
        with pytest.raises(ValueError):
            rs.add(SingleEventRule("R1", "b", "Y"))

    def test_remove(self):
        rs = RuleSet([SingleEventRule("R1", "a", "X")])
        rs.remove("R1")
        assert len(rs) == 0

    def test_reset_clears_rule_state(self):
        rule = ThresholdRule("T1", "t", "Tick", threshold=2, window=100.0)
        rs = RuleSet([rule])
        run(rs, [ev("Tick", 1.0)])
        rs.reset()
        log = run(rs, [ev("Tick", 2.0)])
        assert len(log) == 0  # counter restarted

    def test_multiple_rules_all_consulted(self):
        rs = RuleSet([
            SingleEventRule("R1", "a", "X"),
            SingleEventRule("R2", "b", "X"),
        ])
        log = run(rs, [ev("X", 1.0)])
        assert {a.rule_id for a in log.alerts} == {"R1", "R2"}
