"""The overload-control plane: config validation, heavy-hitter
accounting, the controller's hysteresis and the single-engine
brownout harness."""

from __future__ import annotations

import pytest

from repro.core.alerts import Severity
from repro.resilience.overload import (
    STATE_BROWNOUT,
    STATE_NORMAL,
    STATE_RECOVERING,
    STATE_SHED,
    STATE_VALUES,
    TRANSITION_RULE_PREFIX,
    CountMinSketch,
    EngineOverload,
    OverloadConfig,
    OverloadController,
    SourceAccountant,
    format_source,
)


class TestOverloadConfig:
    def test_defaults_validate(self):
        assert OverloadConfig().validate() is not None

    @pytest.mark.parametrize("overrides, match", [
        ({"tick_frames": 0}, "tick_frames"),
        ({"queue_low": 0.7, "queue_high": 0.6}, "thresholds"),
        ({"queue_high": 0.95, "shed_high": 0.9}, "thresholds"),
        ({"burn_high": -1.0}, "burn_high"),
        ({"dwell_ticks": 0}, "dwell_ticks"),
        ({"recovery_ticks": 0}, "dwell_ticks and recovery_ticks"),
        ({"shed_rate_low": -0.1}, "shed_rate_low"),
        ({"hot_share": 0.0}, "hot_share"),
        ({"hot_min": 0}, "hot_min"),
        ({"sketch_width": 8}, "sketch"),
        ({"sketch_window": 4, "hot_min": 8}, "sketch_window"),
    ])
    def test_bad_values_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            OverloadConfig(**overrides).validate()


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4)
        truth: dict[bytes, int] = {}
        for i in range(500):
            key = bytes([i % 17, i % 5, 0, 1])
            truth[key] = truth.get(key, 0) + 1
            sketch.add(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_halve_decays_window(self):
        sketch = CountMinSketch(width=64, depth=2)
        for _ in range(100):
            sketch.add(b"\x0a\x42\x42\x63")
        assert sketch.total == 100
        sketch.halve()
        assert sketch.total == 50
        assert sketch.estimate(b"\x0a\x42\x42\x63") == 50

    def test_memory_is_fixed(self):
        sketch = CountMinSketch(width=32, depth=3)
        for i in range(10_000):
            sketch.add(i.to_bytes(4, "big"))
        assert sum(len(row) for row in sketch.rows) == 96


class TestSourceAccountant:
    def _accountant(self, **overrides) -> SourceAccountant:
        defaults = dict(hot_min=32, sketch_window=1024)
        defaults.update(overrides)
        return SourceAccountant(OverloadConfig(**defaults))

    def test_flooding_source_adjudicated_heavy(self):
        acct = self._accountant()
        flood = b"\x0a\x42\x42\x63"
        for _ in range(500):
            acct.record(flood)
        assert acct.is_heavy(flood)
        assert acct.top_sources()[0][0] == "10.66.66.99"

    def test_proportionate_source_stays_innocent(self):
        acct = self._accountant()
        flood = b"\x0a\x42\x42\x63"
        innocent = b"\x0a\x64\x00\x05"
        for _ in range(500):
            acct.record(flood)
        for _ in range(8):
            acct.record(innocent)
        assert acct.is_heavy(flood)
        assert not acct.is_heavy(innocent)

    def test_decay_releases_stale_sources(self):
        acct = self._accountant(hot_min=32, sketch_window=256)
        flood = b"\x0a\x42\x42\x63"
        for _ in range(200):
            acct.record(flood)
        assert acct.is_heavy(flood)
        # The flood stops; fresh traffic from many sources ages it out.
        for i in range(2000):
            acct.record((0x0A640000 + i % 64).to_bytes(4, "big"))
        assert not acct.is_heavy(flood)

    def test_as_dict_shape(self):
        acct = self._accountant()
        acct.record(b"\x01\x02\x03\x04")
        view = acct.as_dict()
        assert set(view) == {"frames", "window_total", "hot_floor", "hot_sources"}
        assert view["frames"] == 1


class TestFormatSource:
    def test_ipv4(self):
        assert format_source(b"\x0a\x42\x42\x63") == "10.66.66.99"

    def test_non_ip_falls_back_to_hex(self):
        assert format_source(b"\x01\x02") == "0102"
        assert format_source(b"") == "?"


def _controller(**overrides):
    defaults = dict(dwell_ticks=2, recovery_ticks=2)
    defaults.update(overrides)
    alerts: list = []
    controller = OverloadController(
        config=OverloadConfig(**defaults), name="test", emit_alert=alerts.append
    )
    return controller, alerts


class TestOverloadController:
    def test_full_escalation_and_recovery_cycle(self):
        controller, alerts = _controller()
        controller.observe(1.0, queue_fill=0.7)
        assert controller.state == STATE_BROWNOUT
        controller.observe(2.0, queue_fill=0.95)
        assert controller.state == STATE_SHED
        # Two calm ticks (dwell) leave shed, two more leave recovering.
        controller.observe(3.0, queue_fill=0.1)
        controller.observe(4.0, queue_fill=0.1)
        assert controller.state == STATE_RECOVERING
        controller.observe(5.0, queue_fill=0.1)
        controller.observe(6.0, queue_fill=0.1)
        assert controller.state == STATE_NORMAL
        assert controller.transitions_total == {
            "normal->brownout": 1,
            "brownout->shed": 1,
            "shed->recovering": 1,
            "recovering->normal": 1,
        }
        assert [a.rule_id for a in alerts] == [
            f"{TRANSITION_RULE_PREFIX}BROWNOUT",
            f"{TRANSITION_RULE_PREFIX}SHED",
            f"{TRANSITION_RULE_PREFIX}RECOVERING",
            f"{TRANSITION_RULE_PREFIX}NORMAL",
        ]
        assert alerts[1].severity == Severity.CRITICAL

    def test_escalation_is_immediate_no_dwell(self):
        controller, _ = _controller(dwell_ticks=5)
        controller.observe(1.0, queue_fill=0.95)
        assert controller.state == STATE_SHED

    def test_burn_rate_alone_enters_brownout(self):
        controller, _ = _controller()
        controller.observe(1.0, queue_fill=0.0, burn_rate=2.0)
        assert controller.state == STATE_BROWNOUT
        assert "burn rate" in controller.last_trigger

    def test_shed_rate_holds_state_while_penalty_box_drains(self):
        # The relief valve works: fill reads calm mid-flood, but ongoing
        # drops are pressure — the controller must not flap to normal.
        controller, _ = _controller()
        controller.observe(1.0, queue_fill=0.95)
        assert controller.state == STATE_SHED
        for tick in range(6):
            controller.observe(2.0 + tick, queue_fill=0.05, shed_rate=0.5)
        assert controller.state == STATE_SHED

    def test_pressure_resets_the_calm_streak(self):
        controller, _ = _controller(dwell_ticks=2)
        controller.observe(1.0, queue_fill=0.7)
        controller.observe(2.0, queue_fill=0.1)       # calm 1
        controller.observe(3.0, queue_fill=0.7)       # pressure: streak resets
        controller.observe(4.0, queue_fill=0.1)       # calm 1 again
        assert controller.state == STATE_BROWNOUT
        controller.observe(5.0, queue_fill=0.1)       # calm 2: dwell met
        assert controller.state == STATE_RECOVERING

    def test_shed_exits_to_brownout_when_still_pressured(self):
        controller, _ = _controller(dwell_ticks=2)
        controller.observe(1.0, queue_fill=0.95)
        # Below shed_high but above queue_high: leaves shed, not all the
        # way to recovering.
        controller.observe(2.0, queue_fill=0.7)
        controller.observe(3.0, queue_fill=0.7)
        assert controller.state == STATE_BROWNOUT

    def test_relapse_from_recovering(self):
        controller, _ = _controller()
        controller.observe(1.0, queue_fill=0.7)
        controller.observe(2.0, queue_fill=0.1)
        controller.observe(3.0, queue_fill=0.1)
        assert controller.state == STATE_RECOVERING
        controller.observe(4.0, queue_fill=0.8)
        assert controller.state == STATE_BROWNOUT

    def test_transition_alert_quotes_heavy_sources(self):
        controller, alerts = _controller()
        controller.observe(
            1.0, queue_fill=0.95, top_sources=[("10.66.66.99", 4096)]
        )
        assert "10.66.66.99(4096)" in alerts[0].message

    def test_as_dict_shape(self):
        controller, _ = _controller()
        controller.observe(1.0, queue_fill=0.7)
        view = controller.as_dict()
        assert view["state"] == STATE_BROWNOUT
        assert view["state_value"] == STATE_VALUES[STATE_BROWNOUT]
        assert view["ticks"] == 1
        assert view["transitions_total"] == {"normal->brownout": 1}
        assert view["transitions"][-1]["to"] == STATE_BROWNOUT

    def test_degraded_and_shedding_flags(self):
        controller, _ = _controller()
        assert not controller.degraded and not controller.shedding
        controller.observe(1.0, queue_fill=0.7)
        assert controller.degraded and not controller.shedding
        controller.observe(2.0, queue_fill=0.95)
        assert controller.degraded and controller.shedding


class _FakeBudget:
    def __init__(self):
        self.burn_rate = 0.0


class _FakeRuleSet:
    def __init__(self):
        self.cost_sample_rate = 8


class _FakeInstr:
    def __init__(self):
        self.summary_sample = 4


class _FakeEngine:
    name = "fake"

    def __init__(self):
        self.latency_budget = _FakeBudget()
        self.ruleset = _FakeRuleSet()
        self._instr = _FakeInstr()
        self.self_alerts: list = []

    def _emit_self_alert(self, alert):
        self.self_alerts.append(alert)


class TestEngineOverload:
    def test_ticks_every_tick_frames(self):
        engine = _FakeEngine()
        overload = EngineOverload(engine, OverloadConfig(tick_frames=4))
        for i in range(7):
            overload.record_frame(float(i))
        assert overload.controller.ticks == 1
        overload.record_frame(8.0)
        assert overload.controller.ticks == 2

    def test_degrades_and_heals_sampling(self):
        engine = _FakeEngine()
        overload = EngineOverload(
            engine,
            OverloadConfig(tick_frames=1, dwell_ticks=1, recovery_ticks=1),
        )
        engine.latency_budget.burn_rate = 3.0
        overload.record_frame(1.0)
        assert overload.controller.state == STATE_BROWNOUT
        assert engine.ruleset.cost_sample_rate == 0
        assert engine._instr.summary_sample == 64
        assert overload.as_dict()["degraded_sampling"] is True
        assert engine.self_alerts[0].rule_id.startswith(TRANSITION_RULE_PREFIX)
        engine.latency_budget.burn_rate = 0.0
        overload.record_frame(2.0)   # brownout -> recovering (dwell 1)
        overload.record_frame(3.0)   # recovering -> normal
        assert overload.controller.state == STATE_NORMAL
        assert engine.ruleset.cost_sample_rate == 8
        assert engine._instr.summary_sample == 4
        assert overload.as_dict()["degraded_sampling"] is False
