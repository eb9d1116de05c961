"""Engine ↔ observability integration: counters, spans, gauges, wiring."""

from __future__ import annotations

import pytest

from repro.core.engine import ScidiveEngine
from repro.core.events import EVENT_ORPHAN_RTP_AFTER_BYE, Event
from repro.core.rules import RuleSet, SingleEventRule
from repro.core.trail import TRAIL_TAIL
from repro.experiments.harness import run_bye_attack
from repro.experiments.workloads import WorkloadSpec, capture_workload
from repro.obs import Observability, parse_prometheus
from repro.obs import current, disable, enable
from repro.voip.testbed import CLIENT_A_IP

# Frame-path span stages every processed frame must pass through.
FRAME_STAGES = ("distill", "trail", "generate", "match")


@pytest.fixture(scope="module")
def workload():
    return capture_workload(WorkloadSpec(calls=2, ims=2, churn_rounds=1, seed=11))


@pytest.fixture()
def instrumented(workload):
    ctx = Observability.create(trace=True)
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, observability=ctx)
    engine.process_trace(workload)
    return engine, ctx


class TestCountersMatchStats:
    def test_frames_footprints_events(self, instrumented):
        engine, ctx = instrumented
        families = parse_prometheus(ctx.registry.render_prometheus())
        frames = families["scidive_frames_total"]
        assert frames['scidive_frames_total{engine="scidive"}'] == engine.stats.frames
        footprints = sum(families["scidive_footprints_total"].values())
        assert footprints == engine.stats.footprints
        events = sum(families["scidive_events_total"].values())
        assert events == engine.stats.events

    def test_footprints_carry_protocol_labels(self, instrumented):
        _, ctx = instrumented
        text = ctx.registry.render_prometheus()
        assert 'protocol="sip"' in text
        assert 'protocol="rtp"' in text

    def test_stage_histograms_counted_per_frame(self, instrumented):
        engine, ctx = instrumented
        families = parse_prometheus(ctx.registry.render_prometheus())
        stage = families["scidive_stage_seconds"]
        for name in FRAME_STAGES:
            key = f'scidive_stage_seconds_count{{engine="scidive",stage="{name}"}}'
            # distill runs per frame; the rest per footprint.
            expected = (engine.stats.frames if name == "distill"
                        else engine.stats.footprints)
            assert stage[key] == expected

    def test_gauges_snapshot_state_sizes(self, instrumented):
        engine, ctx = instrumented
        families = parse_prometheus(ctx.registry.render_prometheus())
        assert (families["scidive_trails"]['scidive_trails{engine="scidive"}']
                == engine.trails.trail_count)
        assert (families["scidive_sessions"]['scidive_sessions{engine="scidive"}']
                == engine.trails.session_count)
        retained = families["scidive_trail_footprints_retained"][
            'scidive_trail_footprints_retained{engine="scidive"}'
        ]
        assert retained == engine.trails.size_stats()["footprints_retained"]
        assert 0 < retained <= TRAIL_TAIL * engine.trails.trail_count
        tables = engine.distiller.table_stats()
        assert tables["endpoint_table"] > 0 and tables["address_table_drops"] == 0
        for counter, value in tables.items():
            key = f'scidive_distiller_frames{{engine="scidive",counter="{counter}"}}'
            assert families["scidive_distiller_frames"][key] == value

    def test_generator_time_flushed_for_every_generator(self, instrumented):
        engine, ctx = instrumented
        engine.snapshot_gauges()
        families = parse_prometheus(ctx.registry.render_prometheus())
        calls = families["scidive_generator_calls_total"]
        assert len(calls) == len(engine.generators)
        # Indexed dispatch: a generator runs once per footprint of the
        # protocols it declared (None = every footprint).
        footprints_by_protocol = {
            key.split('protocol="')[1].split('"')[0]: value
            for key, value in families["scidive_footprints_total"].items()
        }
        for generator in engine.generators:
            key = (f'scidive_generator_calls_total'
                   f'{{engine="scidive",generator="{generator.name}"}}')
            expected = (
                engine.stats.footprints
                if generator.protocols is None
                else sum(footprints_by_protocol.get(p.value, 0)
                         for p in generator.protocols)
            )
            assert calls[key] == expected, generator.name


class TestSpanCoverage:
    def test_every_frame_covered_distill_to_match(self, instrumented):
        engine, ctx = instrumented
        frames_by_stage: dict[str, set[int]] = {}
        for span in ctx.tracer.spans:
            frames_by_stage.setdefault(span.name, set()).add(span.frame)
        assert frames_by_stage["distill"] == set(range(1, engine.stats.frames + 1))
        # Every footprint-bearing frame reaches trail/generate/match.
        for stage in ("trail", "generate", "match"):
            assert frames_by_stage[stage] == frames_by_stage["trail"]
            assert len(frames_by_stage[stage]) == engine.stats.footprints

    def test_spans_are_sim_clock_aware(self, instrumented):
        _, ctx = instrumented
        times = [s.sim_time for s in ctx.tracer.spans if s.name == "distill"]
        assert times == sorted(times)  # replay order == sim order
        assert times[-1] > 0.0

    def test_stage_summary_covers_frame_stages(self, instrumented):
        engine, _ = instrumented
        stages = {s.stage for s in engine.stage_summary()}
        assert set(FRAME_STAGES) <= stages


class TestWiring:
    def test_default_is_dark(self):
        engine = ScidiveEngine()
        assert engine.observability is None
        assert not engine.metrics_enabled
        assert engine.metrics_registry() is None
        assert engine.stage_summary() == []

    def test_metrics_enabled_true_builds_private_context(self):
        engine = ScidiveEngine(metrics_enabled=True)
        assert engine.metrics_enabled
        assert engine.metrics_registry() is not None

    def test_global_enable_reaches_new_engines(self):
        ctx = enable(trace=False)
        try:
            engine = ScidiveEngine()
            assert engine.observability is ctx
            # metrics_enabled=False forces dark even under a global context.
            dark = ScidiveEngine(metrics_enabled=False)
            assert dark.observability is None
        finally:
            disable()
        assert current() is None
        assert ScidiveEngine().observability is None

    def test_harness_engines_pick_up_global_context(self):
        ctx = enable(trace=True)
        try:
            result = run_bye_attack(seed=7)
        finally:
            disable()
        assert result.engine.observability is ctx
        families = parse_prometheus(ctx.registry.render_prometheus())
        alerts = families["scidive_alerts_total"]
        assert any('rule_id="BYE-001"' in key for key in alerts)
        assert sum(alerts.values()) == len(result.engine.alerts)

    def test_two_engines_share_registry_without_colliding(self, workload):
        ctx = Observability.create(trace=False)
        a = ScidiveEngine(name="ids-a", observability=ctx)
        b = ScidiveEngine(name="ids-b", observability=ctx)
        a.process_trace(workload)
        b.process_trace(workload)
        families = parse_prometheus(ctx.registry.render_prometheus())
        frames = families["scidive_frames_total"]
        assert frames['scidive_frames_total{engine="ids-a"}'] == a.stats.frames
        assert frames['scidive_frames_total{engine="ids-b"}'] == b.stats.frames


class TestInjectEvent:
    def _orphan_event(self) -> Event:
        return Event(
            name=EVENT_ORPHAN_RTP_AFTER_BYE, time=1.0, session="x",
            attrs={"party": "bob@example.com",
                   "endpoint": "10.0.0.20:40000", "delay": 0.01},
        )

    def test_subscribers_hear_injected_events_and_alerts(self):
        engine = ScidiveEngine(name="ids-a")
        heard_events, heard_alerts = [], []
        engine.event_subscribers.append(
            lambda name, event: heard_events.append((name, event.name))
        )
        engine.alert_subscribers.append(heard_alerts.append)
        alerts = engine.inject_event(self._orphan_event())
        assert heard_events == [("ids-a", EVENT_ORPHAN_RTP_AFTER_BYE)]
        assert heard_alerts == alerts and alerts

    def test_injected_events_counted(self):
        ctx = Observability.create(trace=False)
        engine = ScidiveEngine(observability=ctx)
        engine.inject_event(self._orphan_event())
        families = parse_prometheus(ctx.registry.render_prometheus())
        injected = families["scidive_injected_events_total"]
        assert injected['scidive_injected_events_total{engine="scidive"}'] == 1.0
        alerts = families["scidive_alerts_total"]
        assert sum(alerts.values()) == 1.0  # AlertLog subscriber counted it


class TestStatsReset:
    def test_reset_detection_state_zeroes_stats(self, workload):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.process_trace(workload)
        assert engine.stats.frames > 0
        engine.reset_detection_state()
        assert engine.stats.frames == 0
        assert engine.stats.footprints == 0
        assert engine.stats.events == 0
        assert engine.stats.alerts == 0
        assert engine.stats.cpu_seconds == 0.0
        # Protocol state survives the reset.
        assert engine.trails.session_count >= 1

    def test_frames_per_cpu_second_zero_when_unmeasured(self):
        engine = ScidiveEngine()
        assert engine.stats.frames_per_cpu_second == 0.0

    def test_reset_clears_rule_cooldowns_and_counters(self):
        # Regression: reset_detection_state() used to skip ruleset.reset(),
        # so a phase-1 alert's cooldown timestamp silently suppressed the
        # same alert in phase 2 of an experiment.
        rule = SingleEventRule("R-1", "orphan", EVENT_ORPHAN_RTP_AFTER_BYE,
                               cooldown=60.0)
        engine = ScidiveEngine(
            ruleset=RuleSet([rule, SingleEventRule("R-2", "other", "NeverFires")])
        )
        event = Event(name=EVENT_ORPHAN_RTP_AFTER_BYE, time=1.0, session="x")
        assert len(engine.inject_event(event)) == 1
        assert engine.inject_event(event) == []  # cooldown suppresses
        engine.reset_detection_state()
        assert rule.matches_attempted == 0 and rule.alerts_raised == 0
        assert engine.ruleset.dispatch_skipped == 0
        assert len(engine.inject_event(event)) == 1  # cooldown forgotten


class TestDetectionUnchanged:
    def test_instrumentation_does_not_change_verdicts(self, workload):
        dark = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        lit = ScidiveEngine(vantage_ip=CLIENT_A_IP,
                            observability=Observability.create(trace=True))
        dark.process_trace(workload)
        lit.process_trace(workload)
        assert dark.stats.footprints == lit.stats.footprints
        assert [e.name for e in dark.event_log] == [e.name for e in lit.event_log]
        assert [a.rule_id for a in dark.alerts] == [a.rule_id for a in lit.alerts]
