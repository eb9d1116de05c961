"""Instrumentation bindings between the engine and the metrics registry.

:class:`EngineInstrumentation` pre-resolves every metric handle the
engine's hot path touches, so instrumented processing costs one ``is
not None`` branch plus a handful of dict lookups per frame — and
nothing at all when observability is off (the engine holds ``None``).

Metric families (all prefixed ``scidive_``, all labelled by ``engine``
so cooperating detectors share a registry without colliding):

* ``scidive_frames_total`` — raw frames ingested.
* ``scidive_footprints_total{protocol}`` — footprints by protocol.
* ``scidive_events_total{event}`` — generator events by name.
* ``scidive_alerts_total{rule_id,severity}`` — alerts raised.
* ``scidive_injected_events_total`` — cooperative-detection injections.
* ``scidive_stage_seconds{stage}`` — per-stage latency histogram.
* ``scidive_frame_latency_seconds`` — per-frame latency summary
  (streaming p50/p90/p99 via the mergeable quantile sketch).
* ``scidive_stage_latency_seconds{stage}`` /
  ``scidive_module_latency_seconds{protocol}`` — per-stage and
  per-protocol-module latency summaries.
* ``scidive_rule_cost_seconds_total{rule_id}`` /
  ``scidive_rule_cost_samples_total{rule_id}`` — sampled per-rule match
  cost (see :attr:`repro.core.rules.RuleSet.cost_sample_rate`).
* ``scidive_frame_budget_burn_rate`` — the latency-budget detector's
  current burn rate (budgets spent per frame over its window).
* ``scidive_generator_seconds_total`` / ``scidive_generator_calls_total``
  — cumulative per-generator wall time and fan-out counts.
* ``scidive_housekeeping_runs_total`` / ``…_reclaimed_trails_total``.
* ``scidive_trails`` / ``_sessions`` / ``_sip_dialogs`` /
  ``_registration_sessions`` — state-size gauges.
* ``scidive_trail_footprints_retained`` — footprints the live trails'
  bounded tails hold (≤ ``TRAIL_TAIL`` × ``scidive_trails``).
* ``scidive_distiller_*`` — distiller counter snapshot gauges, plus its
  address-table sizes and full-table drops.
"""

from __future__ import annotations

from typing import Any

from repro.core.hooks import FootprintHook
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.tracing import Tracer

# Stage histograms cover sub-microsecond decode steps up to 100 ms.
STAGE_BUCKETS = tuple(b for b in DEFAULT_BUCKETS if b <= 0.1)


class EngineInstrumentation:
    """Per-engine metric handles over a shared registry."""

    __slots__ = (
        "registry", "tracer", "engine", "summaries", "summary_sample",
        "_frames", "_footprints", "_events", "_alerts", "_injected",
        "_stage", "_generator", "_generator_calls",
        "_housekeeping_runs", "_reclaimed",
        "_trails", "_trail_footprints", "_sessions", "_dialogs",
        "_registrations", "_distiller",
        "_footprint_children", "_event_children", "_stage_children",
        "_gen_seconds_acc", "_gen_calls_acc",
        "_frame_summary", "_stage_summary", "_module_summary",
        "_stage_summary_children", "_module_children",
        "_rule_cost", "_rule_cost_samples",
        "_rule_cost_flushed", "_rule_samples_flushed", "_burn_rate",
        "_shadow_matches", "_shadow_flushed", "_rulepack_reloads",
        "_spans_dropped", "_spans_dropped_flushed",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        engine: str = "scidive",
        tracer: Tracer | None = None,
        summaries: bool = True,
        summary_sample: int = 4,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.engine = engine
        self.summaries = summaries
        self.summary_sample = max(1, summary_sample)
        label = {"engine": engine}
        self._frames = registry.counter(
            "scidive_frames_total", "Raw frames ingested", ("engine",)
        ).labels(**label)
        self._footprints = registry.counter(
            "scidive_footprints_total", "Footprints distilled, by protocol",
            ("engine", "protocol"),
        )
        self._events = registry.counter(
            "scidive_events_total", "Generator events, by event name",
            ("engine", "event"),
        )
        self._alerts = registry.counter(
            "scidive_alerts_total", "Alerts raised, by rule and severity",
            ("engine", "rule_id", "severity"),
        )
        self._injected = registry.counter(
            "scidive_injected_events_total",
            "Events injected by cooperating detectors", ("engine",),
        ).labels(**label)
        self._stage = registry.histogram(
            "scidive_stage_seconds", "Wall-clock seconds per pipeline stage",
            ("engine", "stage"), buckets=STAGE_BUCKETS,
        )
        self._generator = registry.counter(
            "scidive_generator_seconds_total",
            "Cumulative wall-clock seconds per event generator",
            ("engine", "generator"),
        )
        self._generator_calls = registry.counter(
            "scidive_generator_calls_total",
            "Footprints fanned out per event generator",
            ("engine", "generator"),
        )
        self._housekeeping_runs = registry.counter(
            "scidive_housekeeping_runs_total", "Housekeeping sweeps", ("engine",)
        ).labels(**label)
        self._reclaimed = registry.counter(
            "scidive_housekeeping_reclaimed_trails_total",
            "Trails reclaimed by housekeeping", ("engine",),
        ).labels(**label)
        self._trails = registry.gauge(
            "scidive_trails", "Live trails", ("engine",)
        ).labels(**label)
        self._trail_footprints = registry.gauge(
            "scidive_trail_footprints_retained",
            "Footprints held by the live trails' bounded tails", ("engine",),
        ).labels(**label)
        self._sessions = registry.gauge(
            "scidive_sessions", "Live cross-protocol sessions", ("engine",)
        ).labels(**label)
        self._dialogs = registry.gauge(
            "scidive_sip_dialogs", "Tracked SIP dialogs", ("engine",)
        ).labels(**label)
        self._registrations = registry.gauge(
            "scidive_registration_sessions", "Tracked REGISTER sessions", ("engine",)
        ).labels(**label)
        self._distiller = registry.gauge(
            "scidive_distiller_frames", "Distiller counter snapshot",
            ("engine", "counter"),
        )
        # Latency summaries (streaming p50/p90/p99).  None when summaries
        # are off — hot-path call sites guard on the child, so disabling
        # summaries removes their entire cost, not just their exposition.
        if summaries:
            self._frame_summary = registry.summary(
                "scidive_frame_latency_seconds",
                "Per-frame pipeline latency quantiles", ("engine",),
            ).labels(**label)
            self._stage_summary = registry.summary(
                "scidive_stage_latency_seconds",
                "Per-stage latency quantiles", ("engine", "stage"),
            )
            self._module_summary = registry.summary(
                "scidive_module_latency_seconds",
                "Per-protocol-module latency quantiles (generate + match)",
                ("engine", "protocol"),
            )
        else:
            self._frame_summary = None
            self._stage_summary = None
            self._module_summary = None
        self._rule_cost = registry.counter(
            "scidive_rule_cost_seconds_total",
            "Estimated wall-clock seconds per rule (sampled, scaled)",
            ("engine", "rule_id"),
        )
        self._rule_cost_samples = registry.counter(
            "scidive_rule_cost_samples_total",
            "Timed match() invocations per rule", ("engine", "rule_id"),
        )
        self._burn_rate = registry.gauge(
            "scidive_frame_budget_burn_rate",
            "Latency-budget burn rate (budgets spent per frame)", ("engine",),
        ).labels(**label)
        self._shadow_matches = registry.counter(
            "scidive_shadow_matches_total",
            "Alerts a shadow-mode rule would have raised", ("engine", "rule_id"),
        )
        self._rulepack_reloads = registry.counter(
            "scidive_rulepack_reloads_total",
            "Successful rule-pack hot reloads", ("engine",),
        ).labels(**label)
        # Span-cap overflow accounting (only meaningful when tracing).
        if tracer is not None:
            self._spans_dropped = registry.counter(
                "scidive_spans_dropped_total",
                "Spans discarded at the tracer's max_spans bound", ("engine",),
            ).labels(**label)
        else:
            self._spans_dropped = None
        self._spans_dropped_flushed = 0
        # Hot-path label children resolved once per distinct value, then
        # hit these dicts — keeps per-frame cost to dict lookups.
        self._footprint_children: dict[str, Any] = {}
        self._event_children: dict[str, Any] = {}
        self._stage_children: dict[str, Any] = {}
        self._stage_summary_children: dict[str, Any] = {}
        self._module_children: dict[str, Any] = {}
        # Rule costs live on the Rule objects (sampled there); update_gauges
        # flushes the *delta* since the last flush into the counters, so
        # the registry stays monotonic while rules keep plain floats.
        self._rule_cost_flushed: dict[str, float] = {}
        self._rule_samples_flushed: dict[str, int] = {}
        # Shadow matches follow the same delta-flush pattern: rules count
        # plain ints on the match path, the registry sees deltas here.
        self._shadow_flushed: dict[str, int] = {}
        # Per-generator time/call tallies accumulate in plain dicts (a
        # float add per generator per frame) and flush to the registry
        # in update_gauges — a histogram observe per generator per frame
        # was the single largest instrumentation cost.
        self._gen_seconds_acc: dict[str, float] = {}
        self._gen_calls_acc: dict[str, int] = {}

    def as_hook(self, sample_every: int = 8) -> "InstrumentationHook":
        """The engine-facing hook that feeds this instrumentation."""
        return InstrumentationHook(
            self, sample_every=sample_every, summary_every=self.summary_sample
        )

    # -- hot-path hooks (called per frame) ----------------------------------

    def frame(self) -> None:
        self._frames.inc()

    def footprint(self, protocol: str) -> None:
        child = self._footprint_children.get(protocol)
        if child is None:
            child = self._footprints.labels(engine=self.engine, protocol=protocol)
            self._footprint_children[protocol] = child
        child.inc()

    def event(self, name: str) -> None:
        child = self._event_children.get(name)
        if child is None:
            child = self._events.labels(engine=self.engine, event=name)
            self._event_children[name] = child
        child.inc()

    def alert(self, alert: Any) -> None:
        self._alerts.labels(
            engine=self.engine,
            rule_id=alert.rule_id,
            severity=alert.severity.name,
        ).inc()

    def injected_event(self) -> None:
        self._injected.inc()

    def stage(self, stage: str, seconds: float, frame: int = 0,
              sim_time: float = 0.0, **meta: Any) -> None:
        """Record one stage execution: histogram sample + optional span."""
        self.stage_child(stage).observe(seconds)
        tracer = self.tracer
        if tracer is not None and (tracer.context or not tracer.gate):
            tracer.record(stage, seconds, frame=frame,
                          sim_time=sim_time, **meta)

    def stage_child(self, stage: str):
        """The raw histogram child for one stage — the engine pre-resolves
        these so its hot path observes without any method indirection."""
        child = self._stage_children.get(stage)
        if child is None:
            child = self._stage.labels(engine=self.engine, stage=stage)
            self._stage_children[stage] = child
        return child

    def stage_summary_child(self, stage: str):
        """The quantile-sketch child for one stage (None when summaries
        are off — callers guard, paying nothing)."""
        if self._stage_summary is None:
            return None
        child = self._stage_summary_children.get(stage)
        if child is None:
            child = self._stage_summary.labels(engine=self.engine, stage=stage)
            self._stage_summary_children[stage] = child
        return child

    def frame_summary_child(self):
        return self._frame_summary

    def module_child(self, protocol: str):
        if self._module_summary is None:
            return None
        child = self._module_children.get(protocol)
        if child is None:
            child = self._module_summary.labels(
                engine=self.engine, protocol=protocol
            )
            self._module_children[protocol] = child
        return child

    def frame_counter_child(self):
        return self._frames

    def merge_generator_seconds(self, seconds: dict[str, float],
                                calls: dict[str, int]) -> None:
        """Absorb the engine's inline per-generator tallies."""
        for generator, total in seconds.items():
            self._gen_seconds_acc[generator] = (
                self._gen_seconds_acc.get(generator, 0.0) + total
            )
        for generator, count in calls.items():
            self._gen_calls_acc[generator] = (
                self._gen_calls_acc.get(generator, 0) + count
            )

    def generator_time(self, generator: str, seconds: float) -> None:
        self._gen_seconds_acc[generator] = (
            self._gen_seconds_acc.get(generator, 0.0) + seconds
        )
        self._gen_calls_acc[generator] = self._gen_calls_acc.get(generator, 0) + 1

    # -- housekeeping / gauges (called off the per-frame path) ----------------

    def housekeeping(self, reclaimed: int) -> None:
        self._housekeeping_runs.inc()
        if reclaimed:
            self._reclaimed.inc(reclaimed)

    def update_gauges(self, engine: Any) -> None:
        """Snapshot state sizes from a :class:`ScidiveEngine` and flush
        the per-generator time tallies into the registry."""
        sizes = engine.trails.size_stats()
        self._trails.set(sizes["trails"])
        self._trail_footprints.set(sizes["footprints_retained"])
        self._sessions.set(sizes["sessions"])
        self._dialogs.set(engine.sip_state.call_count)
        self._registrations.set(engine.registrations.session_count)
        distiller = engine.distiller
        for counter, value in (distiller.stats.as_dict() | distiller.table_stats()).items():
            self._distiller.labels(engine=self.engine, counter=counter).set(value)
        for generator, seconds in self._gen_seconds_acc.items():
            self._generator.labels(engine=self.engine, generator=generator).inc(seconds)
        self._gen_seconds_acc.clear()
        for generator, calls in self._gen_calls_acc.items():
            self._generator_calls.labels(
                engine=self.engine, generator=generator
            ).inc(calls)
        self._gen_calls_acc.clear()
        self.flush_rule_costs(engine.ruleset.rules)
        if self._spans_dropped is not None:
            # Delta-flush the tracer's plain drop count into the
            # monotonic counter; a negative delta means the tracer was
            # clear()ed, so re-baseline the watermark.
            delta = self.tracer.dropped - self._spans_dropped_flushed
            if delta > 0:
                self._spans_dropped.inc(delta)
                self._spans_dropped_flushed = self.tracer.dropped
            elif delta < 0:
                self._spans_dropped_flushed = self.tracer.dropped
        budget = getattr(engine, "latency_budget", None)
        if budget is not None:
            self._burn_rate.set(budget.burn_rate)

    def flush_rule_costs(self, rules: Any) -> None:
        """Push each rule's sampled cost *delta* into the counters.

        Rules accumulate ``cost_seconds``/``cost_samples`` as plain
        floats on the hot path (see :class:`repro.core.rules.RuleSet`);
        this converts them into monotonic registry counters off the
        per-frame path.
        """
        flushed = self._rule_cost_flushed
        flushed_n = self._rule_samples_flushed
        for rule in rules:
            rid = rule.rule_id
            delta = rule.cost_seconds - flushed.get(rid, 0.0)
            if delta > 0.0:
                self._rule_cost.labels(engine=self.engine, rule_id=rid).inc(delta)
                flushed[rid] = rule.cost_seconds
            delta_n = rule.cost_samples - flushed_n.get(rid, 0)
            if delta_n > 0:
                self._rule_cost_samples.labels(
                    engine=self.engine, rule_id=rid
                ).inc(delta_n)
                flushed_n[rid] = rule.cost_samples
        flushed_s = self._shadow_flushed
        for rule in rules:
            rid = rule.rule_id
            delta_s = rule.shadow_matches - flushed_s.get(rid, 0)
            if delta_s > 0:
                self._shadow_matches.labels(
                    engine=self.engine, rule_id=rid
                ).inc(delta_s)
                flushed_s[rid] = rule.shadow_matches

    def rulepack_reloaded(self) -> None:
        """One successful hot reload (scidive_rulepack_reloads_total)."""
        self._rulepack_reloads.inc()


class InstrumentationHook(FootprintHook):
    """The engine's pluggable hook when observability is on.

    Pre-resolves every metric child the footprint pipeline touches, so
    each callback costs a histogram observe / counter inc plus at most
    one dict lookup.  Per-generator seconds are sampled 1 in
    ``sample_every`` footprints and scaled back up at flush; call counts
    are reconstructed exactly at flush from per-protocol footprint
    counts × the engine's dispatch tables (under indexed dispatch a
    generator only runs for the protocols it declared).
    """

    __slots__ = (
        "instr", "tracer", "sample_every",
        "_c_frames", "_h_distill", "_h_state", "_h_trail",
        "_h_generate", "_h_match",
        "_s_frame", "_s_distill", "_s_generate", "_s_match", "_s_housekeep",
        "_module_cache", "summary_every", "_summary_tick", "_summary_on",
        "_gen_secs", "_fp_counts", "_sample_tick",
    )

    def __init__(
        self,
        instr: EngineInstrumentation,
        sample_every: int = 8,
        summary_every: int = 4,
    ) -> None:
        self.instr = instr
        self.tracer = instr.tracer
        self.sample_every = max(1, sample_every)
        self._c_frames = instr.frame_counter_child()
        self._h_distill = instr.stage_child("distill")
        self._h_state = instr.stage_child("state")
        self._h_trail = instr.stage_child("trail")
        self._h_generate = instr.stage_child("generate")
        self._h_match = instr.stage_child("match")
        # Quantile-sketch children; all None when summaries are off, and
        # every observe below hides behind an ``is not None`` guard.
        self._s_frame = instr.frame_summary_child()
        self._s_distill = instr.stage_summary_child("distill")
        self._s_generate = instr.stage_summary_child("generate")
        self._s_match = instr.stage_summary_child("match")
        self._s_housekeep = instr.stage_summary_child("housekeep")
        self._module_cache: dict[Any, Any] = {}  # Protocol -> summary child
        # Latency sketches observe every Nth frame (coherently: a
        # sampled frame contributes frame AND distill AND generate AND
        # match, so quantiles stay unbiased systematic samples).  The
        # latency budget still sees every frame — overload detection
        # keeps full tail fidelity; only the *reported* quantiles are
        # estimated from the sample.
        self.summary_every = max(1, summary_every)
        self._summary_tick = self.summary_every - 1  # sample the first frame
        self._summary_on = False
        self._gen_secs: dict[str, float] = {}
        self._fp_counts: dict[Any, int] = {}  # Protocol -> footprints
        self._sample_tick = self.sample_every - 1  # sample the first footprint

    def frame_distilled(self, frame_no, sim_time, footprint, seconds) -> None:
        self._c_frames.inc()
        self._h_distill.observe(seconds)
        if self._s_distill is not None:
            tick = self._summary_tick + 1
            if tick >= self.summary_every:
                self._summary_tick = 0
                self._summary_on = True
                self._s_distill.observe(seconds)
            else:
                self._summary_tick = tick
                self._summary_on = False
        # The gate check lives at the call site: a gated tracer with no
        # sampled context skips the call itself, so unsampled cluster
        # frames never pay the kwargs packing for these per-frame spans.
        tracer = self.tracer
        if tracer is not None and (tracer.context or not tracer.gate):
            tracer.record(
                "distill", seconds, frame=frame_no, sim_time=sim_time,
                protocol=footprint.protocol.value if footprint is not None else "none",
            )

    def housekeeping_timed(self, reclaimed, seconds, frame_no, sim_time) -> None:
        self.instr.stage("housekeep", seconds, frame=frame_no,
                         sim_time=sim_time, reclaimed=reclaimed)
        if self._s_housekeep is not None:
            self._s_housekeep.observe(seconds)

    def frame_done(self, seconds, frame_no, sim_time) -> None:
        if self._summary_on and self._s_frame is not None:
            self._s_frame.observe(seconds)

    def state_updated(self, seconds, frame_no, sim_time) -> None:
        self._h_state.observe(seconds)
        tracer = self.tracer
        if tracer is not None and (tracer.context or not tracer.gate):
            tracer.record("state", seconds, frame=frame_no, sim_time=sim_time)

    def trail_pushed(self, seconds, frame_no, sim_time) -> None:
        self._h_trail.observe(seconds)
        tracer = self.tracer
        if tracer is not None and (tracer.context or not tracer.gate):
            tracer.record("trail", seconds, frame=frame_no, sim_time=sim_time)

    def sample_generators(self) -> bool:
        tick = self._sample_tick + 1
        if tick >= self.sample_every:
            self._sample_tick = 0
            return True
        self._sample_tick = tick
        return False

    def generator_ran(self, name, seconds) -> None:
        self._gen_secs[name] = self._gen_secs.get(name, 0.0) + seconds

    def event_seen(self, name) -> None:
        self.instr.event(name)

    def footprint_done(self, footprint, generate_seconds, match_seconds,
                       events, alerts, frame_no, sim_time) -> None:
        protocol = footprint.protocol
        self.instr.footprint(protocol.value)
        self._fp_counts[protocol] = self._fp_counts.get(protocol, 0) + 1
        self._h_generate.observe(generate_seconds)
        self._h_match.observe(match_seconds)
        if self._summary_on and self._s_generate is not None:
            self._s_generate.observe(generate_seconds)
            self._s_match.observe(match_seconds)
            child = self._module_cache.get(protocol)
            if child is None:
                child = self.instr.module_child(protocol.value)
                self._module_cache[protocol] = child
            child.observe(generate_seconds + match_seconds)
        tracer = self.tracer
        if tracer is not None and (tracer.context or not tracer.gate):
            tracer.record("generate", generate_seconds, frame=frame_no,
                          sim_time=sim_time, events=events)
            tracer.record("match", match_seconds, frame=frame_no,
                          sim_time=sim_time, events=events, alerts=alerts)

    def injected(self, event_name) -> None:
        self.instr.injected_event()
        self.instr.event(event_name)

    def housekeeping_done(self, reclaimed) -> None:
        self.instr.housekeeping(reclaimed)

    def snapshot(self, engine) -> None:
        self._flush(engine)
        self.instr.update_gauges(engine)

    def _flush(self, engine) -> None:
        """Merge the sampled tallies into the registry.

        Sampled seconds scale by ``sample_every`` to estimate totals;
        call counts are exact: each protocol's footprint count applies
        to precisely the generators in that protocol's dispatch table.
        Every generator gets an entry (0 when it saw nothing) so the
        metric family always carries the full generator roster.
        """
        if not self._fp_counts and not self._gen_secs:
            return
        scale = float(self.sample_every)
        seconds = {g.name: 0.0 for g in engine.generators}
        for name, total in self._gen_secs.items():
            seconds[name] = seconds.get(name, 0.0) + total * scale
        calls = {g.name: 0 for g in engine.generators}
        for protocol, count in self._fp_counts.items():
            for generator in engine.generators_for(protocol):
                calls[generator.name] = calls.get(generator.name, 0) + count
        self.instr.merge_generator_seconds(seconds, calls)
        self._gen_secs.clear()
        self._fp_counts.clear()
