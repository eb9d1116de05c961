"""The SCIDIVE engine: Distiller → Trails → Events → Rules → Alerts.

One :class:`ScidiveEngine` instance corresponds to one IDS box in the
paper's Figure 3 — typically associated with a protected client
endpoint (``vantage_ip``).  It consumes frames either *online*
(subscribed to a live sniffer) or *offline* (replaying a recorded
:class:`~repro.sim.trace.Trace`), which mirrors the paper's
hub-tap deployment.

Dispatch is *indexed*: each footprint visits only the
generators whose declared ``protocols`` include its protocol (the
engine builds per-protocol dispatch tables lazily), and each event
visits only the rules whose ``trigger_events`` include its name (the
RuleSet maintains that index).

A frame first meets the media fast path (:mod:`repro.core.fastpath`):
an RTP frame of a flow the full pipeline has already left in profile —
its header bytes prove it, and every generator the flow's footprints
visit vouched that such a frame raises no event — gets exactly the
state effects the full pipeline would give it (counters, trail, the
flow's sequence anchor and SSRC owner, the flight-recorder ring),
through the same methods, without becoming a footprint.  Any write that
can change such a verdict empties the table; every other frame, and
every frame while a hook is attached, takes the full pipeline.

There is exactly one footprint-processing code path.  Instrumentation
is a :class:`~repro.core.hooks.FootprintHook` object — ``None`` when
dark, so the metrics-off hot path pays only cheap ``is not None``
guards; when observability is on (``metrics_enabled=True`` or a global
:func:`repro.obs.enable` context) the hook counts frames / footprints /
events / alerts, samples per-stage latency histograms, and — when the
context carries a tracer — records per-frame spans through
distill → trail → generate → match.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs as _obs
from repro.core.alerts import Alert, AlertLog
from repro.core.distiller import DEFAULT_DECODERS, MEDIA_PAYLOAD_OFFSET, Distiller
from repro.core.event_generators import default_generators
from repro.core.events import Event, EventGenerator, GeneratorContext
from repro.core.fastpath import NO_HOLD, MediaFastPath, MediaProfile, flow_key
from repro.core.footprint import AnyFootprint, Protocol, RtpFootprint, SipFootprint
from repro.core.hooks import FootprintHook
from repro.core.rules import RuleSet
from repro.core.rules_library import paper_ruleset
from repro.core.state import SipStateTracker
from repro.core.trail import TrailManager
from repro.net.capture import Sniffer
from repro.obs.forensics import ForensicsRecorder
from repro.obs.logsetup import get_logger
from repro.resilience.firewall import StageFirewall
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocols import ProtocolModule

_log = get_logger("core.engine")


@dataclass(slots=True)
class EngineStats:
    frames: int = 0
    footprints: int = 0
    events: int = 0
    alerts: int = 0
    cpu_seconds: float = 0.0

    @property
    def frames_per_cpu_second(self) -> float:
        """Throughput as total frames over total CPU seconds.

        Merge-safe by construction: :meth:`merge` sums both the frame
        count and the CPU seconds, so the aggregated ratio is the true
        cluster-wide frames/CPU-second, not an average of per-worker
        rates (which would weight idle workers equally with busy ones).
        """
        return self.frames / self.cpu_seconds if self.cpu_seconds > 0 else 0.0

    def merge(self, other: "EngineStats") -> None:
        """Fold another engine's counters into this one (cluster merge)."""
        self.frames += other.frames
        self.footprints += other.footprints
        self.events += other.events
        self.alerts += other.alerts
        self.cpu_seconds += other.cpu_seconds

    @classmethod
    def merged(cls, parts: "list[EngineStats] | tuple[EngineStats, ...]") -> "EngineStats":
        """A fresh stats object holding the sum of ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def as_dict(self) -> dict:
        return {
            "frames": self.frames,
            "footprints": self.footprints,
            "events": self.events,
            "alerts": self.alerts,
            "cpu_seconds": self.cpu_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineStats":
        return cls(
            frames=payload.get("frames", 0),
            footprints=payload.get("footprints", 0),
            events=payload.get("events", 0),
            alerts=payload.get("alerts", 0),
            cpu_seconds=payload.get("cpu_seconds", 0.0),
        )

    def reset(self) -> None:
        """Zero all counters (between experiment phases)."""
        self.frames = 0
        self.footprints = 0
        self.events = 0
        self.alerts = 0
        self.cpu_seconds = 0.0


class ScidiveEngine:
    """A complete SCIDIVE IDS instance."""

    def __init__(
        self,
        vantage_ip: str | None = None,
        ruleset: RuleSet | None = None,
        generators: list[EventGenerator] | None = None,
        distiller: Distiller | None = None,
        name: str = "scidive",
        vantage_mac: str | None = None,
        observability: "_obs.Observability | None" = None,
        metrics_enabled: bool | None = None,
        modules: "list[ProtocolModule] | None" = None,
        hook: FootprintHook | None = None,
        forensics: "ForensicsRecorder | bool | None" = None,
        firewall: "StageFirewall | bool | None" = None,
        cost_sample_rate: int | None = None,
        frame_budget: float | None = None,
        rulepack: "object | str | None" = None,
    ) -> None:
        self.name = name
        # Protocol modules are the registration unit: when given, they
        # supply whichever of distiller/generators/ruleset the caller
        # did not pass explicitly.
        self.modules = modules
        # Rules come from, in order: an explicit ruleset; a rule pack
        # (a RulePack object or a path to a .rules file); the modules'
        # own rules; otherwise the shipped pack (paper_ruleset).
        # Modules still supply the distiller and generators.
        if rulepack is not None and ruleset is None:
            from repro.rulespec import RulePack, compile_pack, load_pack

            if not isinstance(rulepack, RulePack):
                rulepack = load_pack(rulepack)
            ruleset = compile_pack(rulepack)
        if modules is not None:
            from repro.core.protocols import (
                distiller_from,
                generators_from,
                ruleset_from,
            )

            if distiller is None:
                distiller = distiller_from(modules)
            if generators is None:
                generators = generators_from(modules)
            if ruleset is None:
                ruleset = ruleset_from(modules)
        self.distiller = distiller if distiller is not None else Distiller()
        self.trails = TrailManager()
        self.sip_state = SipStateTracker(self.trails)
        self.generators = generators if generators is not None else default_generators()
        self.ruleset = ruleset if ruleset is not None else paper_ruleset()
        # The pack behind self.ruleset (None for a hand-built RuleSet)
        # — read from the compiled set so a caller passing ruleset=
        # compile_pack(...) directly is also covered.
        self.rulepack = getattr(self.ruleset, "pack", None)
        self.rulepack_reloads = 0
        self.alert_log = AlertLog()
        self.stats = EngineStats()
        # Shadow-mode scratch: replicated frames (cluster workers that do
        # not own a broadcast signalling frame) run the full pipeline so
        # state machines stay complete, but their alerts/events/stats are
        # segregated here and discarded — only the owner's output counts.
        self.shadow_stats = EngineStats()
        self._shadow_alert_log = AlertLog()
        self._shadow_event_log: list[Event] = []
        self.vantage_ip = vantage_ip
        self.vantage_mac = vantage_mac
        self._ctx = GeneratorContext(
            trails=self.trails,
            sip_state=self.sip_state,
            vantage_ip=vantage_ip,
            vantage_mac=vantage_mac,
        )
        self.event_log: list[Event] = []
        # Optional peers for cooperative detection (see core.correlation).
        self.event_subscribers: list = []
        # Optional per-alert callbacks (owner alerts only, not shadow).
        self.alert_subscribers: list = []
        # Housekeeping: expire idle state every N footprints (0 = never).
        self.housekeeping_every: int = 10_000
        self.state_idle_timeout: float = 600.0
        self._since_housekeeping = 0
        self.expired_trails = 0
        # Per-protocol generator dispatch tables, built lazily and
        # invalidated whenever self.generators is rebound.
        self._dispatch: dict[Protocol, tuple[EventGenerator, ...]] = {}
        self._dispatch_source: list[EventGenerator] = self.generators
        # The media fast path (repro.core.fastpath): in-profile RTP flows
        # the full pipeline vouched for.  Derived, never checkpointed.
        self.media_fast = MediaFastPath()
        # -- observability wiring --------------------------------------------
        # metrics_enabled=False forces dark even under a global context;
        # True builds a private context; None follows obs.current().
        if metrics_enabled is False:
            self.observability = None
        elif observability is not None:
            self.observability = observability
        elif metrics_enabled:
            self.observability = _obs.Observability.create()
        else:
            self.observability = _obs.current()
        self._instr = (
            self.observability.instrument_engine(name)
            if self.observability is not None
            else None
        )
        if self._instr is not None:
            self.alert_log.subscribers.append(self._instr.alert)
            self._hook: FootprintHook | None = self._instr.as_hook()
        else:
            # A caller-supplied hook instruments the same single code
            # path without the observability stack (tests, ad-hoc
            # profiling).  Dark engines hold None and pay one guard.
            self._hook = hook
        # -- forensics wiring -------------------------------------------------
        # Default-on (False disables): every alert carries provenance,
        # so the recorder cannot be opt-in for harness-built engines.
        # It gets its own seam rather than the FootprintHook slot —
        # that slot belongs to instrumentation and forensics must work
        # with metrics on or off.
        if forensics is False:
            self.forensics: ForensicsRecorder | None = None
        elif isinstance(forensics, ForensicsRecorder):
            self.forensics = forensics
        else:
            self.forensics = ForensicsRecorder.from_config(
                name, self.metrics_registry()
            )
        if self.forensics is not None:
            self.alert_log.subscribers.append(self.forensics.on_alert)
        # -- exception firewall ----------------------------------------------
        # Default-on (False disables — for tests that assert exceptions
        # propagate): robustness against a throwing decoder/generator/
        # rule must not be opt-in, and the boundary costs nothing until
        # an exception is actually raised.
        if firewall is False:
            self.firewall: StageFirewall | None = None
        elif isinstance(firewall, StageFirewall):
            self.firewall = firewall
        else:
            self.firewall = StageFirewall(engine_name=name)
        if self.firewall is not None:
            self.firewall.emit_alert = self._emit_self_alert
            registry = self.metrics_registry()
            if registry is not None:
                self.firewall.bind_registry(registry)
            self.distiller.firewall = self.firewall
            self.ruleset.firewall = self.firewall
        # -- per-rule cost accounting -----------------------------------------
        # Sampled match() timing: every Nth invocation per rule.  Dark
        # engines default to 0 (off) so the guard is one int compare.
        if cost_sample_rate is None:
            cost_sample_rate = (
                self.observability.cost_sample_rate
                if self.observability is not None
                else 0
            )
        self.ruleset.cost_sample_rate = cost_sample_rate
        # -- latency budget ---------------------------------------------------
        # Default-on for instrumented engines (overload must be visible
        # wherever metrics are); dark engines opt in via frame_budget.
        if frame_budget is None and self.observability is not None:
            frame_budget = self.observability.frame_budget
        if frame_budget is None and self._instr is not None:
            frame_budget = _obs.DEFAULT_FRAME_BUDGET
        self.latency_budget: "_obs.LatencyBudgetDetector | None" = (
            _obs.LatencyBudgetDetector(budget=frame_budget) if frame_budget else None
        )

    @property
    def metrics_enabled(self) -> bool:
        return self._instr is not None

    # -- dispatch -------------------------------------------------------------

    def generators_for(self, protocol: Protocol) -> tuple[EventGenerator, ...]:
        """The generators a footprint of this protocol visits, in order.

        Filters by each generator's declared ``protocols`` (None =
        wildcard, always visited).  Tables rebuild when
        ``self.generators`` is rebound.
        """
        if self._dispatch_source is not self.generators:
            self._dispatch_source = self.generators
            self._dispatch = {}
            self.media_fast.empty()
        entry = self._dispatch.get(protocol)
        if entry is None:
            entry = tuple(
                g for g in self.generators
                if g.protocols is None or protocol in g.protocols
            )
            self._dispatch[protocol] = entry
        return entry

    # -- ingestion ------------------------------------------------------------

    def process_frame(self, frame: bytes, timestamp: float) -> list[Alert]:
        """The online entry point: one captured frame in, alerts out.

        A frame whose payload starts with RTP's version bits, on a dark
        engine with media profiles learned, first tries the media fast
        path (:meth:`_serve_media`); every other frame, and every frame
        it declines, is distilled and runs the footprint pipeline.
        """
        hook = self._hook
        started = _time.perf_counter()
        self.stats.frames += 1
        if (
            hook is None
            and len(frame) > MEDIA_PAYLOAD_OFFSET
            and frame[MEDIA_PAYLOAD_OFFSET] >> 6 == 2
            and self.media_fast
            and self._serve_media(frame, timestamp)
        ):
            alerts: list[Alert] = []
        else:
            try:
                footprint = self.distiller.distill(frame, timestamp)
            except Exception as exc:
                # Backstop behind the distiller's own per-decoder quarantine:
                # a crash in frame/IP/UDP decode itself must degrade to "no
                # footprint", never abort the frame path.
                if self.firewall is None:
                    raise
                self.firewall.record_error("decoder", "distill", exc, timestamp)
                footprint = None
            if footprint is not None and self.forensics is not None:
                # Record before the footprint pipeline runs, so an alert
                # raised by this very frame can already resolve it.
                self.forensics.record_frame(
                    self.stats.frames, frame, timestamp, footprint
                )
            if hook is not None:
                hook.frame_distilled(
                    self.stats.frames, timestamp, footprint,
                    _time.perf_counter() - started,
                )
            if footprint is None:
                alerts = []
            else:
                alerts = self._footprint_path(footprint, self.stats.frames, True)
        elapsed = _time.perf_counter() - started
        self.stats.cpu_seconds += elapsed
        if hook is not None:
            hook.frame_done(elapsed, self.stats.frames, timestamp)
        budget = self.latency_budget
        if budget is not None:
            budget.record(elapsed)
        return alerts

    def process_frame_shadow(self, frame: bytes, timestamp: float) -> None:
        """Process a frame for its *state effects only*.

        The cluster replicates signalling frames to every worker so
        cross-protocol detectors (orphan-media watches, registration
        tracking, SDP-learned media endpoints, rule cooldowns) hold the
        complete picture everywhere.  A replica must not *report*
        though — that would duplicate alerts across workers — so this
        entry point swaps the alert/event/stats sinks (and the
        instrumentation hook) for shadow scratch structures around a
        normal :meth:`process_frame` call and discards what they caught.
        All protocol/rule state advances exactly as for an owned frame.
        """
        stats, alert_log, event_log = self.stats, self.alert_log, self.event_log
        alert_subs, event_subs = self.alert_subscribers, self.event_subscribers
        hook = self._hook
        self.stats = self.shadow_stats
        self.alert_log = self._shadow_alert_log
        self.event_log = self._shadow_event_log
        self.alert_subscribers = []
        self.event_subscribers = []
        self._hook = None
        try:
            self.process_frame(frame, timestamp)
        finally:
            self.stats = stats
            self.alert_log = alert_log
            self.event_log = event_log
            self.alert_subscribers = alert_subs
            self.event_subscribers = event_subs
            self._hook = hook
            self._shadow_alert_log.clear()
            self._shadow_event_log.clear()

    def _serve_media(self, frame: bytes, timestamp: float) -> bool:
        """The media fast path: apply an in-profile RTP frame's effects
        without distilling it, or return False having written nothing.

        Check, then commit.  The Distiller proves the frame an in-profile
        frame of a learned flow (:meth:`Distiller.media_profile`); every
        hold must admit it, and no housekeeping may be due.  Then exactly
        what the full pipeline would do to that frame is applied, each
        through the method the full pipeline calls: the frame and
        footprint counters, the trail's count, endpoints and time, each
        hold's advance, and the recorder's ring push.
        """
        if self._dispatch_source is not self.generators:
            return False
        found = self.distiller.media_profile(frame, self.media_fast)
        if found is None:
            return False
        profile, sequence = found
        holds = profile.holds
        if holds is None:
            holds = profile.holds = self._media_holds(profile)
            if holds is None:
                return False
        for hold in holds:
            if not hold.admits(sequence, timestamp):
                return False
        every = self.housekeeping_every
        if every and self._since_housekeeping + 1 >= every:
            return False
        counts = self.distiller.stats
        counts.frames += 1
        counts.footprints += 1
        self.stats.footprints += 1
        self._since_housekeeping += 1
        footprint = profile.footprint
        self.trails.refile(profile.trail, footprint.src, footprint.dst, timestamp)
        for hold in holds:
            hold.advance(sequence, timestamp)
        if self.forensics is not None:
            self.forensics.record(
                profile.ring_key, self.stats.frames, frame, timestamp, None
            )
        self.media_fast.served += 1
        return True

    def _learn_media(self, footprint: RtpFootprint, trail) -> None:
        """After ``footprint`` raised no event: file its flow's profile,
        its holds still unasked (:meth:`_media_holds`)."""
        key = flow_key(footprint.src, footprint.dst)
        table = self.media_fast
        decoders = self.distiller.decoders
        if decoders is not table.decoders and decoders != DEFAULT_DECODERS:
            # The fast path's classification is the stock chain's.
            table.pop(key, None)
            return
        table.learn(key, MediaProfile(footprint, trail), decoders)

    def _media_holds(self, profile: MediaProfile) -> "tuple | None":
        """Ask every generator an RTP footprint visits for its hold on
        the profile's flow, when the flow's first frame after learning
        arrives (a flow the table is emptied under never pays for it);
        None when one cannot vouch for the frame."""
        footprint, trail, ctx = profile.footprint, profile.trail, self._ctx
        holds = []
        for generator in self.generators_for(Protocol.RTP):
            hold = generator.media_hold(footprint, trail, ctx)
            if hold is None:
                return None
            if hold is not NO_HOLD:
                holds.append(hold)
        if self.forensics is not None:
            profile.ring_key = self.forensics.session_key(footprint)
        return tuple(holds)

    def process_footprint(
        self, footprint: AnyFootprint, frame_no: int = 0
    ) -> list[Alert]:
        """The single footprint pipeline: trail → state → generate → match.

        Callable directly with pre-distilled footprints (the dispatch
        benchmark does); ``process_frame`` is the online wrapper.

        Detection logic exists exactly once: instrumentation is the
        pluggable ``FootprintHook`` and every hook touch-point below is
        behind a branch on a local, so the dark path (``hook is None``,
        the common case) pays only those guards — no timer reads, no
        no-op calls.
        """
        return self._footprint_path(footprint, frame_no, False)

    def _footprint_path(
        self, footprint: AnyFootprint, frame_no: int, from_frame: bool
    ) -> list[Alert]:
        """:meth:`process_footprint`'s body.  ``from_frame``: the
        footprint was distilled from a frame here, so an eventless RTP
        footprint may teach the media fast path its flow."""
        hook = self._hook
        ts = footprint.timestamp
        stats = self.stats
        epoch = self.trails.media.writes
        stats.footprints += 1
        self._since_housekeeping += 1
        if self.housekeeping_every and self._since_housekeeping >= self.housekeeping_every:
            if hook is None:
                self.housekeep(ts)
            else:
                t0 = _time.perf_counter()
                reclaimed = self.housekeep(ts)
                hook.housekeeping_timed(reclaimed, _time.perf_counter() - t0, frame_no, ts)
        # Shared state first, so every generator sees the post-update world;
        # a SIP message's trail is its call's record, which state updates.
        if hook is not None:
            t0 = _time.perf_counter()
        trail = self.trails.push(footprint)
        if hook is not None:
            hook.trail_pushed(_time.perf_counter() - t0, frame_no, ts)
        if isinstance(footprint, SipFootprint):
            if hook is not None:
                t0 = _time.perf_counter()
            self.sip_state.observe(footprint, trail)
            if hook is not None:
                hook.state_updated(_time.perf_counter() - t0, frame_no, ts)
        alerts: list[Alert] = []
        events_produced = 0
        ctx = self._ctx
        # ``timed`` folds "a hook is attached AND it sampled this
        # footprint" into one local bool so the generator loop tests a
        # single flag per touch-point.  Per-generator attribution is
        # *sampled* (the hook decides how often); timing every generator
        # on every footprint costs more than the generators themselves.
        timed = hook is not None and hook.sample_generators()
        if hook is not None:
            perf = _time.perf_counter
            match_seconds = 0.0
            loop_start = perf()
            mark = loop_start
        # Inlined fast path of generators_for(): one identity check and
        # one dict probe when the table is already built and the
        # generator list unchanged (the per-footprint common case).
        if self._dispatch_source is self.generators:
            generators = self._dispatch.get(footprint.protocol)
        else:
            generators = None
        if generators is None:
            generators = self.generators_for(footprint.protocol)
        clean = True
        for generator in generators:
            try:
                events = generator.on_footprint(footprint, trail, ctx)
            except Exception as exc:
                clean = False
                # Quarantine the throwing generator's output, keep the
                # rest of the fan-out alive.  On breaker trip the
                # generator leaves the list — rebinding invalidates the
                # dispatch tables, so it simply stops being visited.
                firewall = self.firewall
                if firewall is None:
                    raise
                if firewall.record_error("generator", generator.name, exc, ts):
                    self.generators = [
                        g for g in self.generators if g is not generator
                    ]
                events = ()
            if timed:
                now = perf()
                hook.generator_ran(generator.name, now - mark)
                mark = now
            if not events:
                continue
            events_produced += len(events)
            for event in events:
                self.event_log.append(event)
                if hook is not None:
                    hook.event_seen(event.name)
                for subscriber in self.event_subscribers:
                    subscriber(self.name, event)
                if hook is not None:
                    m0 = perf()
                alerts.extend(self.ruleset.match(event, self.alert_log))
                if hook is not None:
                    match_seconds += perf() - m0
            if timed:
                # Rule matching must not be attributed to the next generator.
                mark = perf()
        stats.events += events_produced
        if self.trails.media.writes != epoch:
            self.media_fast.empty()
        if from_frame and hook is None and footprint.__class__ is RtpFootprint:
            if clean and not events_produced:
                self._learn_media(footprint, trail)
            else:
                self.media_fast.pop(flow_key(footprint.src, footprint.dst), None)
        if hook is not None:
            hook.footprint_done(
                footprint,
                perf() - loop_start - match_seconds,
                match_seconds,
                events_produced,
                len(alerts),
                frame_no,
                ts,
            )
        if alerts:
            stats.alerts += len(alerts)
            for alert in alerts:
                for subscriber in self.alert_subscribers:
                    subscriber(alert)
        if isinstance(footprint, SipFootprint):
            # Every reader of this message's headers has run; the trail
            # keeps the message as its header block, not the parsed values.
            footprint.message.compact()
        return alerts

    def inject_event(self, event: Event) -> list[Alert]:
        """Feed an externally produced event (cooperative detection).

        Subscribers are notified exactly as for locally generated events,
        so cooperating peers and response hooks hear injected activity.
        """
        self.stats.events += 1
        self.event_log.append(event)
        if self._hook is not None:
            self._hook.injected(event.name)
        for subscriber in self.event_subscribers:
            subscriber(self.name, event)
        alerts = self.ruleset.match(event, self.alert_log)
        self.stats.alerts += len(alerts)
        for alert in alerts:
            for subscriber in self.alert_subscribers:
                subscriber(alert)
        return alerts

    # -- deployment helpers -----------------------------------------------------

    def attach(self, sniffer: Sniffer) -> None:
        """Subscribe to a live tap (online IDS)."""
        sniffer.subscribe(self.process_frame)

    def process_trace(self, trace: Trace) -> list[Alert]:
        """Replay a recorded capture (offline IDS)."""
        before = len(self.alert_log)
        for record in trace:
            self.process_frame(record.frame, record.timestamp)
        self.snapshot_gauges()
        return self.alert_log.alerts[before:]

    # -- queries --------------------------------------------------------------------

    @property
    def alerts(self) -> list[Alert]:
        return self.alert_log.alerts

    def alerts_for_rule(self, rule_id: str) -> list[Alert]:
        return self.alert_log.by_rule(rule_id)

    def events_named(self, name: str) -> list[Event]:
        return [e for e in self.event_log if e.name == name]

    def _emit_self_alert(self, alert: Alert) -> None:
        """Sink for self-diagnostic alerts (firewall quarantines): the
        normal alert path, so logs, subscribers and counters all see the
        degradation announcement."""
        self.stats.alerts += 1
        self.alert_log.emit(alert)
        for subscriber in self.alert_subscribers:
            subscriber(alert)

    # -- crash safety -----------------------------------------------------------

    def checkpoint(self) -> bytes:
        """Serialize this engine's detection state (versioned; see
        :mod:`repro.resilience.checkpoint` for exactly what is carried)."""
        from repro.resilience.checkpoint import engine_checkpoint

        return engine_checkpoint(self)

    def restore(self, blob: bytes, force: bool = False) -> None:
        """Load a :meth:`checkpoint` payload into this engine, replacing
        its detection state.  The engine must be built with the same
        module configuration as the one that took the snapshot, and —
        unless ``force`` — under the same rule pack
        (:class:`~repro.resilience.checkpoint.RulePackMismatch`)."""
        from repro.resilience.checkpoint import engine_restore

        engine_restore(self, blob, force=force)

    def load_rulepack(self, pack, carry_state: bool = True):
        """Atomically swap the active detection policy (hot reload).

        ``pack`` is a :class:`~repro.rulespec.model.RulePack` or a path
        to a ``.rules`` file.  The pack is compiled into a fresh indexed
        RuleSet *before* anything is touched — a pack that fails to
        compile leaves the engine exactly as it was.  The swap is a
        single rebind of ``self.ruleset``: ``process_footprint`` hoists
        ``ruleset.match`` once per footprint, so no footprint ever sees
        a half-installed policy — the new pack applies from the next
        footprint on.

        Nothing outside the ruleset is disturbed: trails, call and
        registration state, generators and the alert/event logs all carry
        over, and with ``carry_state`` (the default) per-rule detection
        state — cooldowns, threshold buckets, sequence progress,
        conjunction members — transfers to same-id, same-shape rules in
        the new pack, so armed stateful watches survive the reload.
        Returns the new RuleSet.
        """
        from repro.rulespec import RulePack, compile_pack, load_pack

        if not isinstance(pack, RulePack):
            pack = load_pack(pack)
        new_set = compile_pack(pack)
        old_set = self.ruleset
        # Continuity: cost/skip accounting keeps accumulating across the reload.
        new_set.dispatch_skipped = old_set.dispatch_skipped
        new_set.cost_sample_rate = old_set.cost_sample_rate
        new_set.firewall = self.firewall
        if carry_state:
            previous = {rule.rule_id: rule for rule in old_set.rules}
            for rule in new_set.rules:
                prev = previous.get(rule.rule_id)
                if prev is not None and type(prev) is type(rule):
                    rule.restore_state(prev.checkpoint_state())
        self.ruleset = new_set
        self.rulepack = pack
        self.rulepack_reloads += 1
        self.media_fast.empty()
        if self._instr is not None:
            self._instr.rulepack_reloaded()
        _log.info(
            "rulepack loaded",
            extra={"fields": {
                "engine": self.name, "pack": pack.label,
                "rules": len(new_set.rules),
                "reloads": self.rulepack_reloads,
                "carried_state": carry_state,
            }},
        )
        return new_set

    def reset_detection_state(self) -> None:
        """Clear alerts/events/counters but keep protocol state (between
        phases).  Includes the ruleset: cooldown timestamps, per-rule
        counters and the per-rule group tables (threshold buckets,
        sequence progress, conjunction members) must not leak from one
        phase into the next.  Shadow scratch counters reset too: replicated-
        frame stats are phase state like everything else here."""
        self.alert_log.clear()
        self.event_log.clear()
        self.stats.reset()
        self.shadow_stats.reset()
        self.ruleset.reset()

    def housekeep(self, now: float) -> int:
        """Expire idle state: trails, calls (with their dialog role and
        registration progress) and every generator's own tables, all by
        the one ``state_idle_timeout`` rule.

        Runs automatically every ``housekeeping_every`` footprints;
        callable explicitly by long-running deployments.  Returns the
        number of trails reclaimed.
        """
        self._since_housekeeping = 0
        self.media_fast.empty()
        timeout = self.state_idle_timeout
        trails = self.trails
        dialogs = trails.expired_dialogs
        registrations = trails.expired_registrations
        reclaimed = trails.expire_idle(now, timeout)
        self.expired_trails += reclaimed
        dialogs = trails.expired_dialogs - dialogs
        registrations = trails.expired_registrations - registrations
        if registrations:
            self.sip_state.registrations_expired()
        swept = 0
        for generator in self.generators:
            swept += generator.expire_idle(now, timeout, self._ctx)
        if self.forensics is not None:
            self.forensics.expire_idle(now, timeout)
        if self._hook is not None:
            self._hook.housekeeping_done(reclaimed)
            self._hook.snapshot(self)
        _log.debug(
            "housekeep",
            extra={"fields": {
                "engine": self.name, "now": round(now, 3),
                "reclaimed_trails": reclaimed, "expired_dialogs": dialogs,
                "expired_registrations": registrations, "swept": swept,
                "live_trails": trails.trail_count,
            }},
        )
        return reclaimed

    # -- observability surfacing ------------------------------------------------

    def snapshot_gauges(self) -> None:
        """Refresh state-size gauges (no-op when observability is off)."""
        if self._hook is not None:
            self._hook.snapshot(self)

    def metrics_registry(self) -> "_obs.MetricsRegistry | None":
        return self.observability.registry if self.observability is not None else None

    def stage_summary(self) -> "list[_obs.StageStats]":
        """Per-stage latency summary from the trace (empty when off)."""
        if self.observability is None or self.observability.tracer is None:
            return []
        return self.observability.tracer.stage_summary()
