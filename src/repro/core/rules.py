"""The Rule Matching Engine (paper §3.1).

"Ruleset is triggered by a sequence of Events ... The matching in the
Ruleset is based on Events that can potentially encapsulate information
from multiple packets and can bear state information."

Three rule shapes cover every rule in the paper:

* :class:`SingleEventRule` — alarm on one event (optionally filtered by
  a predicate).  The orphan-RTP and RTP-anomaly rules are these: the
  heavy correlation already happened in the event generator, so the rule
  itself is cheap — the paper's stated efficiency argument for events.
* :class:`ThresholdRule` — ≥ N events of a kind within a sliding window,
  grouped by a key (session, user, source...).  The DoS and password-
  guessing rules are these.
* :class:`ConjunctionRule` — all of several event kinds observed for the
  same session within a window.  The billing-fraud rule is this: three
  conditions spanning SIP, accounting and RTP must concur.

Rules may also reach past events and into raw trails via
:class:`RuleContext` ("the Ruleset can also perform the matching based on
crude information directly from the Trails"), at a cost — the
engine-throughput benchmark quantifies the difference.
"""

from __future__ import annotations

import time as _time
from abc import ABC, abstractmethod
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.alerts import Alert, AlertLog, Severity
from repro.core.events import Event
from repro.core.trail import TrailManager

Predicate = Callable[[Event], bool]
GroupKey = Callable[[Event], str]

# Upper bound on per-rule tracking groups.  An attacker who churns group
# keys (e.g. spraying spoofed source addresses at a ThresholdRule grouped
# by source) must not be able to exhaust the IDS's memory; once the cap
# is hit the least-recently-touched group is evicted (dicts preserve
# insertion order, and touching re-inserts).
MAX_RULE_GROUPS = 10_000


def _touch_lru(table: dict, key: str, max_groups: int):
    """Move ``key`` to the MRU position, evicting LRU entries over the cap."""
    value = table.pop(key, None)
    if value is not None:
        table[key] = value
    while len(table) >= max_groups:
        table.pop(next(iter(table)))
    return value


@dataclass(slots=True)
class RuleContext:
    """What a rule may consult besides the triggering event."""

    trails: TrailManager
    history: "EventHistory"


class Rule(ABC):
    """Base rule: consumes events, produces alerts."""

    # The event names that can possibly fire this rule.  RuleSet builds
    # its trigger-event → rules index from this; None means "every
    # event" (the rule is a wildcard and always a candidate).  The
    # concrete rule shapes fill it in from their constructor arguments.
    trigger_events: frozenset[str] | None = None

    # The attributes that constitute this rule's *detection state* — what
    # a checkpoint must carry across a worker respawn.  Rule objects
    # themselves hold lambdas (predicates, group keys) and cannot be
    # pickled, so checkpointing captures only these, keyed by rule id,
    # and restores them into the factory-built rule.  Stateful subclasses
    # extend the tuple.
    state_attrs: tuple[str, ...] = (
        "_last_alert", "matches_attempted", "alerts_raised",
        "cost_seconds", "cost_samples",
        "shadow_matches", "suppressed_alerts",
    )

    def __init__(
        self,
        rule_id: str,
        name: str,
        severity: Severity,
        attack_class: str,
        cooldown: float = 0.0,
    ) -> None:
        self.rule_id = rule_id
        self.name = name
        self.severity = severity
        self.attack_class = attack_class
        # Suppress duplicate alerts for the same group within cooldown.
        self.cooldown = cooldown
        self._last_alert: dict[str, float] = {}
        # Candidate evaluations: how often the dispatcher handed this
        # rule an event it could plausibly fire on (under indexed
        # dispatch, events outside trigger_events never reach it).
        self.matches_attempted = 0
        self.alerts_raised = 0
        # Sampled cost accounting (see RuleSet.cost_sample_rate):
        # cost_seconds is the *estimated total* wall time this rule has
        # consumed (each timed sample scaled by the sample rate),
        # cost_samples the number of timed invocations behind it.
        self.cost_seconds = 0.0
        self.cost_samples = 0
        # -- per-rule ops controls (rule packs / `repro rules`) ----------
        # enabled=False removes the rule from dispatch entirely (the
        # index is rebuilt without it).  mode picks what happens when
        # the rule *would* alert: "enforce" emits, "shadow" only counts
        # (scidive_shadow_matches_total), "suppress" counts separately
        # and drops.  A disabled rule accumulates no state; a shadowed
        # rule advances all its state exactly like an enforcing one.
        self.enabled = True
        self.mode = "enforce"
        self.shadow_matches = 0
        self.suppressed_alerts = 0
        # Provenance for pack-compiled rules: the owning pack's identity
        # label (name@version+hash) and this rule's file:line.  Empty
        # for a rule constructed by hand.
        self.pack_version = ""
        self.source_location = ""

    @abstractmethod
    def on_event(self, event: Event, ctx: RuleContext) -> Alert | None:
        """Inspect one event; return an alert or None."""

    def reset(self) -> None:
        """Forget cooldowns and zero the activity counters (between
        experiment phases — without this, a phase-1 alert's cooldown
        timestamp would suppress the same alert in phase 2)."""
        self._last_alert.clear()
        self.matches_attempted = 0
        self.alerts_raised = 0
        self.cost_seconds = 0.0
        self.cost_samples = 0
        self.shadow_matches = 0
        self.suppressed_alerts = 0

    def checkpoint_state(self) -> dict:
        """This rule's detection state for a checkpoint payload."""
        return {name: getattr(self, name) for name in self.state_attrs}

    def restore_state(self, state: dict) -> None:
        """Load a checkpointed state dict (unknown keys are ignored, so
        a rule that gained or lost state attributes degrades cleanly)."""
        self.reset()
        for name, value in state.items():
            if name in self.state_attrs:
                setattr(self, name, value)

    def _cooldown_active(self, event: Event) -> bool:
        """True when the group's cooldown suppresses an alert at ``event.time``.

        Exposed separately from :meth:`_make_alert` so rules can bail out
        *before* rendering the alert message — under an event flood almost
        every over-threshold event is cooldown-suppressed, and formatting
        a message that will be discarded dominates the match path.
        """
        if self.cooldown <= 0:
            return False
        last = self._last_alert.get(event.session or "global")
        return last is not None and event.time - last < self.cooldown

    def _make_alert(self, event: Event, message: str, evidence: tuple[Event, ...]) -> Alert | None:
        if self._cooldown_active(event):
            return None
        self._last_alert[event.session or "global"] = event.time
        self.alerts_raised += 1
        return Alert(
            rule_id=self.rule_id,
            rule_name=self.name,
            time=event.time,
            session=event.session,
            severity=self.severity,
            attack_class=self.attack_class,
            message=message,
            events=evidence,
            pack_version=self.pack_version,
            rule_source=self.source_location,
        )


class SingleEventRule(Rule):
    """Alarm whenever a matching event occurs."""

    def __init__(
        self,
        rule_id: str,
        name: str,
        event_name: str,
        severity: Severity = Severity.HIGH,
        attack_class: str = "generic",
        predicate: Predicate | None = None,
        message: str | None = None,
        cooldown: float = 0.0,
    ) -> None:
        super().__init__(rule_id, name, severity, attack_class, cooldown)
        self.event_name = event_name
        self.trigger_events = frozenset({event_name})
        self.predicate = predicate
        self.message_template = message or f"{name}: triggered by {event_name}"

    def on_event(self, event: Event, ctx: RuleContext) -> Alert | None:
        if event.name != self.event_name:
            return None
        if self.predicate is not None and not self.predicate(event):
            return None
        if self._cooldown_active(event):
            return None
        message = self.message_template.format(**{"session": event.session, **event.attrs})
        return self._make_alert(event, message, (event,))


class ThresholdRule(Rule):
    """Alarm when ≥ ``threshold`` matching events land in ``window`` seconds."""

    state_attrs = Rule.state_attrs + ("_buckets",)

    def __init__(
        self,
        rule_id: str,
        name: str,
        event_name: str,
        threshold: int,
        window: float,
        severity: Severity = Severity.MEDIUM,
        attack_class: str = "dos",
        group_by: GroupKey | None = None,
        predicate: Predicate | None = None,
        message: str | None = None,
        cooldown: float = 5.0,
    ) -> None:
        super().__init__(rule_id, name, severity, attack_class, cooldown)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        self.event_name = event_name
        self.trigger_events = frozenset({event_name})
        self.threshold = threshold
        self.window = window
        self.group_by = group_by if group_by is not None else (lambda e: e.session)
        self.predicate = predicate
        self.message_template = (
            message or f"{name}: {threshold}+ {event_name} events within {window}s"
        )
        self.max_groups = MAX_RULE_GROUPS
        self._buckets: dict[str, deque[Event]] = {}

    def reset(self) -> None:
        super().reset()
        self._buckets.clear()

    def on_event(self, event: Event, ctx: RuleContext) -> Alert | None:
        if event.name != self.event_name:
            return None
        if self.predicate is not None and not self.predicate(event):
            return None
        group = self.group_by(event)
        # _touch_lru already re-inserted a hit at MRU; only a miss needs
        # the dict store (one fewer key hash per event on the flood path).
        bucket = _touch_lru(self._buckets, group, self.max_groups)
        if bucket is None:
            bucket = deque()
            self._buckets[group] = bucket
        bucket.append(event)
        horizon = event.time - self.window
        while bucket and bucket[0].time < horizon:
            bucket.popleft()
        if len(bucket) < self.threshold:
            return None
        if self._cooldown_active(event):
            return None
        message = self.message_template.format(
            count=len(bucket), **{"session": event.session, **event.attrs}
        )
        return self._make_alert(event, message, tuple(bucket))


class SequenceRule(Rule):
    """Alarm when the named events occur in order within ``window`` seconds.

    The paper's generic shape: "we can define a rule for detecting RTP
    flow [event 1] after a session is torn down [event 2]".
    """

    state_attrs = Rule.state_attrs + ("_progress",)

    def __init__(
        self,
        rule_id: str,
        name: str,
        sequence: tuple[str, ...],
        window: float,
        severity: Severity = Severity.HIGH,
        attack_class: str = "generic",
        message: str | None = None,
        cooldown: float = 0.0,
    ) -> None:
        super().__init__(rule_id, name, severity, attack_class, cooldown)
        if len(sequence) < 2:
            raise ValueError("sequence rules need at least two steps")
        self.sequence = sequence
        self.trigger_events = frozenset(sequence)
        self.window = window
        self.message_template = message or f"{name}: sequence {' -> '.join(sequence)}"
        # Per session: (next step index, matched events so far).
        self._progress: dict[str, tuple[int, list[Event]]] = {}

    def reset(self) -> None:
        super().reset()
        self._progress.clear()

    def on_event(self, event: Event, ctx: RuleContext) -> Alert | None:
        progress = _touch_lru(self._progress, event.session, MAX_RULE_GROUPS)
        step, matched = progress if progress is not None else (0, [])
        if matched and event.time - matched[0].time > self.window:
            step, matched = 0, []
        if event.name != self.sequence[step]:
            # A fresh start is still possible if this event begins the sequence.
            if event.name == self.sequence[0]:
                self._progress[event.session] = (1, [event])
            return None
        matched = matched + [event]
        step += 1
        if step < len(self.sequence):
            self._progress[event.session] = (step, matched)
            return None
        self._progress.pop(event.session, None)
        message = self.message_template.format(**{"session": event.session, **event.attrs})
        return self._make_alert(event, message, tuple(matched))


class ConjunctionRule(Rule):
    """Alarm when *all* named events are seen for a session within a window.

    Order-insensitive — the billing-fraud rule's three facets can land in
    any order depending on network timing.
    """

    state_attrs = Rule.state_attrs + ("_seen",)

    def __init__(
        self,
        rule_id: str,
        name: str,
        required: tuple[str, ...],
        window: float,
        severity: Severity = Severity.CRITICAL,
        attack_class: str = "toll-fraud",
        correlate: Callable[[Event], str] | None = None,
        message: str | None = None,
        cooldown: float = 10.0,
    ) -> None:
        super().__init__(rule_id, name, severity, attack_class, cooldown)
        if len(required) < 2:
            raise ValueError("conjunction rules need at least two event kinds")
        self.required = frozenset(required)
        self._required_count = len(self.required)
        self.trigger_events = self.required
        self.window = window
        self.correlate = correlate if correlate is not None else (lambda e: e.session)
        self.message_template = message or f"{name}: all of {sorted(required)} observed"
        self.max_groups = MAX_RULE_GROUPS
        self._seen: dict[str, dict[str, Event]] = {}

    def reset(self) -> None:
        super().reset()
        self._seen.clear()

    def on_event(self, event: Event, ctx: RuleContext) -> Alert | None:
        if event.name not in self.required:
            return None
        group = self.correlate(event)
        seen = _touch_lru(self._seen, group, self.max_groups)
        if seen is None:
            seen = {}
            self._seen[group] = seen
        seen[event.name] = event
        # Keys are always a subset of ``required`` (guarded above), so a
        # length check is a complete-conjunction check.  Stale members
        # only matter at that moment, so aging is deferred until then —
        # off the per-event path an event flood exercises.
        if len(seen) < self._required_count:
            return None
        horizon = event.time - self.window
        stale = [name for name, e in seen.items() if e.time < horizon]
        if stale:
            for name in stale:
                del seen[name]
            return None
        evidence = tuple(sorted(seen.values(), key=lambda e: e.time))
        self._seen.pop(group, None)
        message = self.message_template.format(**{"session": event.session, **event.attrs})
        alert = self._make_alert(event, message, evidence)
        return alert


class EventHistory:
    """Bounded record of recent events, queryable by rules and benches."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.events: deque[Event] = deque(maxlen=max_events)
        self.counts: dict[str, int] = defaultdict(int)

    def record(self, event: Event) -> None:
        self.events.append(event)
        self.counts[event.name] += 1

    def recent(self, name: str, since: float) -> list[Event]:
        return [e for e in self.events if e.name == name and e.time >= since]

    def __len__(self) -> int:
        return len(self.events)


class RuleSet:
    """All active rules plus the dispatch loop.

    With ``indexed=True`` (the default) the set maintains a
    trigger-event → rules index built from each rule's declared
    ``trigger_events``: an event only visits the rules that could fire
    on its name, plus any wildcard rules (``trigger_events is None``).
    ``indexed=False`` restores the broadcast behaviour — every event
    visits every rule — which the equivalence suite and the dispatch
    benchmark use as the reference implementation.
    """

    def __init__(self, rules: list[Rule] | None = None, indexed: bool = True) -> None:
        self.rules: list[Rule] = list(rules) if rules else []
        self.history = EventHistory()
        self.indexed = indexed
        # The rule pack this set was compiled from (repro.rulespec), or
        # None for a hand-built set.
        self.pack = None
        # Rule evaluations avoided by the index (benchmark reporting).
        self.dispatch_skipped = 0
        self._index: dict[str, tuple[Rule, ...]] = {}
        self._wildcard: tuple[Rule, ...] = ()
        # Enabled rules only, in self.rules order — what broadcast
        # dispatch iterates and what dispatch_skipped counts against.
        self._active: tuple[Rule, ...] = ()
        # The (identity, length) the index was built from; add/remove and
        # direct list manipulation both change one of them.
        self._index_rules: list[Rule] | None = None
        self._index_len = -1
        # RuleContext is immutable per (trails, history) pair; rebuilding
        # it per event shows up in the dispatch benchmark.
        self._ctx: RuleContext | None = None
        # Exception firewall (repro.resilience.firewall), wired by the
        # engine.  None = a throwing rule propagates (standalone use).
        self.firewall = None
        # Sampled per-rule cost accounting: every Nth match() call times
        # each candidate rule's on_event and scales the reading back up,
        # so attribution stays live at a bounded (~1/N) overhead.  0 (the
        # default) disables it — the hot path then pays one int test.
        self.cost_sample_rate = 0
        self._cost_tick = 0

    def add(self, rule: Rule) -> None:
        if any(r.rule_id == rule.rule_id for r in self.rules):
            raise ValueError(f"duplicate rule id: {rule.rule_id}")
        self.rules.append(rule)

    def remove(self, rule_id: str) -> None:
        self.rules = [r for r in self.rules if r.rule_id != rule_id]

    def get(self, rule_id: str) -> Rule | None:
        for rule in self.rules:
            if rule.rule_id == rule_id:
                return rule
        return None

    def set_enabled(self, rule_id: str, enabled: bool) -> Rule:
        """Toggle a rule in or out of dispatch (ops control).

        Flipping ``enabled`` mutates the rule in place, which the lazy
        (identity, length) staleness check cannot see — so this forces
        the index rebuild that actually applies the change.
        """
        rule = self.get(rule_id)
        if rule is None:
            raise KeyError(f"no such rule: {rule_id}")
        rule.enabled = enabled
        self._index_rules = None
        return rule

    def set_mode(self, rule_id: str, mode: str) -> Rule:
        """Switch a rule between enforce / shadow / suppress."""
        if mode not in ("enforce", "shadow", "suppress"):
            raise ValueError(f"unknown rule mode: {mode!r}")
        rule = self.get(rule_id)
        if rule is None:
            raise KeyError(f"no such rule: {rule_id}")
        rule.mode = mode
        return rule

    def rebuild_index(self) -> None:
        """Recompute the trigger-event → rules index.

        Called lazily whenever the rule list changed shape; call it
        explicitly after mutating a rule's ``trigger_events`` or
        ``enabled`` flag in place (:meth:`set_enabled` does).  Disabled
        rules are excluded here — at index-build time — so the per-event
        hot path never tests the flag.  Candidate lists preserve
        ``self.rules`` order so alert ordering is identical to broadcast
        dispatch.
        """
        active = tuple(r for r in self.rules if r.enabled)
        self._active = active
        names: set[str] = set()
        for rule in active:
            if rule.trigger_events is not None:
                names.update(rule.trigger_events)
        self._wildcard = tuple(r for r in active if r.trigger_events is None)
        self._index = {
            name: tuple(
                r for r in active
                if r.trigger_events is None or name in r.trigger_events
            )
            for name in names
        }
        self._index_rules = self.rules
        self._index_len = len(self.rules)

    def candidates_for(self, event_name: str) -> tuple[Rule, ...]:
        """The rules an event with this name would visit under indexing."""
        if self._index_rules is not self.rules or self._index_len != len(self.rules):
            self.rebuild_index()
        return self._index.get(event_name, self._wildcard)

    def match(self, event: Event, trails: TrailManager, log: AlertLog) -> list[Alert]:
        """Run one event through the candidate rules; emit and return alerts."""
        # EventHistory.record, inlined: this runs once per event.
        history = self.history
        history.events.append(event)
        history.counts[event.name] += 1
        ctx = self._ctx
        if ctx is None or ctx.trails is not trails or ctx.history is not self.history:
            ctx = self._ctx = RuleContext(trails=trails, history=self.history)
        # Both dispatch modes draw candidates from the rebuilt view so
        # disabled rules drop out everywhere at the same instant.
        if self._index_rules is not self.rules or self._index_len != len(self.rules):
            self.rebuild_index()
        if self.indexed:
            # Inlined candidates_for(): one dict probe per event once the
            # index is built.
            candidates = self._index.get(event.name, self._wildcard)
            self.dispatch_skipped += len(self._active) - len(candidates)
        else:
            candidates = self._active
        rate = self.cost_sample_rate
        timed = False
        if rate:
            tick = self._cost_tick + 1
            if tick >= rate:
                self._cost_tick = 0
                timed = True
                perf = _time.perf_counter
                scale = float(rate)
            else:
                self._cost_tick = tick
        alerts: list[Alert] = []
        for rule in candidates:
            rule.matches_attempted += 1
            try:
                if timed:
                    t0 = perf()
                    alert = rule.on_event(event, ctx)
                    rule.cost_seconds += (perf() - t0) * scale
                    rule.cost_samples += 1
                else:
                    alert = rule.on_event(event, ctx)
            except Exception as exc:
                # A throwing rule must not abort the frame path (nor
                # starve the later candidates).  The firewall counts it;
                # when its breaker trips, the rule leaves the set — the
                # next match() rebuilds the index without it.
                firewall = self.firewall
                if firewall is None:
                    raise
                if firewall.record_error("rule", rule.rule_id, exc, event.time):
                    self.remove(rule.rule_id)
                continue
            if alert is not None:
                # Ops modes resolve here, after the rule fully evaluated
                # (state, cooldowns and alerts_raised all advanced), so
                # flipping a rule to shadow and back never desynchronises
                # its detection state from an enforcing twin.
                mode = rule.mode
                if mode == "enforce":
                    log.emit(alert)
                    alerts.append(alert)
                elif mode == "shadow":
                    rule.shadow_matches += 1
                else:  # "suppress"
                    rule.suppressed_alerts += 1
        return alerts

    def reset(self) -> None:
        """Forget everything match-state: every rule's cooldowns,
        counters and group/LRU tables (threshold buckets, sequence
        progress, conjunction members), the event history, and the
        cached context/index.  The index invalidation matters for
        pack-compiled rules: ``enabled`` flips mutate rules in place,
        which the lazy (identity, length) staleness check cannot see, so
        a reset must force the rebuild rather than trust it."""
        for rule in self.rules:
            rule.reset()
        self.history = EventHistory()
        self.dispatch_skipped = 0
        self._cost_tick = 0
        self._ctx = None  # held a reference to the replaced history
        self._index_rules = None

    def rule_stats(self) -> list[dict[str, object]]:
        """Per-rule match/alert counters (the ``repro stats`` table)."""
        return [
            {
                "rule_id": rule.rule_id,
                "name": rule.name,
                "attack_class": rule.attack_class,
                "matches_attempted": rule.matches_attempted,
                "alerts_raised": rule.alerts_raised,
                "cost_seconds": rule.cost_seconds,
                "cost_samples": rule.cost_samples,
                "enabled": rule.enabled,
                "mode": rule.mode,
                "shadow_matches": rule.shadow_matches,
                "suppressed_alerts": rule.suppressed_alerts,
                "pack_version": rule.pack_version,
                "source_location": rule.source_location,
            }
            for rule in self.rules
        ]

    def top_cost(self, k: int = 10) -> list[dict[str, object]]:
        """The ``k`` most expensive rules by estimated total wall time.

        Only meaningful when ``cost_sample_rate`` is active; rules that
        were never timed report zero and sort last (and are dropped when
        anything non-zero exists, so the view shows real spenders only).
        """
        ranked = sorted(self.rules, key=lambda r: r.cost_seconds, reverse=True)
        spenders = [r for r in ranked if r.cost_seconds > 0.0] or ranked
        return [
            {
                "rule_id": rule.rule_id,
                "name": rule.name,
                "cost_seconds": rule.cost_seconds,
                "cost_samples": rule.cost_samples,
                "matches_attempted": rule.matches_attempted,
                "cost_per_match": (
                    rule.cost_seconds / rule.matches_attempted
                    if rule.matches_attempted
                    else 0.0
                ),
            }
            for rule in spenders[:k]
        ]

    def __len__(self) -> int:
        return len(self.rules)
