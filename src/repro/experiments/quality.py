"""Detection-quality evaluation against workload ground truth (§4.3).

Takes a labeled trace from :mod:`repro.workload` and scores one or more
detection systems — the stateful SCIDIVE engine, the session-sharded
:class:`~repro.cluster.ScidiveCluster`, and the stateless Snort-like
baseline — against what actually happened:

* **detection** — an attack counts as detected when one of its
  *expected* rules fires between injection and the label's deadline;
* **attribution** — any alert whose rule is in the label's *accept*
  set inside that window belongs to the attack (session-lenient: the
  malformed-RTP trail links to no SIP session, so its alerts carry an
  empty session id);
* **false alarm** — every alert attributed to no attack.

The report mirrors the paper's Section 4.3 framing: per-attack missed
and false-alarm rates, precision/recall, detection-delay quantiles, and
a threshold sweep (ROC-style operating curve) for the rate-style rules
— where the stateless baseline's "multiple 4XX responses" strawman
visibly trades recall against drowning in benign auth churn.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.baseline.snortlike import FourXXFloodRule, SnortLikeIds, default_packet_rules
from repro.core.alerts import Alert
from repro.core.engine import ScidiveEngine
from repro.core.rules_library import (
    RULE_REGISTER_DOS,
    RULE_RTP_MALFORMED,
    TABLE1_RULES,
)
from repro.core.rules import RuleSet
from repro.rulespec import compile_pack, core_pack
from repro.sim.trace import Trace
from repro.workload.labels import (
    ATTACK_BYE,
    ATTACK_REGISTER_DOS,
    ATTACK_REGISTER_FLOOD,
    ATTACK_RTP,
    ATTACK_RTP_FLOOD,
    GroundTruth,
    SessionLabel,
)

SYSTEM_ENGINE = "engine"
SYSTEM_CLUSTER = "cluster"
SYSTEM_BASELINE = "baseline"
DEFAULT_SYSTEMS: tuple[str, ...] = (SYSTEM_ENGINE, SYSTEM_CLUSTER, SYSTEM_BASELINE)

# What counts as the stateless baseline "detecting" each attack kind.
# Hijack and fake-IM have no entry: a per-packet IDS has no signature
# for them at all (the paper's core argument).
BASELINE_ACCEPT: dict[str, tuple[str, ...]] = {
    ATTACK_BYE: ("SNORT-BYE",),
    ATTACK_RTP: ("SNORT-MALFORMED", "SNORT-RTP-PT"),
    ATTACK_REGISTER_DOS: ("SNORT-4XX",),
    # Pressure labels (see repro.workload.labels): nothing expected, but
    # volumetric floods may legitimately trip the baseline's counters —
    # soak those alerts so they don't land in the false-alarm column.
    ATTACK_REGISTER_FLOOD: ("SNORT-4XX",),
    ATTACK_RTP_FLOOD: ("SNORT-MALFORMED", "SNORT-RTP-PT"),
}


def _quantile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


@dataclass(slots=True)
class AttackOutcome:
    """How one system fared against one attack label."""

    label: SessionLabel
    detected: bool
    detecting_rule: str = ""
    delay: float | None = None
    attributed_alerts: int = 0

    def as_dict(self) -> dict:
        return {
            "label_id": self.label.label_id,
            "kind": self.label.kind,
            "session": self.label.session,
            "detected": self.detected,
            "detecting_rule": self.detecting_rule,
            "delay": self.delay,
            "attributed_alerts": self.attributed_alerts,
        }


@dataclass(slots=True)
class KindQuality:
    """Per-attack-kind aggregate."""

    kind: str
    attacks: int = 0
    detected: int = 0
    delays: list[float] = field(default_factory=list)

    @property
    def missed(self) -> int:
        return self.attacks - self.detected

    @property
    def missed_rate(self) -> float:
        return self.missed / self.attacks if self.attacks else 0.0

    def as_dict(self) -> dict:
        return {
            "attacks": self.attacks,
            "detected": self.detected,
            "missed": self.missed,
            "missed_rate": self.missed_rate,
            "delay_p50": _quantile(self.delays, 0.50),
            "delay_p90": _quantile(self.delays, 0.90),
            "delay_max": max(self.delays) if self.delays else None,
        }


@dataclass(slots=True)
class SystemQuality:
    """One system's §4.3 scorecard on one labeled trace."""

    system: str
    outcomes: list[AttackOutcome] = field(default_factory=list)
    false_alarms: list[Alert] = field(default_factory=list)
    total_alerts: int = 0
    benign_sessions: int = 0
    runtime_seconds: float = 0.0

    @property
    def attacks(self) -> int:
        return len(self.outcomes)

    @property
    def detected(self) -> int:
        return sum(1 for o in self.outcomes if o.detected)

    @property
    def missed(self) -> int:
        return self.attacks - self.detected

    @property
    def recall(self) -> float:
        return self.detected / self.attacks if self.attacks else 1.0

    @property
    def precision(self) -> float:
        attributed = sum(o.attributed_alerts for o in self.outcomes)
        total = attributed + len(self.false_alarms)
        return attributed / total if total else 1.0

    @property
    def false_alarm_rate(self) -> float:
        """False alarms per benign session — the paper's per-session P_f."""
        return (
            len(self.false_alarms) / self.benign_sessions
            if self.benign_sessions
            else 0.0
        )

    def per_kind(self) -> dict[str, KindQuality]:
        kinds: dict[str, KindQuality] = {}
        for outcome in self.outcomes:
            kq = kinds.setdefault(outcome.label.kind, KindQuality(outcome.label.kind))
            kq.attacks += 1
            if outcome.detected:
                kq.detected += 1
                if outcome.delay is not None:
                    kq.delays.append(outcome.delay)
        return kinds

    def delays(self) -> list[float]:
        return [o.delay for o in self.outcomes if o.delay is not None]

    def as_dict(self) -> dict:
        delays = self.delays()
        return {
            "system": self.system,
            "attacks": self.attacks,
            "detected": self.detected,
            "missed": self.missed,
            "recall": self.recall,
            "precision": self.precision,
            "false_alarms": len(self.false_alarms),
            "false_alarm_rate": self.false_alarm_rate,
            "benign_sessions": self.benign_sessions,
            "total_alerts": self.total_alerts,
            "runtime_seconds": self.runtime_seconds,
            "delay_p50": _quantile(delays, 0.50),
            "delay_p90": _quantile(delays, 0.90),
            "delay_max": max(delays) if delays else None,
            "per_kind": {k: v.as_dict() for k, v in sorted(self.per_kind().items())},
            "outcomes": [o.as_dict() for o in self.outcomes],
        }


# -- attribution ------------------------------------------------------------


def _session_matches(alert_session: str, label_session: str) -> bool:
    # Malformed-RTP trails link to no SIP session, so RTP-003 alerts
    # (and every baseline alert) carry "" — match on window alone then.
    return (
        not alert_session or not label_session or alert_session == label_session
    )


def _in_window(alert: Alert, label: SessionLabel) -> bool:
    assert label.injection_time is not None and label.deadline is not None
    return label.injection_time <= alert.time <= label.deadline


def evaluate_alerts(
    system: str,
    alerts: list[Alert],
    truth: GroundTruth,
    accept_map: dict[str, tuple[str, ...]] | None = None,
    runtime_seconds: float = 0.0,
) -> SystemQuality:
    """Attribute ``alerts`` against ``truth`` and build the scorecard.

    ``accept_map`` overrides the labels' own rule contract (used for the
    baseline, whose rule ids the generator does not know about); when
    given, the *expected* set equals the accept set.
    """
    quality = SystemQuality(
        system=system,
        total_alerts=len(alerts),
        benign_sessions=len(truth.benign()),
        runtime_seconds=runtime_seconds,
    )
    attacks = truth.attacks()
    contracts: list[tuple[SessionLabel, tuple[str, ...], tuple[str, ...]]] = []
    for label in attacks:
        if accept_map is not None:
            accept = accept_map.get(label.kind, ())
            contracts.append((label, accept, accept))
        else:
            contracts.append((label, label.expected_rules, label.accept_rules))
    # Pressure labels (empty expected set — the flood kinds) attribute
    # *last*: a paper attack injected during a flood window must keep its
    # own alerts even though the flood's wide window would also match.
    contracts.sort(key=lambda contract: not contract[1])

    attributed: dict[int, list[Alert]] = {label.label_id: [] for label in attacks}
    for alert in alerts:
        owner = None
        for label, _expected, accept in contracts:
            if (
                alert.rule_id in accept
                and _in_window(alert, label)
                and _session_matches(alert.session, label.session)
            ):
                owner = label
                break
        if owner is None:
            quality.false_alarms.append(alert)
        else:
            attributed[owner.label_id].append(alert)

    for label, expected, _accept in contracts:
        if not expected:
            # Pressure label: no rule is contractually required to fire
            # on raw volume, so it is soaked above but never scored as a
            # detection (it would dilute recall with guaranteed misses).
            continue
        mine = attributed[label.label_id]
        hits = [a for a in mine if a.rule_id in expected]
        if hits:
            first = min(hits, key=lambda a: a.time)
            assert label.injection_time is not None
            quality.outcomes.append(
                AttackOutcome(
                    label=label,
                    detected=True,
                    detecting_rule=first.rule_id,
                    delay=first.time - label.injection_time,
                    attributed_alerts=len(mine),
                )
            )
        else:
            quality.outcomes.append(
                AttackOutcome(
                    label=label, detected=False, attributed_alerts=len(mine)
                )
            )
    return quality


# -- system runners ---------------------------------------------------------


def run_engine_alerts(trace: Trace) -> tuple[list[Alert], float]:
    engine = ScidiveEngine(vantage_ip=None)
    start = time.perf_counter()
    engine.process_trace(trace)
    return list(engine.alerts), time.perf_counter() - start


def run_cluster_alerts(
    trace: Trace,
    workers: int = 4,
    backend: str = "threads",
    overload: bool = False,
) -> tuple[list[Alert], float]:
    from repro.cluster import ScidiveCluster

    cluster = ScidiveCluster(
        workers=workers,
        backend=backend,
        vantage_ip=None,
        overload_enabled=overload,
    )
    start = time.perf_counter()
    result = cluster.process_trace(trace)
    return list(result.alerts), time.perf_counter() - start


def run_baseline_alerts(trace: Trace) -> tuple[list[Alert], float]:
    ids = SnortLikeIds(rules=default_packet_rules())
    start = time.perf_counter()
    ids.process_trace(trace)
    return list(ids.alerts), time.perf_counter() - start


# -- threshold sweeps (ROC-style operating curves) --------------------------


@dataclass(slots=True)
class SweepPoint:
    threshold: int
    detected: int
    attacks: int
    false_alarms: int
    false_alarm_rate: float

    @property
    def recall(self) -> float:
        return self.detected / self.attacks if self.attacks else 1.0

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "detected": self.detected,
            "attacks": self.attacks,
            "recall": self.recall,
            "false_alarms": self.false_alarms,
            "false_alarm_rate": self.false_alarm_rate,
        }


@dataclass(slots=True)
class SweepCurve:
    system: str
    rule_id: str
    attack_kind: str
    points: list[SweepPoint] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "system": self.system,
            "rule_id": self.rule_id,
            "attack_kind": self.attack_kind,
            "points": [p.as_dict() for p in self.points],
        }


def _engine_ruleset(rtp_threshold: int = 3, dos_threshold: int = 5) -> RuleSet:
    """Table 1's rules plus the REGISTER-DoS rule, at swept thresholds."""
    pack = core_pack().derive(
        keep=TABLE1_RULES + (RULE_REGISTER_DOS,),
        overrides={
            RULE_RTP_MALFORMED: {"threshold": rtp_threshold},
            RULE_REGISTER_DOS: {"threshold": dos_threshold},
        },
    )
    return compile_pack(pack)


def _sweep_engine_rule(
    trace: Trace,
    truth: GroundTruth,
    rule_id: str,
    attack_kind: str,
    thresholds: tuple[int, ...],
    build,
) -> SweepCurve:
    curve = SweepCurve(system=SYSTEM_ENGINE, rule_id=rule_id, attack_kind=attack_kind)
    labels = [label for label in truth.attacks() if label.kind == attack_kind]
    for threshold in thresholds:
        engine = ScidiveEngine(vantage_ip=None, ruleset=build(threshold))
        engine.process_trace(trace)
        alerts = [a for a in engine.alerts if a.rule_id == rule_id]
        detected = 0
        false_alarms = 0
        for alert in alerts:
            if any(
                _in_window(alert, label)
                and _session_matches(alert.session, label.session)
                for label in labels
            ):
                continue
            false_alarms += 1
        for label in labels:
            if any(
                _in_window(alert, label)
                and _session_matches(alert.session, label.session)
                for alert in alerts
            ):
                detected += 1
        benign = len(truth.benign())
        curve.points.append(
            SweepPoint(
                threshold=threshold,
                detected=detected,
                attacks=len(labels),
                false_alarms=false_alarms,
                false_alarm_rate=false_alarms / benign if benign else 0.0,
            )
        )
    return curve


def _sweep_baseline_4xx(
    trace: Trace, truth: GroundTruth, thresholds: tuple[int, ...]
) -> SweepCurve:
    curve = SweepCurve(
        system=SYSTEM_BASELINE, rule_id="SNORT-4XX", attack_kind=ATTACK_REGISTER_DOS
    )
    labels = [
        label for label in truth.attacks() if label.kind == ATTACK_REGISTER_DOS
    ]
    benign = len(truth.benign())
    for threshold in thresholds:
        rules = [
            FourXXFloodRule(threshold=threshold)
            if isinstance(rule, FourXXFloodRule)
            else rule
            for rule in default_packet_rules()
        ]
        ids = SnortLikeIds(rules=rules)
        ids.process_trace(trace)
        alerts = [a for a in ids.alerts if a.rule_id == "SNORT-4XX"]
        false_alarms = sum(
            1
            for alert in alerts
            if not any(_in_window(alert, label) for label in labels)
        )
        detected = sum(
            1
            for label in labels
            if any(_in_window(alert, label) for alert in alerts)
        )
        curve.points.append(
            SweepPoint(
                threshold=threshold,
                detected=detected,
                attacks=len(labels),
                false_alarms=false_alarms,
                false_alarm_rate=false_alarms / benign if benign else 0.0,
            )
        )
    return curve


def threshold_sweeps(trace: Trace, truth: GroundTruth) -> list[SweepCurve]:
    """Operating curves for the rate-style rules.

    The stateful engine's curves are flat at zero false alarms (its
    counters are scoped per source / per session), while the baseline's
    global 4XX counter trades recall against benign digest churn.
    """
    curves = [
        _sweep_engine_rule(
            trace, truth, RULE_RTP_MALFORMED, ATTACK_RTP, (1, 2, 3, 5),
            lambda t: _engine_ruleset(rtp_threshold=t),
        ),
        _sweep_baseline_4xx(trace, truth, (1, 2, 3, 5, 8)),
    ]
    if any(label.kind == ATTACK_REGISTER_DOS for label in truth.attacks()):
        curves.insert(
            1,
            _sweep_engine_rule(
                trace, truth, RULE_REGISTER_DOS, ATTACK_REGISTER_DOS, (2, 3, 5, 8),
                lambda t: _engine_ruleset(dos_threshold=t),
            ),
        )
    return curves


# -- top-level report -------------------------------------------------------


@dataclass(slots=True)
class QualityReport:
    """The full §4.3 detection-quality report for one labeled trace."""

    scenario: str
    seed: int
    frames: int
    duration: float
    attack_counts: dict[str, int]
    benign_sessions: int
    systems: dict[str, SystemQuality] = field(default_factory=dict)
    sweeps: list[SweepCurve] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "frames": self.frames,
            "duration": self.duration,
            "attack_counts": dict(sorted(self.attack_counts.items())),
            "benign_sessions": self.benign_sessions,
            "systems": {
                name: quality.as_dict()
                for name, quality in sorted(self.systems.items())
            },
            "sweeps": [curve.as_dict() for curve in self.sweeps],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def evaluate_workload(
    trace: Trace,
    truth: GroundTruth,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    workers: int = 4,
    cluster_backend: str = "threads",
    cluster_overload: bool = False,
    sweeps: bool = False,
) -> QualityReport:
    """Run the requested systems over a labeled trace and score each."""
    report = QualityReport(
        scenario=truth.scenario,
        seed=truth.seed,
        frames=len(trace),
        duration=trace.duration,
        attack_counts=truth.attack_counts(),
        benign_sessions=len(truth.benign()),
    )
    for system in systems:
        if system == SYSTEM_ENGINE:
            alerts, elapsed = run_engine_alerts(trace)
            report.systems[system] = evaluate_alerts(
                system, alerts, truth, runtime_seconds=elapsed
            )
        elif system == SYSTEM_CLUSTER:
            alerts, elapsed = run_cluster_alerts(
                trace,
                workers=workers,
                backend=cluster_backend,
                overload=cluster_overload,
            )
            report.systems[system] = evaluate_alerts(
                system, alerts, truth, runtime_seconds=elapsed
            )
        elif system == SYSTEM_BASELINE:
            alerts, elapsed = run_baseline_alerts(trace)
            report.systems[system] = evaluate_alerts(
                system,
                alerts,
                truth,
                accept_map=BASELINE_ACCEPT,
                runtime_seconds=elapsed,
            )
        else:
            raise ValueError(f"unknown system: {system}")
    if sweeps:
        report.sweeps = threshold_sweeps(trace, truth)
    return report


# -- rendering --------------------------------------------------------------


def format_quality_report(report: QualityReport) -> str:
    from repro.experiments.report import format_table

    lines: list[str] = []
    total_attacks = sum(report.attack_counts.values())
    lines.append(
        f"Workload {report.scenario!r} seed={report.seed}: "
        f"{report.frames} frames, {report.duration:.0f}s, "
        f"{report.benign_sessions} benign sessions, {total_attacks} attacks "
        f"({', '.join(f'{k}={v}' for k, v in sorted(report.attack_counts.items()))})"
    )
    rows = []
    for name, quality in sorted(report.systems.items()):
        delays = quality.delays()
        rows.append(
            [
                name,
                f"{quality.detected}/{quality.attacks}",
                quality.missed,
                len(quality.false_alarms),
                f"{quality.false_alarm_rate:.4f}",
                f"{quality.precision:.3f}",
                f"{quality.recall:.3f}",
                f"{_quantile(delays, 0.5):.3f}" if delays else "-",
                f"{_quantile(delays, 0.9):.3f}" if delays else "-",
                f"{quality.runtime_seconds:.2f}",
            ]
        )
    lines.append(
        format_table(
            [
                "system", "detected", "missed", "false-alarms", "fa-rate",
                "precision", "recall", "delay-p50", "delay-p90", "runtime-s",
            ],
            rows,
            title="Section 4.3 detection quality",
        )
    )
    for name, quality in sorted(report.systems.items()):
        kind_rows = [
            [
                kind,
                kq.attacks,
                kq.detected,
                kq.missed,
                f"{kq.missed_rate:.3f}",
                f"{_quantile(kq.delays, 0.5):.3f}" if kq.delays else "-",
            ]
            for kind, kq in sorted(quality.per_kind().items())
        ]
        lines.append(
            format_table(
                ["attack", "injected", "detected", "missed", "miss-rate", "delay-p50"],
                kind_rows,
                title=f"{name}: per-attack breakdown",
            )
        )
    for curve in report.sweeps:
        lines.append(
            format_table(
                ["threshold", "recall", "false-alarms", "fa-rate"],
                [
                    [
                        p.threshold,
                        f"{p.recall:.3f}",
                        p.false_alarms,
                        f"{p.false_alarm_rate:.4f}",
                    ]
                    for p in curve.points
                ],
                title=(
                    f"threshold sweep: {curve.system}/{curve.rule_id} "
                    f"vs {curve.attack_kind}"
                ),
            )
        )
    return "\n\n".join(lines)
