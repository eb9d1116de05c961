"""Alerts: what the rule matching engine raises."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.events import Event


class Severity(enum.IntEnum):
    INFO = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


@dataclass(frozen=True, slots=True)
class Alert:
    """One intrusion verdict."""

    rule_id: str
    rule_name: str
    time: float
    session: str
    severity: Severity
    attack_class: str  # "dos", "masquerading", "media", "toll-fraud", ...
    message: str
    events: tuple[Event, ...] = field(default=(), hash=False, compare=False)
    # Forensics attachments, set post-construction (object.__setattr__)
    # by the ForensicsRecorder's AlertLog subscription.  Excluded from
    # equality/hash like ``events``: the cluster's alert-multiset
    # equivalence must not depend on which worker numbered the alert.
    alert_id: str = field(default="", hash=False, compare=False)
    provenance: object | None = field(default=None, hash=False, compare=False)
    # Rule-pack provenance (repro.rulespec): the pack identity label and
    # the rule's file:line, stamped by pack-compiled rules.  Empty for
    # hand-built rules — and excluded from equality/hash, so alert
    # multisets compare detection outcomes across pack versions,
    # reloads and tuned packs, not which pack produced them.
    pack_version: str = field(default="", hash=False, compare=False)
    rule_source: str = field(default="", hash=False, compare=False)

    def __str__(self) -> str:
        return (
            f"[{self.time:9.4f}] ALERT {self.rule_id} ({self.severity.name}) "
            f"session={self.session or '-'}: {self.message}"
        )

    @property
    def detection_delay(self) -> float | None:
        """Sim-clock seconds from the earliest evidence frame to this
        alert — derived from provenance, None when no frames are known."""
        provenance = self.provenance
        if provenance is None:
            return None
        t0 = provenance.earliest_frame_time
        return self.time - t0 if t0 is not None else None

    def to_dict(self) -> dict:
        """The one JSON shape for alerts — shared by the JSONL export,
        ``repro stats --format json`` and the ``/alerts`` endpoint."""
        payload: dict = {
            "type": "alert",
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "time": round(self.time, 6),
            "session": self.session,
            "severity": self.severity.name,
            "attack_class": self.attack_class,
            "message": self.message,
            "events": [event.to_dict() for event in self.events],
        }
        if self.alert_id:
            payload["alert_id"] = self.alert_id
        if self.pack_version:
            payload["pack_version"] = self.pack_version
        if self.rule_source:
            payload["rule_source"] = self.rule_source
        if self.provenance is not None:
            payload["provenance"] = self.provenance.summary()
            delay = self.detection_delay
            if delay is not None:
                payload["detection_delay"] = round(delay, 6)
        return payload


class AlertLog:
    """Collects alerts; the default sink.

    ``subscribers`` are called with each alert as it is emitted —
    regardless of which path raised it (frame processing, injected
    events, cooperative correlation) — which is how the observability
    layer counts alerts without touching every call site.
    """

    def __init__(self) -> None:
        self.alerts: list[Alert] = []
        self.subscribers: list = []

    def emit(self, alert: Alert) -> None:
        self.alerts.append(alert)
        for subscriber in self.subscribers:
            subscriber(alert)

    def by_rule(self, rule_id: str) -> list[Alert]:
        return [a for a in self.alerts if a.rule_id == rule_id]

    def sessions(self) -> set[str]:
        return {a.session for a in self.alerts}

    def clear(self) -> None:
        self.alerts.clear()

    def __len__(self) -> int:
        return len(self.alerts)

    def __iter__(self):
        return iter(self.alerts)


from repro.fastpickle import install_fast_pickle

# Alerts (with their event/evidence graphs) are pickled by cluster
# workers on every report and by every state checkpoint.
install_fast_pickle(Alert)
