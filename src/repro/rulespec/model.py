"""The rule-pack data model: plain data, no behaviour borrowed from the engine.

Everything here is built from primitives (strings, numbers, tuples) so a
:class:`RulePack` can cross a process boundary — cluster workers receive
the pack over the control queue during a hot reload and compile it
locally, because compiled :class:`~repro.core.rules.Rule` objects hold
lambdas and cannot be pickled.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

# The rule shapes the DSL can express.  ``watch`` is the stateful
# arm/fire pair from the paper's "RTP flow after a session is torn
# down" phrasing; it lowers onto a two-step SequenceRule.
SHAPES = ("single", "threshold", "sequence", "watch", "conjunction")

MODES = ("enforce", "shadow", "suppress")

SEVERITIES = ("info", "low", "medium", "high", "critical")

_SEMVER_RE = re.compile(r"^\d+\.\d+\.\d+$")


def is_semver(version: str) -> bool:
    return bool(_SEMVER_RE.match(version))


@dataclass(frozen=True, slots=True)
class RuleDef:
    """One parsed ``[rule ...]`` section.

    ``line`` (the section header's source line) feeds diagnostics and
    the compiled rule's ``source_location``; it is excluded from
    equality so a pack and its reparsed canonical ``describe()`` form —
    whose sections land on different lines — still compare equal.
    """

    rule_id: str
    shape: str
    line: int = field(default=0, compare=False)
    name: str = ""
    severity: str = ""  # "" = the shape's default (see compiler)
    attack_class: str = "generic"
    message: str | None = None
    cooldown: float | None = None  # None = the shape's default
    enabled: bool = True
    mode: str = "enforce"
    # Shape-specific payload; unused fields stay at their defaults.
    event: str | None = None  # single / threshold
    events: tuple[str, ...] = ()  # sequence steps / conjunction operands
    threshold: int | None = None
    window: float | None = None
    group_by: str | None = None  # key spec: session | attr:N | const:V | builtin:N
    correlate: str | None = None  # conjunction key spec, same grammar
    where: tuple[str, ...] = ()  # predicate clauses, ANDed

    def describe_lines(self) -> list[str]:
        """This rule in canonical pack syntax (see RulePack.describe)."""
        lines = [f"[rule {self.rule_id}]", f"type = {self.shape}"]
        if self.name:
            lines.append(f"name = {self.name}")
        if self.severity:
            lines.append(f"severity = {self.severity}")
        if self.attack_class != "generic":
            lines.append(f"class = {self.attack_class}")
        if self.event is not None:
            lines.append(f"event = {self.event}")
        if self.events:
            if self.shape == "sequence":
                lines.append(f"sequence = {' -> '.join(self.events)}")
            elif self.shape == "watch":
                lines.append(f"arm = {self.events[0]}")
                lines.append(f"fire = {self.events[1]}")
            else:
                lines.append(f"events = {', '.join(self.events)}")
        if self.threshold is not None:
            lines.append(f"threshold = {self.threshold}")
        if self.window is not None:
            # repr, not :g — the canonical form must round-trip floats
            # losslessly or two different packs could share a label.
            lines.append(f"window = {self.window!r}")
        if self.group_by is not None:
            lines.append(f"group_by = {self.group_by}")
        if self.correlate is not None:
            lines.append(f"correlate = {self.correlate}")
        for clause in self.where:
            lines.append(f"where = {clause}")
        if self.cooldown is not None:
            lines.append(f"cooldown = {self.cooldown!r}")
        if not self.enabled:
            lines.append("enabled = false")
        if self.mode != "enforce":
            lines.append(f"mode = {self.mode}")
        if self.message is not None:
            lines.append(f"message = {self.message}")
        return lines


@dataclass(frozen=True, slots=True)
class RulePack:
    """A parsed, versioned collection of rule definitions.

    Identity is ``name@version+hash`` where the hash covers the
    *canonical* form (:meth:`describe`), so reformatting or reordering
    comments never changes a pack's identity, while any semantic edit
    does.  That label is what alerts, checkpoints and ``/healthz``
    carry; a pack is immutable, so it is derived once, at construction.
    """

    name: str
    version: str
    rules: tuple[RuleDef, ...]
    source_path: str = field(default="<string>", compare=False)
    source_text: str = field(default="", compare=False)
    # Event names the pack may reference beyond the built-in generators'
    # vocabulary (rules for custom event generators).
    extra_events: tuple[str, ...] = ()
    content_hash: str = field(init=False, compare=False, repr=False)
    label: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        digest = hashlib.sha256(self.describe().encode("utf-8")).hexdigest()[:12]
        object.__setattr__(self, "content_hash", digest)
        object.__setattr__(self, "label", f"{self.name}@{self.version}+{digest}")

    def rule(self, rule_id: str) -> RuleDef | None:
        for rdef in self.rules:
            if rdef.rule_id == rule_id:
                return rdef
        return None

    def derive(
        self,
        keep: Iterable[str] | None = None,
        overrides: Mapping[str, Mapping[str, object]] | None = None,
    ) -> "RulePack":
        """A new pack holding only the ``keep`` rule ids (in this pack's
        order; None keeps all) with per-rule field ``overrides`` applied
        (``{rule_id: {field: value}}``).  The result hashes its own
        canonical form, so a tuned or trimmed policy never shares a
        label with the pack it came from — and an untouched one does.
        Rules keep their source lines; the source text is dropped
        because it no longer says what the pack holds.  Unknown rule
        ids raise ``KeyError``."""
        wanted = None if keep is None else set(keep)
        overrides = overrides or {}
        unknown = set(wanted or ()).union(overrides).difference(
            rdef.rule_id for rdef in self.rules
        )
        if unknown:
            raise KeyError(f"no such rule in {self.label}: {sorted(unknown)}")
        rules = tuple(
            replace(rdef, **overrides[rdef.rule_id])
            if rdef.rule_id in overrides
            else rdef
            for rdef in self.rules
            if wanted is None or rdef.rule_id in wanted
        )
        return replace(self, rules=rules, source_text="")

    def describe(self) -> str:
        """The pack in canonical syntax: parsing this text yields an
        equal pack (modulo source lines/path), which the property suite
        round-trips through the compiler."""
        lines = ["[pack]", f"name = {self.name}", f"version = {self.version}"]
        if self.extra_events:
            lines.append(f"extra_events = {', '.join(self.extra_events)}")
        for rdef in self.rules:
            lines.append("")
            lines.extend(rdef.describe_lines())
        return "\n".join(lines) + "\n"

    def info(self) -> dict:
        """The JSON shape surfaced in /healthz, checkpoints and alerts."""
        return {
            "name": self.name,
            "version": self.version,
            "content_hash": self.content_hash,
            "label": self.label,
            "rules": len(self.rules),
            "source_path": self.source_path,
        }
