"""Parsing and linting for ``*.rules`` pack files.

The format is a deliberately small INI dialect — line-oriented so every
diagnostic can point at the exact source line, which is the whole value
of ``repro rules check`` over a generic TOML loader's "invalid value"::

    [pack]
    name = scidive-core
    version = 1.0.0

    [rule DOS-001]
    type = threshold
    event = RepeatedUnauthRegister
    threshold = 5
    window = 10.0
    group_by = attr:source

Grammar, informally:

* ``[pack]`` — exactly one; ``name`` and semver ``version`` required;
  optional ``extra_events`` whitelists event names beyond the built-in
  generators' vocabulary.
* ``[rule RULE-ID]`` — one per rule; ``type`` picks the shape
  (``single`` | ``threshold`` | ``sequence`` | ``watch`` |
  ``conjunction``) and decides which other keys are legal.
* ``key = value`` — first ``=`` splits, so messages and ``where``
  clauses may contain ``=`` freely.  ``#``-prefixed lines are comments.
* ``where`` may repeat; all clauses AND together.  Every other repeated
  key is an error.

``parse_pack`` returns ``(pack_or_None, issues)`` — the pack is only
built when no error-severity issue was found, but linting always scans
the whole file so one typo does not mask the next.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.rulespec.model import (
    MODES,
    SEVERITIES,
    SHAPES,
    RuleDef,
    RulePack,
    is_semver,
)

_SECTION_RE = re.compile(r"^\[\s*(pack|rule)\s*([^\]]*)\]\s*$")
_RULE_ID_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.:-]*$")
_KEY_SPEC_RE = re.compile(r"^(session|attr:[A-Za-z_][A-Za-z0-9_]*|const:\S+|builtin:[A-Za-z_][A-Za-z0-9_]*)$")
WHERE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(==|!=|>=|<=|>|<)\s*(.+)$")

# Keys legal in any [rule] section, regardless of shape.
_COMMON_KEYS = frozenset(
    {"type", "name", "severity", "class", "message", "cooldown", "enabled", "mode"}
)
_SHAPE_KEYS = {
    "single": frozenset({"event", "where"}),
    "threshold": frozenset({"event", "threshold", "window", "group_by", "where"}),
    "sequence": frozenset({"sequence", "window"}),
    "watch": frozenset({"arm", "fire", "window"}),
    "conjunction": frozenset({"events", "window", "correlate"}),
}
_PACK_KEYS = frozenset({"name", "version", "extra_events"})


@dataclass(frozen=True, slots=True)
class LintIssue:
    """One diagnostic, anchored to a 1-based source line."""

    line: int
    code: str
    message: str
    severity: str = "error"
    path: str = field(default="", compare=False)

    def __str__(self) -> str:
        where = f"{self.path or '<string>'}:{self.line}"
        return f"{where}: {self.severity}: {self.message} [{self.code}]"


class RulePackError(ValueError):
    """A pack failed to parse or validate; carries the full issue list."""

    def __init__(self, issues: list[LintIssue]) -> None:
        self.issues = issues
        super().__init__("\n".join(str(issue) for issue in issues))


def known_event_names() -> frozenset[str]:
    """Every event name the built-in generators can produce — the
    vocabulary ``event =`` / ``events =`` values are checked against."""
    import repro.core.events as _events
    import repro.core.h323_generators as _h323

    names = {
        value
        for key, value in vars(_events).items()
        if key.startswith("EVENT_") and isinstance(value, str)
    }
    names.update(
        value
        for key, value in vars(_h323).items()
        if key.startswith("EVENT_") and isinstance(value, str)
    )
    return frozenset(names)


class _Section:
    __slots__ = ("kind", "ident", "line", "entries")

    def __init__(self, kind: str, ident: str, line: int) -> None:
        self.kind = kind
        self.ident = ident
        self.line = line
        # key -> list of (value, line); only ``where`` may legally repeat.
        self.entries: dict[str, list[tuple[str, int]]] = {}


def _split_sections(text: str, issues: list[LintIssue]) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            header = _SECTION_RE.match(line)
            if header is None:
                issues.append(LintIssue(
                    lineno, "bad-section",
                    f"malformed section header {line!r} "
                    "(expected [pack] or [rule RULE-ID])",
                ))
                current = None
                continue
            kind, ident = header.group(1), header.group(2).strip()
            if kind == "pack" and ident:
                issues.append(LintIssue(
                    lineno, "bad-section", "[pack] takes no identifier"))
            if kind == "rule":
                if not ident:
                    issues.append(LintIssue(
                        lineno, "bad-section", "[rule] needs a rule id"))
                elif not _RULE_ID_RE.match(ident):
                    issues.append(LintIssue(
                        lineno, "bad-rule-id", f"invalid rule id {ident!r}"))
            current = _Section(kind, ident, lineno)
            sections.append(current)
            continue
        if "=" not in line:
            issues.append(LintIssue(
                lineno, "bad-line",
                f"expected 'key = value', got {line!r}"))
            continue
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if current is None:
            issues.append(LintIssue(
                lineno, "orphan-key",
                f"{key!r} appears before any section header"))
            continue
        entries = current.entries.setdefault(key, [])
        if entries and key != "where":
            issues.append(LintIssue(
                lineno, "duplicate-key",
                f"duplicate key {key!r} (first set on line {entries[0][1]})"))
            continue
        entries.append((value, lineno))
    return sections


def _get(section: _Section, key: str) -> tuple[str, int] | None:
    entries = section.entries.get(key)
    return entries[0] if entries else None


def _number(
    section: _Section, key: str, issues: list[LintIssue], *, kind: str = "float"
):
    entry = _get(section, key)
    if entry is None:
        return None
    value, lineno = entry
    try:
        return int(value) if kind == "int" else float(value)
    except ValueError:
        issues.append(LintIssue(
            lineno, "bad-value", f"{key} must be a number, got {value!r}"))
        return None


def _bool(section: _Section, key: str, issues: list[LintIssue], default: bool) -> bool:
    entry = _get(section, key)
    if entry is None:
        return default
    value, lineno = entry
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    issues.append(LintIssue(
        lineno, "bad-value", f"{key} must be true or false, got {value!r}"))
    return default


def _names_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _check_event(
    name: str, lineno: int, known: frozenset[str], issues: list[LintIssue],
    *, code: str = "unknown-event", what: str = "event type",
) -> None:
    if name not in known:
        hint = ""
        close = [k for k in known if k.lower() == name.lower()]
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        issues.append(LintIssue(
            lineno, code, f"unknown {what} {name!r}{hint}"))


def _check_key_spec(
    section: _Section, key: str, issues: list[LintIssue]
) -> str | None:
    entry = _get(section, key)
    if entry is None:
        return None
    value, lineno = entry
    if not _KEY_SPEC_RE.match(value):
        issues.append(LintIssue(
            lineno, "bad-key-spec",
            f"{key} must be session, attr:NAME, const:VALUE or builtin:NAME; "
            f"got {value!r}"))
        return None
    if value.startswith("builtin:"):
        from repro.rulespec.compiler import BUILTIN_GROUP_KEYS

        builtin = value.split(":", 1)[1]
        if builtin not in BUILTIN_GROUP_KEYS:
            issues.append(LintIssue(
                lineno, "unknown-builtin",
                f"unknown builtin group key {builtin!r} "
                f"(have: {', '.join(sorted(BUILTIN_GROUP_KEYS))})"))
            return None
    return value


def _parse_rule(
    section: _Section, known: frozenset[str], issues: list[LintIssue]
) -> RuleDef | None:
    before = len(issues)
    type_entry = _get(section, "type")
    if type_entry is None:
        issues.append(LintIssue(
            section.line, "missing-key",
            f"rule {section.ident} has no 'type ='"))
        return None
    shape, type_line = type_entry[0].lower(), type_entry[1]
    if shape not in SHAPES:
        issues.append(LintIssue(
            type_line, "unknown-type",
            f"unknown rule type {type_entry[0]!r} "
            f"(expected one of: {', '.join(SHAPES)})"))
        return None
    allowed = _COMMON_KEYS | _SHAPE_KEYS[shape]
    for key, entries in section.entries.items():
        if key not in allowed:
            issues.append(LintIssue(
                entries[0][1], "unknown-key",
                f"key {key!r} is not valid for a {shape} rule"))

    severity_entry = _get(section, "severity")
    severity = ""
    if severity_entry is not None:
        severity = severity_entry[0].lower()
        if severity not in SEVERITIES:
            issues.append(LintIssue(
                severity_entry[1], "bad-severity",
                f"severity must be one of {', '.join(SEVERITIES)}; "
                f"got {severity_entry[0]!r}"))
    mode_entry = _get(section, "mode")
    mode = "enforce"
    if mode_entry is not None:
        mode = mode_entry[0].lower()
        if mode not in MODES:
            issues.append(LintIssue(
                mode_entry[1], "bad-mode",
                f"mode must be one of {', '.join(MODES)}; got {mode_entry[0]!r}"))

    cooldown = _number(section, "cooldown", issues)
    if cooldown is not None and cooldown < 0:
        issues.append(LintIssue(
            _get(section, "cooldown")[1], "bad-value", "cooldown must be >= 0"))
    enabled = _bool(section, "enabled", issues, default=True)

    window = _number(section, "window", issues)
    if window is not None and window <= 0:
        issues.append(LintIssue(
            _get(section, "window")[1], "bad-window",
            f"window must be > 0 seconds, got {window:g}"))
    if shape in ("threshold", "sequence", "watch", "conjunction") \
            and _get(section, "window") is None:
        issues.append(LintIssue(
            section.line, "missing-key",
            f"{shape} rule {section.ident} needs 'window ='"))

    event: str | None = None
    events: tuple[str, ...] = ()
    threshold = None
    if shape in ("single", "threshold"):
        entry = _get(section, "event")
        if entry is None:
            issues.append(LintIssue(
                section.line, "missing-key",
                f"{shape} rule {section.ident} needs 'event ='"))
        else:
            event = entry[0]
            _check_event(event, entry[1], known, issues)
    if shape == "threshold":
        threshold = _number(section, "threshold", issues, kind="int")
        if threshold is None and _get(section, "threshold") is None:
            issues.append(LintIssue(
                section.line, "missing-key",
                f"threshold rule {section.ident} needs 'threshold ='"))
        elif threshold is not None and threshold < 1:
            issues.append(LintIssue(
                _get(section, "threshold")[1], "bad-threshold",
                f"threshold must be >= 1, got {threshold}"))
    if shape == "sequence":
        entry = _get(section, "sequence")
        if entry is None:
            issues.append(LintIssue(
                section.line, "missing-key",
                f"sequence rule {section.ident} needs 'sequence = A -> B'"))
        else:
            events = tuple(
                step.strip() for step in entry[0].split("->") if step.strip()
            )
            if len(events) < 2:
                issues.append(LintIssue(
                    entry[1], "bad-sequence",
                    "sequence needs at least two '->'-separated steps"))
            for step in events:
                _check_event(step, entry[1], known, issues)
    if shape == "watch":
        arm, fire = _get(section, "arm"), _get(section, "fire")
        for label, entry in (("arm", arm), ("fire", fire)):
            if entry is None:
                issues.append(LintIssue(
                    section.line, "missing-key",
                    f"watch rule {section.ident} needs '{label} ='"))
            else:
                _check_event(entry[0], entry[1], known, issues)
        if arm is not None and fire is not None:
            events = (arm[0], fire[0])
    if shape == "conjunction":
        entry = _get(section, "events")
        if entry is None:
            issues.append(LintIssue(
                section.line, "missing-key",
                f"conjunction rule {section.ident} needs 'events = A, B, ...'"))
        else:
            events = _names_list(entry[0])
            if len(events) < 2:
                issues.append(LintIssue(
                    entry[1], "bad-conjunction",
                    "conjunction needs at least two comma-separated events"))
            for operand in events:
                _check_event(
                    operand, entry[1], known, issues,
                    code="unbound-operand", what="conjunction operand",
                )

    group_by = _check_key_spec(section, "group_by", issues)
    correlate = _check_key_spec(section, "correlate", issues)

    where: list[str] = []
    for clause, lineno in section.entries.get("where", ()):
        if WHERE_RE.match(clause) is None:
            issues.append(LintIssue(
                lineno, "bad-where",
                f"where clause must be 'ATTR OP VALUE' with OP one of "
                f"== != >= <= > <; got {clause!r}"))
        else:
            where.append(clause)

    if len(issues) > before:
        return None
    name_entry = _get(section, "name")
    message_entry = _get(section, "message")
    class_entry = _get(section, "class")
    return RuleDef(
        rule_id=section.ident,
        shape=shape,
        line=section.line,
        name=name_entry[0] if name_entry else "",
        severity=severity,
        attack_class=class_entry[0] if class_entry else "generic",
        message=message_entry[0] if message_entry else None,
        cooldown=cooldown,
        enabled=enabled,
        mode=mode,
        event=event,
        events=events,
        threshold=threshold,
        window=window,
        group_by=group_by,
        correlate=correlate,
        where=tuple(where),
    )


def parse_pack(
    text: str, source_path: str = "<string>"
) -> tuple[RulePack | None, list[LintIssue]]:
    """Parse pack text; return ``(pack, issues)``.

    ``pack`` is None whenever any error-severity issue was recorded;
    the issue list always covers the whole file.
    """
    issues: list[LintIssue] = []
    sections = _split_sections(text, issues)

    pack_sections = [s for s in sections if s.kind == "pack"]
    if not pack_sections:
        issues.append(LintIssue(
            1, "missing-pack", "no [pack] section (name and version required)"))
    for extra in pack_sections[1:]:
        issues.append(LintIssue(
            extra.line, "duplicate-pack", "more than one [pack] section"))

    pack_name, version = "", ""
    extra_events: tuple[str, ...] = ()
    if pack_sections:
        head = pack_sections[0]
        for key, entries in head.entries.items():
            if key not in _PACK_KEYS:
                issues.append(LintIssue(
                    entries[0][1], "unknown-key",
                    f"key {key!r} is not valid in [pack]"))
        name_entry = _get(head, "name")
        if name_entry is None:
            issues.append(LintIssue(
                head.line, "missing-key", "[pack] needs 'name ='"))
        else:
            pack_name = name_entry[0]
        version_entry = _get(head, "version")
        if version_entry is None:
            issues.append(LintIssue(
                head.line, "missing-key", "[pack] needs a semver 'version ='"))
        else:
            version = version_entry[0]
            if not is_semver(version):
                issues.append(LintIssue(
                    version_entry[1], "bad-version",
                    f"version must be semver (MAJOR.MINOR.PATCH), "
                    f"got {version!r}"))
        extra_entry = _get(head, "extra_events")
        if extra_entry is not None:
            extra_events = _names_list(extra_entry[0])

    known = known_event_names() | set(extra_events)
    rules: list[RuleDef] = []
    seen: dict[str, int] = {}
    for section in sections:
        if section.kind != "rule" or not section.ident:
            continue
        if section.ident in seen:
            issues.append(LintIssue(
                section.line, "duplicate-rule",
                f"duplicate rule id {section.ident!r} "
                f"(first defined on line {seen[section.ident]})"))
            continue
        seen[section.ident] = section.line
        rdef = _parse_rule(section, known, issues)
        if rdef is not None:
            rules.append(rdef)

    if not any(s.kind == "rule" for s in sections):
        issues.append(LintIssue(
            1, "empty-pack", "pack defines no [rule ...] sections",
            severity="warning"))

    if any(issue.severity == "error" for issue in issues):
        return None, issues
    pack = RulePack(
        name=pack_name,
        version=version,
        rules=tuple(rules),
        source_path=source_path,
        source_text=text,
        extra_events=extra_events,
    )
    return pack, issues


def lint_text(text: str, source_path: str = "<string>") -> list[LintIssue]:
    """All diagnostics for pack text, with ``path`` filled in."""
    _, issues = parse_pack(text, source_path)
    return [
        LintIssue(i.line, i.code, i.message, i.severity, source_path)
        for i in issues
    ]


def lint_path(path: str) -> list[LintIssue]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return [LintIssue(0, "unreadable", str(exc), path=str(path))]
    return lint_text(text, str(path))


def load_pack(path: str | Path, source_path: str | None = None) -> RulePack:
    """Read and parse one pack file; raise :class:`RulePackError` on any
    error-severity diagnostic.  ``source_path`` is the provenance the
    pack (and every rule compiled from it) reports; it defaults to
    ``path`` as given."""
    source_path = str(path) if source_path is None else source_path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise RulePackError([LintIssue(0, "unreadable", str(exc), path=source_path)])
    pack, issues = parse_pack(text, source_path)
    if pack is None:
        raise RulePackError([
            LintIssue(i.line, i.code, i.message, i.severity, source_path)
            for i in issues
            if i.severity == "error"
        ])
    return pack


# The paper's rules (Table 1 plus the §3 scenarios): the one definition
# every default engine, cluster worker, bench and experiment runs.
# CORE_PACK_PATH is where the file sits on this machine (for tools that
# take a path: ``repro rules check``, ``reload_rulepack``);
# CORE_PACK_SOURCE is the package-relative name the pack reports as its
# provenance, so alerts and evidence bundles embed no checkout path.
CORE_PACK_SOURCE = "repro/rulespec/packs/scidive-core.rules"
CORE_PACK_PATH = Path(__file__).resolve().parent / "packs" / "scidive-core.rules"


@functools.cache
def core_pack() -> RulePack:
    """The shipped pack, read and parsed once per process.  Packs are
    immutable, so every caller shares the one object; compiling it
    (:func:`~repro.rulespec.compiler.compile_pack`) builds fresh,
    unshared rules each time."""
    return load_pack(CORE_PACK_PATH, source_path=CORE_PACK_SOURCE)
