"""``repro.rulespec``: the declarative rule DSL.

SCIDIVE's detection policy — which event patterns constitute an
intrusion — is data, not code.  This package separates policy from
mechanism the way SecSip's VeTo language does for its SIP inspection
engine: rules ship as ``*.rules`` pack files, and the engine compiles
them into an indexed :class:`~repro.core.rules.RuleSet` of the rule
classes in :mod:`repro.core.rules`.

Three layers:

* :mod:`repro.rulespec.model` — :class:`RuleDef` (one parsed rule,
  primitives only) and :class:`RulePack` (a versioned, content-hashed
  collection with a canonical ``describe()`` form).
* :mod:`repro.rulespec.parser` — the line-oriented pack parser and
  linter; every diagnostic is anchored to a 1-based source line.
* :mod:`repro.rulespec.compiler` — ``compile_pack()`` lowers a pack
  onto the existing rule classes (``SingleEventRule``/``ThresholdRule``/
  ``SequenceRule``/``ConjunctionRule``), so trigger-event indexing,
  cooldowns, LRU group caps and checkpointing all keep working
  unchanged.

The paper's own rules are the pack shipped inside this package
(``packs/scidive-core.rules``).  :func:`core_pack` returns it, parsed
once per process, and it is what every engine runs unless told
otherwise; ``table1_ruleset`` and the quality sweeps are
:meth:`RulePack.derive` selections and re-tunings of it, and
:func:`compile_pack` always yields an indexed ``RuleSet``.
"""

from repro.rulespec.compiler import compile_pack, compile_rule
from repro.rulespec.model import RuleDef, RulePack
from repro.rulespec.parser import (
    CORE_PACK_PATH,
    CORE_PACK_SOURCE,
    LintIssue,
    RulePackError,
    core_pack,
    known_event_names,
    lint_path,
    lint_text,
    load_pack,
    parse_pack,
)

__all__ = [
    "CORE_PACK_PATH",
    "CORE_PACK_SOURCE",
    "LintIssue",
    "RuleDef",
    "RulePack",
    "RulePackError",
    "compile_pack",
    "compile_rule",
    "core_pack",
    "known_event_names",
    "lint_path",
    "lint_text",
    "load_pack",
    "parse_pack",
]
