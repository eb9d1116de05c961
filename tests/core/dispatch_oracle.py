"""The broadcast dispatch oracle: every generator and rule a wildcard.

Indexed dispatch is a routing optimisation only.  Setting every
generator's ``protocols`` and every rule's ``trigger_events`` to
``None`` and rebuilding the index sends every footprint to every
generator and every event to every rule — through the one indexed path
the engine has.  Detection must not be able to tell the difference.
"""

from __future__ import annotations

from repro.core.engine import ScidiveEngine
from repro.core.rules import RuleSet


def wildcard_ruleset(ruleset: RuleSet) -> RuleSet:
    """Make every rule in ``ruleset`` a candidate for every event."""
    for rule in ruleset.rules:
        rule.trigger_events = None
    ruleset.rebuild_index()
    return ruleset


def wildcard_engine(engine: ScidiveEngine) -> ScidiveEngine:
    """Make ``engine`` visit every generator and rule on everything."""
    for generator in engine.generators:
        generator.protocols = None
    # Rebinding the list drops the per-protocol dispatch tables.
    engine.generators = list(engine.generators)
    wildcard_ruleset(engine.ruleset)
    return engine
