"""Versioned snapshots of an engine's detection state.

A SCIDIVE worker that crashes and respawns with a fresh engine has
*amnesia*: every trail, SIP dialog state machine, armed orphan-media
watch and rule cooldown on its shard is gone, so the stateful rules the
paper builds its case on (BYE, Call Hijack) silently stop firing for
in-flight calls.  ``ScidiveEngine.checkpoint()`` captures everything
those detectors need into one pickled, versioned payload;
``ScidiveEngine.restore()`` loads it into a fresh engine (same module
configuration) so detection resumes exactly where the snapshot was
taken.

What a checkpoint contains (and why):

* ``trails`` / ``sip_state`` / ``registrations`` — the shared protocol
  state every generator consults.  Captured as whole objects: they are
  plain dicts of frozen-dataclass footprints and messages, all of which
  already cross ``multiprocessing`` queues inside pickled alerts.
* per-generator state — generators are stateful by design (armed
  watches, per-flow sequence windows, per-sender IM bindings).
  Captured generically via ``vars()`` keyed by generator name; a
  generator with ``__slots__`` or private needs can opt into the
  explicit protocol by defining ``checkpoint_state()`` /
  ``restore_state(state)``.
* per-rule state — rules hold lambdas (predicates, group keys), so the
  rule *objects* are not picklable; instead each rule contributes only
  its declared ``state_attrs`` (cooldowns, threshold buckets, sequence
  progress, conjunction members) keyed by rule id, restored into the
  factory-built rule objects.
* the distiller's reassembly buffers and counters — half-assembled
  fragments must survive a respawn or the datagram they belong to is
  lost to detection.
* the alert/event logs and engine counters — a cluster worker reports
  alerts only at stop, so a crash would otherwise also lose every alert
  raised *before* it; restoring them makes crash-then-respawn runs
  alert-multiset-equivalent to uncrashed runs.
* the exception firewall's error/quarantine ledger — a component
  disabled for cause must stay disabled after a respawn.
* the forensics recorder's *malformed* quarantine ring — the bounded
  record of hostile input the decoders rejected (``repro explain
  malformed``).  The per-session evidence rings are deliberately left
  out: alerts carry their own provenance frames.

The payload is ``pickle`` because the state *is* Python object graphs
with shared references (the same footprint appears in a trail and in an
event's evidence); pickle's memo preserves that sharing.  Checkpoints
are an internal transport between one engine build and an identically
configured successor — not an interchange format — which is exactly
pickle's safe habitat.  ``CHECKPOINT_VERSION`` gates shape drift: a
mismatch raises :class:`CheckpointError` rather than resurrecting a
half-compatible ghost.

Snapshots are *bounded*.  Trails are bounded live — a trail *is* its
recent ``TRAIL_TAIL`` footprints plus counters (:mod:`repro.core.trail`),
so what is checkpointed is exactly what is live.  Only the event log and
the rule history are trimmed at dump time, to their most recent
``CHECKPOINT_EVENT_TAIL`` events: they are evidence/archival depth —
detection reads them through short time windows
(``EventHistory.recent``; sequence/threshold rule state is checkpointed
separately in full) — while on a media flood they dominate the snapshot
by orders of magnitude.  Without the bounds a snapshot costs
O(everything ever seen); with them, O(live detection state).
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING

from repro.obs.logsetup import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ScidiveEngine

_log = get_logger("resilience.checkpoint")

CHECKPOINT_VERSION = 4

# Snapshot bound (see module docstring): archival event depth is
# truncated to a recent tail, live detection state is captured in full.
CHECKPOINT_EVENT_TAIL = 512

# Sanity marker so a truncated/foreign blob fails loudly before pickle
# tries to interpret it.
_MAGIC = b"SCDV"


class CheckpointError(RuntimeError):
    """Unusable checkpoint: wrong version, wrong magic, or corrupt."""


class RulePackMismatch(CheckpointError):
    """The checkpoint was taken under a different rule pack.

    Restoring rule state (cooldowns, threshold buckets, sequence
    progress) into rules compiled from a *different* policy can
    resurrect suppressions for rules whose meaning changed, so the
    restore refuses by default; pass ``force=True`` (the CLI's
    ``--force``) to accept the cross-pack restore anyway.
    """


# ---------------------------------------------------------------------------
# Per-component capture helpers
# ---------------------------------------------------------------------------


def _generator_state(generator) -> tuple[str, object]:
    """(mode, state) for one generator: explicit protocol, else vars()."""
    capture = getattr(generator, "checkpoint_state", None)
    if capture is not None:
        return ("custom", capture())
    try:
        return ("vars", dict(vars(generator)))
    except TypeError:  # __slots__ without the explicit protocol
        return ("none", None)


def _restore_generator(generator, mode: str, state) -> None:
    if mode == "custom":
        generator.restore_state(state)
    elif mode == "vars":
        generator.__dict__.clear()
        generator.__dict__.update(state)
    # mode == "none": nothing captured, leave the fresh instance alone.


# ---------------------------------------------------------------------------
# Engine-level capture / restore
# ---------------------------------------------------------------------------


def _history_state(history) -> dict:
    """EventHistory as a bounded dict (the object holds every event)."""
    return {
        "max_events": history.max_events,
        "counts": dict(history.counts),
        "events": list(history.events)[-CHECKPOINT_EVENT_TAIL:],
    }


def _restore_history(state: dict):
    from repro.core.rules import EventHistory

    history = EventHistory(max_events=state["max_events"])
    history.counts.update(state["counts"])
    history.events.extend(state["events"])
    return history


def engine_checkpoint(engine: "ScidiveEngine") -> bytes:
    """Serialize ``engine``'s detection state (see module docstring)."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "engine_name": engine.name,
        # Which detection policy the snapshot's rule state belongs to
        # (None for a hand-built RuleSet).  engine_restore gates on it.
        "rulepack": (
            engine.rulepack.info() if engine.rulepack is not None else None
        ),
        "stats": engine.stats.as_dict(),
        "shadow_stats": engine.shadow_stats.as_dict(),
        "alerts": list(engine.alert_log.alerts),
        "event_log": list(engine.event_log)[-CHECKPOINT_EVENT_TAIL:],
        "trails": engine.trails,
        "sip_state": engine.sip_state,
        "registrations": engine.registrations,
        "generators": {
            generator.name: _generator_state(generator)
            for generator in engine.generators
        },
        "rules": {
            rule.rule_id: rule.checkpoint_state()
            for rule in engine.ruleset.rules
        },
        "rule_history": _history_state(engine.ruleset.history),
        "dispatch_skipped": engine.ruleset.dispatch_skipped,
        "distiller_stats": engine.distiller.stats,
        "reassembler": engine.distiller._reassembler,
        "since_housekeeping": engine._since_housekeeping,
        "expired_trails": engine.expired_trails,
        "firewall": engine.firewall.state() if engine.firewall is not None else None,
        # Only the malformed quarantine crosses the checkpoint; the
        # per-session evidence rings stay behind (alerts already carry
        # their provenance frames, and raw-frame rings are exactly the
        # unbounded bulk the snapshot bounds exist to keep out).
        "malformed_quarantine": (
            engine.forensics.malformed_state()
            if engine.forensics is not None
            else None
        ),
    }
    return _MAGIC + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def engine_restore(engine: "ScidiveEngine", blob: bytes, force: bool = False) -> None:
    """Load a checkpoint into ``engine`` (same module configuration).

    Components present in the snapshot but absent from the engine (or
    vice versa) are skipped: the engine keeps its factory-fresh state
    for anything the snapshot does not cover, so config drift degrades
    to partial amnesia instead of an exception storm.  The rule pack is
    the exception: a snapshot taken under a different pack identity
    raises :class:`RulePackMismatch` unless ``force`` is set, because
    silently mixing one policy's rule state into another's rules is
    config drift of the *detection semantics*, not of the plumbing.
    """
    from repro.core.engine import EngineStats
    from repro.core.events import GeneratorContext

    if not blob.startswith(_MAGIC):
        raise CheckpointError("not a SCIDIVE checkpoint (bad magic)")
    try:
        payload = pickle.loads(blob[len(_MAGIC):])
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} != supported {CHECKPOINT_VERSION}"
        )
    if not force:
        # Symmetric gate: None (a hand-built RuleSet) is a pack identity
        # too — a packless snapshot must not slide into a compiled-pack
        # engine any more than the reverse.
        snapshot_pack = payload.get("rulepack")
        snapshot_label = (
            snapshot_pack.get("label") if snapshot_pack is not None else None
        )
        current_label = (
            engine.rulepack.label if engine.rulepack is not None else None
        )
        if snapshot_label != current_label:
            raise RulePackMismatch(
                f"checkpoint was taken under rule pack {snapshot_label!r} "
                f"but the engine runs {current_label!r}; pass force=True "
                "(--force) to restore across packs"
            )
    engine.stats = EngineStats.from_dict(payload["stats"])
    engine.shadow_stats = EngineStats.from_dict(payload["shadow_stats"])
    # In-place so AlertLog subscribers (forensics, instrumentation) and
    # any held references stay wired; restored alerts are not re-emitted.
    engine.alert_log.alerts[:] = payload["alerts"]
    engine.event_log[:] = payload["event_log"]
    engine.trails = payload["trails"]
    engine.sip_state = payload["sip_state"]
    engine.registrations = payload["registrations"]
    # The generator context holds direct references to the replaced
    # trackers; rebuild it or generators would keep feeding the old ones.
    engine._ctx = GeneratorContext(
        trails=engine.trails,
        sip_state=engine.sip_state,
        registrations=engine.registrations,
        vantage_ip=engine.vantage_ip,
        vantage_mac=engine.vantage_mac,
    )
    generator_states = payload["generators"]
    for generator in engine.generators:
        entry = generator_states.get(generator.name)
        if entry is not None:
            _restore_generator(generator, entry[0], entry[1])
    rule_states = payload["rules"]
    for rule in engine.ruleset.rules:
        state = rule_states.get(rule.rule_id)
        if state is not None:
            rule.restore_state(state)
    engine.ruleset.history = _restore_history(payload["rule_history"])
    engine.ruleset.dispatch_skipped = payload["dispatch_skipped"]
    engine.ruleset._ctx = None  # held a reference to the old history
    engine.distiller.stats = payload["distiller_stats"]
    engine.distiller._reassembler = payload["reassembler"]
    engine._since_housekeeping = payload["since_housekeeping"]
    engine.expired_trails = payload["expired_trails"]
    firewall_state = payload.get("firewall")
    if engine.firewall is not None and firewall_state is not None:
        engine.firewall.load_state(firewall_state)
        _reapply_quarantines(engine)
    malformed = payload.get("malformed_quarantine")
    if engine.forensics is not None and malformed:
        engine.forensics.load_malformed_state(malformed)
    _log.info(
        "checkpoint restored",
        extra={"fields": {
            "engine": engine.name,
            "alerts": len(engine.alert_log.alerts),
            "trails": engine.trails.trail_count,
            "frames": engine.stats.frames,
        }},
    )


def _reapply_quarantines(engine: "ScidiveEngine") -> None:
    """Re-disable components the snapshot's firewall had quarantined —
    the respawned engine was factory-built with all of them present."""
    from repro.resilience.firewall import (
        STAGE_DECODER,
        STAGE_GENERATOR,
        STAGE_RULE,
    )

    for stage, component in engine.firewall.quarantined:
        if stage == STAGE_RULE:
            engine.ruleset.remove(component)
        elif stage == STAGE_GENERATOR:
            engine.generators = [
                g for g in engine.generators if g.name != component
            ]
        elif stage == STAGE_DECODER:
            engine.distiller.decoders = tuple(
                d for d in engine.distiller.decoders
                if getattr(d, "__name__", repr(d)) != component
            )
