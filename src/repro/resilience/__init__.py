"""Crash safety for the SCIDIVE pipeline: checkpoints, firewall, chaos.

SCIDIVE's whole value is *stateful* detection — the BYE and Call Hijack
rules only fire if the SIP dialog state assembled over many packets
survives to the matching moment — so the IDS must stay correct while
crashing workers, hostile input and clock skew try to take that state
away.  Three cooperating pieces:

* :mod:`repro.resilience.checkpoint` — a versioned, serializable
  snapshot of a :class:`~repro.core.engine.ScidiveEngine`'s detection
  state (trails, SIP dialog/registration trackers, generator and rule
  state machines, reassembly buffers, the alert log).  Cluster workers
  write one periodically; ``worker.respawn()`` restores it so a crash
  costs at most one checkpoint interval of state, not the whole shard.

* :mod:`repro.resilience.firewall` — a per-stage exception quarantine.
  Decoder, generator and rule callbacks run behind it; an exception is
  counted (``scidive_stage_errors_total``), the frame path continues,
  and a repeatedly-throwing component is disabled by a circuit breaker
  that raises a self-diagnostic alert instead of killing the pipeline.

* :mod:`repro.resilience.chaos` — the fault-injection harness behind
  ``repro chaos``: replays the paper's four attacks while injecting
  mutated frames, worker crashes and clock skew, then checks the
  invariants (no uncaught exception, bounded state, signalling-plane
  alerts preserved).

* :mod:`repro.resilience.overload` — the closed-loop overload control
  plane: a hysteresis state machine (normal → brownout → shed →
  recovering) driven by queue fill and latency-budget burn, plus a
  count-min-sketch per-source penalty box so volumetric floods shed
  only the attacker's frames, never an innocent subscriber's.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    RulePackMismatch,
    engine_checkpoint,
    engine_restore,
)
from repro.resilience.firewall import (
    STAGE_DECODER,
    STAGE_GENERATOR,
    STAGE_RULE,
    QUARANTINE_RULE_ID,
    StageFirewall,
)
from repro.resilience.overload import (
    OVERLOAD_STATES,
    STATE_BROWNOUT,
    STATE_NORMAL,
    STATE_RECOVERING,
    STATE_SHED,
    TRANSITION_RULE_PREFIX,
    CountMinSketch,
    EngineOverload,
    OverloadConfig,
    OverloadController,
    SourceAccountant,
)

_CHAOS_EXPORTS = {"ChaosConfig", "ChaosReport", "format_report", "run_chaos"}


def __getattr__(name: str):
    # The chaos harness imports the experiment harness, which imports the
    # engine — which imports the firewall from this package.  Loading
    # chaos lazily keeps `from repro.resilience.firewall import ...`
    # usable from inside the engine without an import cycle.
    if name in _CHAOS_EXPORTS:
        from repro.resilience import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RulePackMismatch",
    "engine_checkpoint",
    "engine_restore",
    "ChaosConfig",
    "ChaosReport",
    "format_report",
    "run_chaos",
    "STAGE_DECODER",
    "STAGE_GENERATOR",
    "STAGE_RULE",
    "QUARANTINE_RULE_ID",
    "StageFirewall",
    "OVERLOAD_STATES",
    "STATE_BROWNOUT",
    "STATE_NORMAL",
    "STATE_RECOVERING",
    "STATE_SHED",
    "TRANSITION_RULE_PREFIX",
    "CountMinSketch",
    "EngineOverload",
    "OverloadConfig",
    "OverloadController",
    "SourceAccountant",
]
