"""The media fast path's test oracle: the same engine with a hook attached.

A :class:`~repro.core.hooks.FootprintHook` asks for per-stage timings,
which only the full pipeline has, so an engine built with one never
serves a frame from the fast path.  :func:`assert_same_outcome` compares
everything a run leaves behind — the alert and event multisets with
their attrs, each alert's provenance graph, and the decoded post-pass
checkpoint — between a dark engine and such an oracle.
"""

from __future__ import annotations

import enum
import pickle
from array import array

from repro.core.engine import ScidiveEngine
from repro.core.hooks import FootprintHook
from repro.resilience.checkpoint import _MAGIC


def engine_pair(**kwargs) -> tuple[ScidiveEngine, ScidiveEngine]:
    """(dark engine, oracle engine), built alike."""
    return ScidiveEngine(**kwargs), ScidiveEngine(hook=FootprintHook(), **kwargs)


def replay(engine: ScidiveEngine, records) -> None:
    for record in records:
        engine.process_frame(record.frame, record.timestamp)


def canonical(obj, _active: set[int] | None = None):
    """A value-only rendering of a decoded checkpoint: containers keep
    their order, objects become (type, fields); object identity — which
    pickle's memo records — plays no part."""
    if _active is None:
        _active = set()
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if id(obj) in _active:
        return ("<cycle>", type(obj).__name__)
    _active.add(id(obj))
    try:
        if isinstance(obj, dict):
            return ("dict", [(canonical(k, _active), canonical(v, _active)) for k, v in obj.items()])
        if isinstance(obj, (list, tuple)):
            return (type(obj).__name__, [canonical(v, _active) for v in obj])
        if isinstance(obj, (set, frozenset)):
            return ("set", sorted(repr(canonical(v, _active)) for v in obj))
        if isinstance(obj, array):
            return ("array", obj.typecode, obj.tolist())
        fields = {}
        for klass in type(obj).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                    fields[name] = getattr(obj, name)
        fields.update(getattr(obj, "__dict__", {}))
        return (type(obj).__name__, [(k, canonical(v, _active)) for k, v in sorted(fields.items())])
    finally:
        _active.discard(id(obj))


def decoded_checkpoint(engine: ScidiveEngine):
    payload = pickle.loads(engine.checkpoint()[len(_MAGIC):])
    # Wall-clock accounting is the one field two runs cannot share.
    payload["stats"]["cpu_seconds"] = 0.0
    payload["shadow_stats"]["cpu_seconds"] = 0.0
    return canonical(payload)


def event_rows(engine: ScidiveEngine) -> list[str]:
    return sorted(repr(event.to_dict()) for event in engine.event_log)


def alert_rows(engine: ScidiveEngine) -> list[str]:
    return sorted(repr(alert.to_dict()) for alert in engine.alerts)


def assert_same_outcome(fast: ScidiveEngine, oracle: ScidiveEngine) -> None:
    assert oracle.media_fast.served == 0
    assert alert_rows(fast) == alert_rows(oracle)
    assert event_rows(fast) == event_rows(oracle)
    assert [a.provenance.to_dict() for a in fast.alerts] == [
        a.provenance.to_dict() for a in oracle.alerts
    ]
    assert decoded_checkpoint(fast) == decoded_checkpoint(oracle)
