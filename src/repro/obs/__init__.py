"""Pipeline observability: metrics registry, tracing, structured logs.

Three consumers, one switchboard:

* **Per-engine**: pass ``metrics_enabled=True`` (or an
  :class:`Observability` instance) to :class:`~repro.core.engine.ScidiveEngine`.
* **Process-wide**: :func:`enable` installs a global
  :class:`Observability`; every engine constructed afterwards picks it
  up automatically — this is how the CLI's ``--metrics-out`` /
  ``--trace-out`` flags reach engines built deep inside the experiment
  harness.  :func:`disable` uninstalls it.
* **Off** (the default): engines hold ``None`` and the hot path pays a
  single ``is None`` check per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.forensics import (
    ForensicsConfig,
    ForensicsRecorder,
    ProvenanceGraph,
    configure_forensics,
    default_forensics_config,
    format_bundle,
    format_malformed_bundle,
    list_bundles,
    load_bundle,
    write_malformed_bundle,
)
from repro.obs.budget import (
    DEFAULT_FRAME_BUDGET,
    OVERLOAD_RULE_ID,
    LatencyBudgetDetector,
)
from repro.obs.history import MetricsHistory
from repro.obs.instrument import EngineInstrumentation, InstrumentationHook
from repro.obs.logsetup import get_logger, setup_logging
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Summary,
    default_registry,
    parse_prometheus,
    set_default_registry,
)
from repro.obs.profile import (
    SignalSampler,
    StackSampler,
    attach_profiler,
    format_top,
)
from repro.obs.tracing import (
    DEFAULT_TRACE_SAMPLE_RATE,
    Span,
    StageStats,
    TraceContext,
    Tracer,
    read_trace_jsonl,
    sample_session,
    session_trace_id,
    sort_timeline,
    write_spans_jsonl,
)


def set_build_info(
    registry: MetricsRegistry,
    *,
    backend: str,
    pack: str | None = None,
) -> None:
    """Export the ``scidive_build_info`` info-style gauge.

    Value is always 1; the identity lives in the labels (version, rule
    pack, python, backend), so dashboards can join engine and cluster
    scrapes on a common build identity.  After an N-way registry merge
    the value is the number of sources reporting that identity.
    """
    import platform

    from repro import __version__

    registry.gauge(
        "scidive_build_info",
        "Build identity (value = sources reporting this identity)",
        labelnames=("version", "pack", "python", "backend"),
    ).labels(
        version=__version__,
        pack=pack or "builtin",
        python=platform.python_version(),
        backend=backend,
    ).set(1)


@dataclass
class Observability:
    """One registry (+ optional tracer) shared by any number of engines."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer | None = None
    # Streaming latency quantiles (frame/stage/module summaries).
    summaries: bool = True
    # Stage/module sketches observe every Nth frame (1 = every frame);
    # the frame-level sketch and the latency budget always see all.
    summary_sample_rate: int = 4
    # Time every Nth rule match() invocation; 0 disables cost accounting.
    cost_sample_rate: int = 16
    # Per-frame latency budget in seconds; None = engine default.
    frame_budget: float | None = None

    @classmethod
    def create(cls, trace: bool = True) -> "Observability":
        return cls(registry=MetricsRegistry(), tracer=Tracer() if trace else None)

    def instrument_engine(self, name: str) -> EngineInstrumentation:
        return EngineInstrumentation(
            self.registry, engine=name, tracer=self.tracer,
            summaries=self.summaries,
            summary_sample=self.summary_sample_rate,
        )


_current: Observability | None = None


def enable(
    registry: MetricsRegistry | None = None,
    trace: bool = True,
) -> Observability:
    """Install (and return) the process-global observability context."""
    global _current
    _current = Observability(
        registry=registry if registry is not None else MetricsRegistry(),
        tracer=Tracer() if trace else None,
    )
    return _current


def disable() -> None:
    """Uninstall the process-global context (engines built later run dark)."""
    global _current
    _current = None


def current() -> Observability | None:
    """The installed global context, or None when observability is off."""
    return _current


# The HTTP sidecar's names, served on first use (PEP 562):
# ``repro.obs.server`` pulls in ``http.server`` and with it ``ssl``,
# ``email`` and ``socketserver`` — 4 MB that every engine process and
# cluster worker would otherwise carry for a server it never starts.
_SIDECAR_NAMES = ("ObsServer", "StatusSource")


def __getattr__(name: str):
    if name in _SIDECAR_NAMES:
        from repro.obs import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SIDECAR_NAMES})


__all__ = [
    "Counter",
    "DEFAULT_FRAME_BUDGET",
    "DEFAULT_TRACE_SAMPLE_RATE",
    "EngineInstrumentation",
    "ForensicsConfig",
    "ForensicsRecorder",
    "Gauge",
    "Histogram",
    "InstrumentationHook",
    "LatencyBudgetDetector",
    "MetricError",
    "MetricsHistory",
    "MetricsRegistry",
    "OVERLOAD_RULE_ID",
    "Observability",
    "ObsServer",
    "ProvenanceGraph",
    "SignalSampler",
    "Span",
    "StackSampler",
    "StageStats",
    "StatusSource",
    "Summary",
    "TraceContext",
    "Tracer",
    "attach_profiler",
    "configure_forensics",
    "current",
    "default_forensics_config",
    "default_registry",
    "disable",
    "enable",
    "format_bundle",
    "format_malformed_bundle",
    "format_top",
    "get_logger",
    "list_bundles",
    "load_bundle",
    "write_malformed_bundle",
    "parse_prometheus",
    "read_trace_jsonl",
    "sample_session",
    "session_trace_id",
    "set_build_info",
    "set_default_registry",
    "setup_logging",
    "sort_timeline",
    "write_spans_jsonl",
]
