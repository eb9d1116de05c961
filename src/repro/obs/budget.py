"""Per-frame latency budget: the engine's burn-rate signal.

A production IDS that falls behind the wire is silently blind — frames
queue, detection delay grows, and nothing in the alert stream says so.
This module gives an engine a *latency budget*: a per-frame wall-time
allowance (default :data:`DEFAULT_FRAME_BUDGET`).  The detector tracks a
sliding window of recent frame latencies and derives a **burn rate** —
how many budgets the engine is spending per frame, on average, across
the window.  A burn rate of 1.0 means the engine is exactly keeping up;
sustained burn above :data:`DEFAULT_BURN_THRESHOLD` means the engine
cannot drain a full wire at this traffic mix.

The budget is a signal, not an alarm: it raises no alert of its own.
The overload controller (:mod:`repro.resilience.overload`) reads the
burn rate on its tick and announces every state change as a
``SELF-OVERLOAD-<STATE>`` alert; ``/healthz`` and the
``scidive_frame_budget_burn_rate`` gauge show the window as it stands.

The per-frame cost is one deque append/pop and a float add, and only
when a detector is attached; dark engines pay a single ``is not None``
guard.
"""

from __future__ import annotations

from collections import deque

# Default per-frame wall-time allowance.  5 ms/frame is ~200 frames/s
# sustained — far above anything the simulated testbeds produce per
# frame, so the burn rate stays low unless the pipeline genuinely
# degrades (pathological rule, GC storm, oversubscribed host).
DEFAULT_FRAME_BUDGET = 0.005

# Sliding window length in frames.  Long enough that one slow frame
# (housekeeping sweep, cold caches) cannot read as overload; short enough
# that sustained overload shows within a few hundred frames.
DEFAULT_WINDOW = 256

# Burn rate that declares overload: spending this many budgets per frame
# across a full window.
DEFAULT_BURN_THRESHOLD = 1.0


class LatencyBudgetDetector:
    """Sliding-window burn rate over per-frame latencies."""

    __slots__ = (
        "budget", "window", "burn_threshold",
        "frames", "frames_over_budget", "_latencies", "_window_sum",
    )

    def __init__(
        self,
        budget: float = DEFAULT_FRAME_BUDGET,
        window: int = DEFAULT_WINDOW,
        burn_threshold: float = DEFAULT_BURN_THRESHOLD,
    ) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be > 0 (got {budget})")
        if window < 2:
            raise ValueError(f"window must be >= 2 (got {window})")
        self.budget = budget
        self.window = window
        self.burn_threshold = burn_threshold
        self.frames = 0
        self.frames_over_budget = 0
        self._latencies: deque[float] = deque(maxlen=window)
        self._window_sum = 0.0

    # -- hot path -------------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Absorb one frame's latency into the window."""
        self.frames += 1
        if seconds > self.budget:
            self.frames_over_budget += 1
        latencies = self._latencies
        if len(latencies) == self.window:
            # maxlen deque: this append ejects latencies[0].
            self._window_sum += seconds - latencies[0]
        else:
            self._window_sum += seconds
        latencies.append(seconds)

    # -- surfacing ------------------------------------------------------------

    @property
    def burn_rate(self) -> float:
        """Budgets spent per frame across the current window."""
        n = len(self._latencies)
        if n == 0:
            return 0.0
        return self._window_sum / (n * self.budget)

    @property
    def overloaded(self) -> bool:
        return (
            len(self._latencies) >= self.window
            and self.burn_rate >= self.burn_threshold
        )

    @property
    def over_budget_fraction(self) -> float:
        return self.frames_over_budget / self.frames if self.frames else 0.0

    def as_dict(self) -> dict:
        """The /healthz view (plain JSON-safe types)."""
        return {
            "budget_seconds": self.budget,
            "window_frames": self.window,
            "burn_threshold": self.burn_threshold,
            "burn_rate": round(self.burn_rate, 4),
            "overloaded": self.overloaded,
            "frames": self.frames,
            "frames_over_budget": self.frames_over_budget,
            "over_budget_fraction": round(self.over_budget_fraction, 4),
        }
