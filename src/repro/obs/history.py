"""Metrics history: a ring of periodic snapshots with derived rates.

``/metrics`` answers "how much, ever"; operators debugging a live run
need "how fast, *lately*".  :class:`MetricsHistory` keeps a bounded ring
of cumulative-counter snapshots (frames, events, alerts, shed frames)
taken on a fixed cadence and derives per-second rates two ways:

* **instantaneous** — the delta between the two most recent snapshots,
  attached to every snapshot as it is recorded;
* **sliding-window** — the delta across however many samples fall
  inside a caller-chosen window (:func:`window_rates`, over the ring or
  over a fetched ``/metrics/history`` payload's ``samples``), which is
  what ``repro top`` displays so one noisy sample cannot whipsaw the
  panel.

The ring is append-only under a lock and snapshots are plain dicts, so
``/metrics/history`` serves JSON straight out of :meth:`as_dict` and a
poller can diff consecutive fetches without any schema negotiation.
Counters are cumulative, so a snapshot missed by a slow poller loses
resolution, never data.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

# Totals every snapshot carries.  ``shed`` is the cluster's dropped-frame
# count (0 for a single engine, which never sheds).
COUNTER_FIELDS = ("frames", "events", "alerts", "shed")

DEFAULT_CAPACITY = 300
DEFAULT_INTERVAL = 1.0


class MetricsHistory:
    """Bounded ring of cumulative-counter snapshots, rate-annotated."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2 (got {capacity})")
        self.capacity = capacity
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.samples_taken = 0

    def record(
        self,
        now: float,
        totals: dict[str, float],
        extra: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Append one snapshot; returns it with instantaneous rates.

        ``now`` is wall-clock seconds (time.time-like, monotonic across
        snapshots); ``totals`` carries cumulative counters — missing
        :data:`COUNTER_FIELDS` default to 0, unknown keys are kept.
        ``extra`` is attached verbatim (quantiles, burn rate, queue
        depths) and never participates in rate math.
        """
        snap: dict[str, Any] = {
            "t": now,
            "totals": {
                field: totals.get(field, 0) for field in COUNTER_FIELDS
            },
        }
        for key, value in totals.items():
            if key not in COUNTER_FIELDS:
                snap["totals"][key] = value
        if extra:
            snap.update(extra)
        with self._lock:
            prev = self._ring[-1] if self._ring else None
            snap["rates"] = _rates_between(prev, snap)
            self._ring.append(snap)
            self.samples_taken += 1
        return snap

    # -- queries --------------------------------------------------------------

    def snapshots(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Most recent snapshots, oldest first (all when limit is None)."""
        with self._lock:
            items = list(self._ring)
        if limit is not None and limit >= 0:
            items = items[-limit:]
        return items

    def last(self) -> dict[str, Any] | None:
        with self._lock:
            return self._ring[-1] if self._ring else None

    def window_rates(self, window_seconds: float) -> dict[str, float]:
        """:func:`window_rates` over the ring's current contents."""
        return window_rates(self.snapshots(), window_seconds)

    def as_dict(self, limit: int | None = None) -> dict[str, Any]:
        """The ``/metrics/history`` payload."""
        samples = self.snapshots(limit)
        return {
            "capacity": self.capacity,
            "samples_taken": self.samples_taken,
            "returned": len(samples),
            "counter_fields": list(COUNTER_FIELDS),
            "samples": samples,
        }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.samples_taken = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def window_rates(
    samples: list[dict[str, Any]], window_seconds: float
) -> dict[str, float]:
    """Per-second rates over the trailing ``window_seconds`` of
    ``samples`` (snapshots as :meth:`MetricsHistory.record` builds them,
    oldest first).

    Uses the oldest snapshot still inside the window as the baseline;
    with fewer than two snapshots (or a zero-length span) all rates are
    0.0 — a cold dashboard shows quiet, not an error.
    """
    if len(samples) < 2:
        return _rates_between(None, {})
    newest = samples[-1]
    horizon = newest["t"] - window_seconds
    baseline = next((snap for snap in samples if snap["t"] >= horizon), samples[0])
    return _rates_between(baseline, newest)


def _rates_between(
    prev: dict[str, Any] | None, snap: dict[str, Any]
) -> dict[str, float]:
    """Per-second counter deltas from ``prev`` to ``snap`` (0.0 when
    there is no baseline or no elapsed time)."""
    if prev is None:
        return {f"{field}_per_s": 0.0 for field in COUNTER_FIELDS}
    dt = snap["t"] - prev["t"]
    if dt <= 0:
        return {f"{field}_per_s": 0.0 for field in COUNTER_FIELDS}
    out: dict[str, float] = {}
    for field in COUNTER_FIELDS:
        delta = snap["totals"].get(field, 0) - prev["totals"].get(field, 0)
        out[f"{field}_per_s"] = round(max(delta, 0) / dt, 4)
    return out
