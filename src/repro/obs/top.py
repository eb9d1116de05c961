"""``repro top``: a terminal dashboard over the observability sidecar.

Polls ``/healthz`` and ``/metrics/history`` on a running ``--serve-http``
sidecar and renders the operator's view of a live SCIDIVE deployment:

* throughput — sliding-window frames/s, events/s, alerts/s, shed/s
  derived from the history ring;
* latency — per-frame and per-stage p50/p90/p99 from the streaming
  quantile summaries;
* cost — the top-K most expensive rules by sampled match() time;
* load — the latency-budget burn rate with an OVERLOAD banner, plus
  per-shard queue depths, live/dead workers and restart counts when a
  cluster is behind the sidecar.

Two modes: a curses screen that refreshes every ``interval`` seconds
(``q`` quits), and ``--once`` which prints a single plain-text snapshot
and exits — the CI smoke job and scripts use the latter, so every panel
below is pure string rendering over the JSON payloads and the curses
layer is only a repaint loop around it.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

from repro.obs.history import window_rates
from repro.obs.retry import with_retries

DEFAULT_INTERVAL = 1.0
DEFAULT_WINDOW = 10.0
DEFAULT_TIMEOUT = 2.0
TOP_RULES = 5


def fetch_json(url: str, timeout: float = DEFAULT_TIMEOUT) -> Any:
    def _get() -> Any:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))

    # A sidecar that is still binding (or briefly overloaded) gets three
    # jittered-backoff attempts before the panel reports it unreachable.
    return with_retries(_get)


def gather(base_url: str, timeout: float = DEFAULT_TIMEOUT) -> dict[str, Any]:
    """One poll: both endpoints, or an ``error`` entry when unreachable."""
    base = base_url.rstrip("/")
    try:
        return {
            "health": fetch_json(f"{base}/healthz", timeout),
            "history": fetch_json(f"{base}/metrics/history", timeout),
        }
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return {"error": f"{base}: {exc}"}


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}"


def _quantile_row(label: str, view: dict[str, Any]) -> str:
    return (
        f"  {label:<12}{_ms(view.get('p50', 0.0))}{_ms(view.get('p90', 0.0))}"
        f"{_ms(view.get('p99', 0.0))}  n={view.get('count', 0)}"
    )


def _overload_lines(view: dict[str, Any]) -> list[str]:
    """The overload-controller panel (engine and cluster views alike)."""
    state = view.get("state", "?")
    banner = state if state == "normal" else str(state).upper()
    lines = [
        f"  overload: [{banner}]  "
        f"fill {view.get('queue_fill', 0.0):.2f}  "
        f"burn {view.get('burn_rate', 0.0):.2f}x  "
        f"shed-rate {view.get('shed_rate', 0.0):.1%}"
    ]
    transitions = view.get("transitions_total") or {}
    if transitions:
        lines.append(
            "    transitions: "
            + "  ".join(f"{edge} x{n}" for edge, n in transitions.items())
        )
    heavy = sorted(
        (view.get("shed_by_source") or {}).items(), key=lambda kv: -kv[1]
    )[:TOP_RULES]
    if heavy:
        lines.append(
            "    penalty box: "
            + "  ".join(f"{ip}={count:,}" for ip, count in heavy)
        )
    return lines


def render(status: dict[str, Any], window: float = DEFAULT_WINDOW) -> list[str]:
    """The full dashboard as lines of text (shared by --once and curses)."""
    now = time.strftime("%H:%M:%S")
    if "error" in status:
        return [
            f"SCIDIVE top · {now}",
            "",
            f"  sidecar unreachable: {status['error']}",
            "  (start a run with --serve-http PORT, then point top at it)",
        ]
    health = status.get("health", {})
    history = status.get("history", {})
    lines = [f"SCIDIVE top · {now} · status {health.get('status', '?')}"]

    rates = window_rates(history.get("samples", []), window)
    lines.append(
        f"  rates ({window:g}s): "
        f"{rates.get('frames_per_s', 0.0):,.1f} frames/s  "
        f"{rates.get('events_per_s', 0.0):,.1f} events/s  "
        f"{rates.get('alerts_per_s', 0.0):,.2f} alerts/s  "
        f"{rates.get('shed_per_s', 0.0):,.1f} shed/s"
    )

    engine = health.get("engine")
    if engine:
        lines.append("")
        lines.append(
            f"engine {engine.get('name', '?')}: "
            f"{engine.get('frames', 0):,} frames  "
            f"{engine.get('footprints', 0):,} footprints  "
            f"{engine.get('events', 0):,} events  "
            f"{engine.get('alerts', 0):,} alerts  "
            f"trails {engine.get('live_trails', 0):,}"
        )
        pack = engine.get("rulepack")
        if pack:
            reloads = engine.get("rulepack_reloads", 0)
            lines.append(
                f"  rulepack: {pack.get('label', '?')}  "
                f"({pack.get('rules', '?')} rules"
                + (f", {reloads} reloads" if reloads else "")
                + ")"
            )
        budget = engine.get("latency_budget")
        if budget:
            state = "OVERLOAD" if budget.get("overloaded") else "ok"
            lines.append(
                f"  budget: burn {budget.get('burn_rate', 0.0):.2f}x of "
                f"{budget.get('budget_seconds', 0.0) * 1e3:g} ms/frame  "
                f"[{state}]  over-budget "
                f"{budget.get('over_budget_fraction', 0.0):.1%} of frames"
            )
        overload = engine.get("overload")
        if overload:
            lines.extend(_overload_lines(overload))
        frame_q = engine.get("frame_latency")
        stage_q = engine.get("stage_latency")
        if frame_q or stage_q:
            lines.append("")
            lines.append("  latency (ms)      p50     p90     p99")
            if frame_q:
                lines.append(_quantile_row("frame", frame_q))
            for stage, view in (stage_q or {}).items():
                lines.append(_quantile_row(stage, view))
        top = engine.get("top_rules")
        if top:
            lines.append("")
            lines.append("  top rules by cost (sampled)")
            for entry in top[:TOP_RULES]:
                lines.append(
                    f"    {entry.get('rule_id', '?'):<14}"
                    f"{entry.get('cost_seconds', 0.0) * 1e3:9.3f} ms total  "
                    f"{entry.get('cost_per_match', 0.0) * 1e6:8.2f} us/match  "
                    f"{entry.get('cost_samples', 0)} samples"
                )
        firewall = engine.get("firewall")
        if firewall and firewall.get("quarantined"):
            names = ", ".join(":".join(pair) for pair in firewall["quarantined"])
            lines.append(f"  quarantined: {names}")

    cluster = health.get("cluster")
    if cluster:
        lines.append("")
        alive = cluster.get("workers_alive", 0)
        total = cluster.get("workers", 0)
        lines.append(
            f"cluster ({cluster.get('backend', '?')}): "
            f"{alive}/{total} workers alive  "
            f"{cluster.get('frames_in', 0):,} frames in  "
            f"{cluster.get('frames_dropped', 0):,} shed  "
            f"{cluster.get('worker_restarts', 0)} restarts"
        )
        pack = cluster.get("rulepack")
        if pack:
            reloads = cluster.get("rulepack_reloads", 0)
            lines.append(
                f"  rulepack: {pack.get('label', '?')}  "
                f"({pack.get('rules', '?')} rules"
                + (f", {reloads} reloads" if reloads else "")
                + ")"
            )
        depths = cluster.get("queue_depths", [])
        if depths:
            lines.append(
                "  queue depths: " + " ".join(str(d) for d in depths)
            )
        shed = cluster.get("frames_shed")
        if shed:
            lines.append(f"  shed: {shed:,}")
        overload = cluster.get("overload")
        if overload:
            lines.extend(_overload_lines(overload))
        dead = cluster.get("worker_dead", [])
        if dead:
            lines.append(f"  DEAD shards: {dead}")
        for label, key in (("frame", "frame_latency"),):
            view = cluster.get(key)
            if view:
                lines.append("  latency (ms)      p50     p90     p99")
                lines.append(_quantile_row(label, view))
        stage_q = cluster.get("stage_latency")
        for stage, view in (stage_q or {}).items():
            lines.append(_quantile_row(stage, view))

    samples = history.get("samples", [])
    if samples:
        lines.append("")
        lines.append(
            f"history: {history.get('samples_taken', len(samples))} samples "
            f"(ring {history.get('capacity', '?')}), "
            f"last at t={samples[-1]['t']:.1f}"
        )
    return lines


def run_once(base_url: str, window: float = DEFAULT_WINDOW) -> int:
    status = gather(base_url)
    print("\n".join(render(status, window)))
    return 1 if "error" in status else 0


def run_curses(
    base_url: str,
    interval: float = DEFAULT_INTERVAL,
    window: float = DEFAULT_WINDOW,
) -> int:
    import curses

    def _loop(stdscr) -> int:
        curses.curs_set(0)
        stdscr.nodelay(True)
        while True:
            status = gather(base_url)
            lines = render(status, window)
            stdscr.erase()
            max_y, max_x = stdscr.getmaxyx()
            for y, line in enumerate(lines[: max_y - 1]):
                stdscr.addnstr(y, 0, line, max_x - 1)
            stdscr.addnstr(
                max_y - 1, 0,
                f"q quit · refresh {interval:g}s · {base_url}",
                max_x - 1, curses.A_REVERSE,
            )
            stdscr.refresh()
            deadline = time.monotonic() + interval
            while time.monotonic() < deadline:
                key = stdscr.getch()
                if key in (ord("q"), ord("Q")):
                    return 0
                time.sleep(0.05)

    return curses.wrapper(_loop)
