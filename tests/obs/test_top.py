"""``repro top``: rendering, window rates, and the --once exit path."""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments.harness import run_bye_attack
from repro.obs import ObsServer
from repro.obs.top import gather, render, run_once, window_rates


@pytest.fixture(scope="module")
def live_server():
    """A sidecar bound to a finished instrumented run, with history."""
    ctx = obs.enable(trace=False)
    try:
        result = run_bye_attack(seed=7)
    finally:
        obs.disable()
    # history_interval=0 disables the sampler thread; sample by hand so
    # the test controls the timeline.
    with ObsServer(port=0, history_interval=0) as server:
        server.source.set_registry(ctx.registry)
        server.source.set_engine(result.engine)
        server.source.sample_history(now=100.0)
        server.source.sample_history(now=101.0)
        yield server, result


class TestWindowRates:
    # The samples of a fetched /metrics/history payload: plain dicts,
    # not a MetricsHistory ring.
    def _samples(self):
        return [
            {"t": 0.0, "totals": {"frames": 0}},
            {"t": 5.0, "totals": {"frames": 100}},
            {"t": 10.0, "totals": {"frames": 300}},
        ]

    def test_window_picks_oldest_sample_inside(self):
        rates = window_rates(self._samples(), 6.0)
        assert rates["frames_per_s"] == pytest.approx(40.0)

    def test_wide_window_reaches_first_sample(self):
        rates = window_rates(self._samples(), 100.0)
        assert rates["frames_per_s"] == pytest.approx(30.0)

    def test_fewer_than_two_samples_is_quiet(self):
        rates = window_rates([{"t": 0.0, "totals": {}}], 10.0)
        assert all(v == 0.0 for v in rates.values())


class TestRender:
    def test_error_status_renders_hint(self):
        lines = render({"error": "http://x:1: nope"})
        text = "\n".join(lines)
        assert "sidecar unreachable" in text
        assert "--serve-http" in text

    def test_cluster_panel_prints_the_shed_count(self):
        cluster = {"backend": "process", "workers": 2, "workers_alive": 2, "frames_shed": 1234}
        assert "  shed: 1,234" in render({"health": {"cluster": cluster}})
        cluster["frames_shed"] = 0
        assert not any(line.startswith("  shed:") for line in render({"health": {"cluster": cluster}}))

    def test_dashboard_shows_engine_quantiles_and_budget(self, live_server):
        server, result = live_server
        status = gather(server.url())
        assert "error" not in status
        text = "\n".join(render(status))
        assert f"{result.engine.stats.frames:,} frames" in text
        assert "latency (ms)      p50     p90     p99" in text
        assert "frame" in text and "distill" in text
        assert "budget: burn" in text
        assert "[ok]" in text
        assert "history:" in text

    def test_top_rules_panel_appears_when_cost_sampled(self, live_server):
        server, _ = live_server
        status = gather(server.url())
        engine_view = status["health"]["engine"]
        if engine_view.get("top_rules"):
            assert "top rules by cost" in "\n".join(render(status))


class TestRunOnce:
    def test_exit_zero_against_live_sidecar(self, live_server, capsys):
        server, _ = live_server
        assert run_once(server.url()) == 0
        out = capsys.readouterr().out
        assert "SCIDIVE top" in out

    def test_exit_one_when_unreachable(self, capsys):
        assert run_once("http://127.0.0.1:9", window=1.0) == 1
        assert "unreachable" in capsys.readouterr().out


class TestCliWiring:
    def test_top_once_via_cli(self, live_server, capsys):
        from repro.cli import main

        server, _ = live_server
        assert main(["top", "--url", server.url(), "--once"]) == 0
        assert "SCIDIVE top" in capsys.readouterr().out
