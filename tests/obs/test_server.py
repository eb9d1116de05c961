"""The live observability sidecar: /metrics, /healthz, /alerts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.cluster import ScidiveCluster
from repro.experiments.harness import run_bye_attack
from repro.obs import ObsServer, parse_prometheus


def _get(server: ObsServer, path: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(server.url(path), timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


@pytest.fixture(scope="module")
def bye_run():
    ctx = obs.enable(trace=False)
    try:
        result = run_bye_attack(seed=7)
    finally:
        obs.disable()
    return result, ctx


ROOT = Path(__file__).resolve().parents[2]

# The import budget, as CI's smoke job runs it: an engine process or a
# cluster worker never loads the HTTP stack; the sidecar's names resolve
# (and load it) on first use.
IMPORT_BUDGET = (
    "import sys, repro.core.engine, repro.cluster; "
    "heavy = ('http.server', 'http.client', 'ssl', 'email', 'socketserver'); "
    "early = [m for m in heavy if m in sys.modules]; assert not early, early; "
    "import repro.obs; "
    "assert {'ObsServer', 'StatusSource'} <= set(dir(repro.obs)) & set(repro.obs.__all__); "
    "assert repro.obs.ObsServer.__module__ == repro.obs.StatusSource.__module__ == 'repro.obs.server'; "
    "assert all(m in sys.modules for m in heavy)"
)


class TestSidecarLoadsOnFirstUse:
    def test_engine_and_cluster_imports_stay_within_the_budget(self):
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_BUDGET],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_ci_smoke_runs_the_same_check(self):
        assert IMPORT_BUDGET in (ROOT / ".github" / "workflows" / "ci.yml").read_text()

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'NoSuchThing'"):
            getattr(obs, "NoSuchThing")


class TestUnboundServer:
    def test_healthz_reports_starting_and_metrics_never_empty(self):
        with ObsServer(port=0) as server:
            status, body = _get(server, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "starting"
            status, body = _get(server, "/metrics")
            assert status == 200
            assert "scidive_http_requests_total" in body

    def test_unknown_path_is_404_with_hints(self):
        with ObsServer(port=0) as server:
            status, body = _get(server, "/nope")
            assert status == 404
            payload = json.loads(body)
            assert "/metrics" in payload["paths"]


class TestSingleEngine:
    def test_endpoints_serve_the_bound_engine(self, bye_run):
        result, ctx = bye_run
        with ObsServer(port=0) as server:
            server.source.set_registry(ctx.registry)
            server.source.set_engine(result.engine)

            status, body = _get(server, "/metrics")
            assert status == 200
            families = parse_prometheus(body)
            frames = families["scidive_frames_total"]
            assert frames['scidive_frames_total{engine="scidive"}'] \
                == result.engine.stats.frames
            assert "scidive_detection_delay_seconds" in families

            status, body = _get(server, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            engine_view = health["engine"]
            assert engine_view["frames"] == result.engine.stats.frames
            assert engine_view["alerts"] == len(result.alerts)
            assert engine_view["forensics_sessions"] > 0
            assert engine_view["forensics_records"] > 0

            status, body = _get(server, "/alerts")
            assert status == 200
            alerts = json.loads(body)
            assert len(alerts) == len(result.alerts)
            assert alerts[0]["rule_id"] == "BYE-001"
            assert alerts[0]["provenance"]["frames"] > 0
            # Same schema as Alert.to_dict (shared with `repro stats`).
            assert alerts[0] == result.alerts[0].to_dict()


class TestCluster:
    @pytest.mark.parametrize("backend,workers", [("process", 4), ("serial", 2)])
    def test_endpoints_serve_the_bound_cluster(self, bye_run, backend, workers):
        result, _ = bye_run
        trace = result.testbed.ids_tap.trace
        cluster = ScidiveCluster(
            workers=workers, backend=backend,
            vantage_ip=result.engine.vantage_ip, metrics_enabled=True,
        )
        with ObsServer(port=0) as server:
            server.source.set_cluster(cluster)
            cluster.process_trace(trace)

            status, body = _get(server, "/healthz")
            assert status == 200
            view = json.loads(body)["cluster"]
            assert view["backend"] == backend
            assert view["workers"] == workers
            assert view["frames_in"] == len(trace)
            assert len(view["queue_depths"]) == workers

            # Post-stop the merged registry is live: router families plus
            # the per-worker engine counters.
            status, body = _get(server, "/metrics")
            assert status == 200
            families = parse_prometheus(body)
            assert "scidive_cluster_workers" in families
            frames = families["scidive_frames_total"]
            assert sum(frames.values()) >= len(trace)

            status, body = _get(server, "/alerts")
            assert status == 200
            alerts = json.loads(body)
            assert {a["rule_id"] for a in alerts} == \
                {a.rule_id for a in result.alerts}


class TestTraceEndpoint:
    def test_trace_serves_engine_spans(self):
        ctx = obs.enable(trace=True)
        try:
            result = run_bye_attack(seed=7)
        finally:
            obs.disable()
        with ObsServer(port=0) as server:
            server.source.set_registry(ctx.registry)
            server.source.set_engine(result.engine)
            status, body = _get(server, "/trace?limit=25")
            assert status == 200
            payload = json.loads(body)
            assert payload["count"] > 0
            assert len(payload["spans"]) <= 25
            assert {"span", "t_sim", "dur_us"} <= set(payload["spans"][0])

    def test_trace_serves_merged_cluster_spans_with_filter(self, bye_run):
        result, _ = bye_run
        trace = result.testbed.ids_tap.trace
        cluster = ScidiveCluster(
            workers=2, backend="process",
            vantage_ip=result.engine.vantage_ip,
            trace_enabled=True, trace_sample_rate=1,
        )
        with ObsServer(port=0) as server:
            server.source.set_cluster(cluster)
            cluster.process_trace(trace)
            status, body = _get(server, "/trace")
            assert status == 200
            payload = json.loads(body)
            assert payload["count"] > 0
            assert payload["dropped"] == 0
            assert payload["traces"]  # tid → span count index
            tid = next(iter(payload["traces"]))
            status, body = _get(server, f"/trace?trace={tid}")
            filtered = json.loads(body)
            assert filtered["count"] == payload["traces"][tid]
            assert all(span["trace"] == tid for span in filtered["spans"])
            # The sidecar's health view surfaces the tracing plane too.
            status, body = _get(server, "/healthz")
            assert json.loads(body)["cluster"]["tracing"]["sessions_sampled"] > 0

    def test_trace_404_lists_the_endpoint(self):
        with ObsServer(port=0) as server:
            status, body = _get(server, "/nope")
            assert status == 404
            assert "/trace" in json.loads(body)["paths"]

    def test_trace_without_any_tracer_is_empty(self):
        with ObsServer(port=0) as server:
            status, body = _get(server, "/trace")
            assert status == 200
            payload = json.loads(body)
            assert payload["count"] == 0
            assert payload["spans"] == []


class TestBuildInfo:
    def test_engine_metrics_carry_build_info(self, bye_run):
        _, ctx = bye_run
        with ObsServer(port=0) as server:
            server.source.set_registry(ctx.registry)
            _, body = _get(server, "/metrics")
        families = parse_prometheus(body)
        info = families["scidive_build_info"]
        key = next(iter(info))
        assert 'backend="engine"' in key
        assert 'pack="builtin"' in key
        from repro import __version__

        assert f'version="{__version__}"' in key
        assert info[key] == 1

    def test_cluster_merged_metrics_carry_build_info(self, bye_run):
        result, _ = bye_run
        cluster = ScidiveCluster(
            workers=2, backend="serial",
            vantage_ip=result.engine.vantage_ip, metrics_enabled=True,
        )
        merged = cluster.process_trace(result.testbed.ids_tap.trace)
        families = parse_prometheus(merged.registry.render_prometheus())
        info = families["scidive_build_info"]
        assert any('backend="serial"' in key for key in info)
