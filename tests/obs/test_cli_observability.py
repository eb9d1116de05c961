"""CLI observability surface: --metrics-out / --trace-out, `stats`,
the `trace` frame-journey audit and the `profile` sampler."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs import current, parse_prometheus, read_trace_jsonl


def test_scenario_writes_metrics_and_trace(tmp_path, capsys):
    metrics = tmp_path / "metrics.txt"
    trace = tmp_path / "trace.jsonl"
    assert main([
        "scenario", "bye-attack", "--seed", "7",
        "--metrics-out", str(metrics), "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "BYE-001" in out

    families = parse_prometheus(metrics.read_text())
    assert any('rule_id="BYE-001"' in k for k in families["scidive_alerts_total"])
    assert any('protocol="sip"' in k for k in families["scidive_footprints_total"])
    assert "scidive_stage_seconds" in families

    spans = read_trace_jsonl(trace)
    stages = {record["span"] for record in spans}
    assert {"distill", "trail", "generate", "match"} <= stages
    # The global context must not leak past the command.
    assert current() is None


def test_scenario_without_flags_runs_dark(capsys):
    assert main(["scenario", "benign-call", "--seed", "3"]) == 0
    assert "no alerts" in capsys.readouterr().out
    assert current() is None


def test_replay_writes_metrics(tmp_path, capsys):
    pcap = tmp_path / "capture.pcap"
    assert main(["scenario", "bye-attack", "--seed", "7",
                 "--pcap", str(pcap)]) == 0
    capsys.readouterr()
    metrics = tmp_path / "replay-metrics.txt"
    assert main(["replay", str(pcap), "--metrics-out", str(metrics)]) == 0
    assert "alerts" in capsys.readouterr().out
    families = parse_prometheus(metrics.read_text())
    assert families["scidive_frames_total"]


def test_stats_table(capsys):
    assert main(["stats", "bye-attack", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "Pipeline counters" in out
    assert "Per-stage latency" in out
    assert "Per-rule activity" in out
    assert "distill" in out
    assert "BYE-001" in out
    assert "spans recorded" in out
    assert "spans dropped" in out
    assert "endpoint table" in out
    assert "address table drops" in out
    assert "trail footprints retained" in out


def test_stats_prometheus_format(capsys):
    assert main(["stats", "bye-attack", "--seed", "7", "--format", "prom"]) == 0
    families = parse_prometheus(capsys.readouterr().out)
    assert "scidive_frames_total" in families


def test_stats_json_format(capsys):
    import json

    assert main(["stats", "bye-attack", "--seed", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {m["name"] for m in payload["metrics"]}
    assert "scidive_alerts_total" in names
    assert payload["spans"] > 0
    assert payload["spans_dropped"] == 0


def test_unknown_scenario_errors(capsys):
    assert main(["stats", "no-such-thing"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert current() is None


def test_metrics_out_includes_build_info(tmp_path):
    metrics = tmp_path / "metrics.txt"
    assert main(["scenario", "bye-attack", "--seed", "7",
                 "--metrics-out", str(metrics)]) == 0
    families = parse_prometheus(metrics.read_text())
    assert any('backend="engine"' in key
               for key in families["scidive_build_info"])


@pytest.fixture(scope="module")
def cluster_trace_file(tmp_path_factory):
    """One traced 2-worker run shared by the journey-audit tests."""
    path = tmp_path_factory.mktemp("journey") / "trace.jsonl"
    assert main(["scenario", "bye-attack", "--seed", "7", "--workers", "2",
                 "--cluster-backend", "serial",
                 "--trace-out", str(path)]) == 0
    return path


class TestTraceCommand:
    def test_audit_by_call_id(self, cluster_trace_file, capsys):
        assert main(["trace", "2-clientA@10.0.0.10",
                     "--trace-file", str(cluster_trace_file)]) == 0
        out = capsys.readouterr().out
        assert "route" in out
        assert "queue-wait" in out
        assert "per-stage time:" in out

    def test_audit_by_literal_trace_id(self, cluster_trace_file, capsys):
        records = read_trace_jsonl(cluster_trace_file)
        tid = records[0]["trace"]
        assert main(["trace", tid, "--trace-file", str(cluster_trace_file),
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert tid in out
        assert "showing last 5" in out

    def test_unknown_id_lists_available_traces(self, cluster_trace_file, capsys):
        assert main(["trace", "no-such-call",
                     "--trace-file", str(cluster_trace_file)]) == 2
        err = capsys.readouterr().err
        assert "no spans for" in err
        assert "trace id(s) available" in err

    def test_missing_trace_file_is_a_hint_not_a_crash(self, tmp_path, capsys):
        assert main(["trace", "x",
                     "--trace-file", str(tmp_path / "absent.jsonl")]) == 2
        assert "no trace file" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_scenario_writes_collapsed_stacks(self, tmp_path, capsys):
        out_file = tmp_path / "hot.collapsed"
        assert main(["profile", "--scenario", "bye-attack", "--seed", "7",
                     "--passes", "2", "--interval", "0.001",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "profiled 2 replay pass(es)" in out
        assert "self%" in out
        assert out_file.exists()

    def test_profile_unknown_scenario_errors(self, capsys):
        assert main(["profile", "--scenario", "nope", "--passes", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


def test_profile_out_attaches_worker_profilers(tmp_path, capsys):
    profile_dir = tmp_path / "profiles"
    assert main(["scenario", "bye-attack", "--seed", "7", "--workers", "2",
                 "--cluster-backend", "process",
                 "--profile-out", str(profile_dir)]) == 0
    assert "worker profiles" in capsys.readouterr().out
    collapsed = sorted(p.name for p in profile_dir.glob("*.collapsed"))
    assert collapsed == ["worker-0.collapsed", "worker-1.collapsed"]
