"""Cluster observability: metric-only workers and the merged registry.

Under ``--workers > 1`` the CLI's ``--metrics-out`` must keep working
(worker registries merge into the result), and ``--trace-out`` now
rides the cross-process tracing plane: workers record context-gated
spans and the router merges them into one timeline at stop (see
``test_cluster_trace.py`` for the tracing-plane invariants).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.cluster import ScidiveCluster
from repro.cluster.cluster import ClusterConfig, default_engine_factory
from repro.experiments.harness import run_bye_attack
from repro.obs import parse_prometheus


@pytest.fixture(scope="module")
def bye_trace():
    result = run_bye_attack(seed=7)
    return result.testbed.ids_tap.trace, result.engine.vantage_ip


class TestMetricOnlyWorkers:
    def test_factory_builds_workers_without_a_tracer(self):
        engine = default_engine_factory(0, ClusterConfig(metrics_enabled=True))
        assert engine.observability is not None
        assert engine.observability.tracer is None

    def test_merged_registry_contains_worker_stage_and_delay_metrics(self, bye_trace):
        trace, vantage = bye_trace
        cluster = ScidiveCluster(workers=2, backend="serial",
                                 vantage_ip=vantage, metrics_enabled=True)
        result = cluster.process_trace(trace)
        assert result.registry is not None
        families = parse_prometheus(result.registry.render_prometheus())
        stage = families["scidive_stage_seconds"]
        assert any('engine="worker-0"' in key for key in stage)
        frames = families["scidive_frames_total"]
        assert sum(frames.values()) == len(trace)
        # Forensics rides along in every worker: the per-rule delay
        # histogram survives the merge.
        assert "scidive_detection_delay_seconds" in families


class TestSummaryRollUp:
    def test_four_worker_summaries_merge_without_error(self, bye_trace):
        """The ISSUE 6 acceptance case: a 4-way roll-up of quantile
        sketches must merge cleanly and keep detection equivalent."""
        import collections

        from repro.core.engine import ScidiveEngine
        from repro.obs import Observability
        from repro.obs.server import _quantile_view

        trace, vantage = bye_trace
        cluster = ScidiveCluster(workers=4, backend="serial",
                                 vantage_ip=vantage, metrics_enabled=True)
        result = cluster.process_trace(trace)

        registry = result.registry
        summary = registry.get("scidive_frame_latency_seconds")
        assert summary is not None
        workers_with_frames = {
            key[0] for key, child in summary._children.items() if child.count
        }
        assert len(workers_with_frames) >= 2  # sharding spread the load
        total = sum(child.count for child in summary._children.values())
        assert total > 0

        # The merged cluster-wide view folds every worker's sketch.
        view = _quantile_view(registry, "scidive_frame_latency_seconds")
        assert view is not None
        assert view["count"] == total
        assert 0.0 < view["p50"] <= view["p99"]
        stage_view = _quantile_view(
            registry, "scidive_stage_latency_seconds", by="stage"
        )
        assert "distill" in stage_view

        # Roll-up must not change verdicts: same alert multiset as one
        # engine over the same trace.
        single = ScidiveEngine(
            vantage_ip=vantage,
            observability=Observability.create(trace=False),
        )
        single.process_trace(trace)
        assert result.alert_multiset() == collections.Counter(single.alerts)


class TestClusterCliFlags:
    def test_metrics_out_writes_merged_registry(self, tmp_path, capsys):
        out = tmp_path / "cluster-metrics.txt"
        assert main(["scenario", "bye-attack", "--workers", "2",
                     "--cluster-backend", "process",
                     "--metrics-out", str(out)]) == 0
        assert "merged cluster metrics written" in capsys.readouterr().out
        families = parse_prometheus(out.read_text())
        assert "scidive_cluster_workers" in families
        assert "scidive_frames_total" in families

    def test_trace_out_writes_merged_timeline_under_workers(self, tmp_path, capsys):
        from repro.obs import read_trace_jsonl

        trace = tmp_path / "trace.jsonl"
        assert main(["scenario", "bye-attack", "--workers", "2",
                     "--cluster-backend", "process",
                     "--trace-out", str(trace)]) == 0
        assert "merged spans written" in capsys.readouterr().out
        records = read_trace_jsonl(trace)
        assert records
        stages = {record["span"] for record in records}
        assert {"route", "queue-wait", "distill", "match"} <= stages
        # Every record carries its worker and trace id for the audit CLI.
        assert all("worker" in record for record in records)
        assert all(record.get("trace") for record in records)
