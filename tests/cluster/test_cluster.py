"""ScidiveCluster: detection equivalence, merging, backpressure, crashes."""

from __future__ import annotations

import collections

import pytest

from repro.cluster import ClusterConfig, ScidiveCluster
from repro.cluster.cluster import BACKENDS, ClusterError
from repro.core.engine import EngineStats, ScidiveEngine
from repro.experiments.harness import (
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_rtp_attack,
)
from repro.voip.testbed import CLIENT_A_IP

ATTACKS = {
    "bye-attack": (run_bye_attack, "BYE-001"),
    "call-hijack": (run_call_hijack, "HIJACK-001"),
    "fake-im": (run_fake_im, "FAKEIM-001"),
    "rtp-attack": (run_rtp_attack, "RTP-003"),
}

_TRACES: dict[str, object] = {}


def _attack_trace(name: str):
    """Capture each attack once per test session; replays are cheap."""
    if name not in _TRACES:
        runner, _ = ATTACKS[name]
        _TRACES[name] = runner(seed=7).testbed.ids_tap.trace
    return _TRACES[name]


def _single_engine_alerts(trace) -> collections.Counter:
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
    for record in trace.records:
        engine.process_frame(record.frame, record.timestamp)
    return collections.Counter(engine.alerts)


class TestDetectionEquivalence:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_four_workers_match_single_engine(self, name, backend):
        trace = _attack_trace(name)
        cluster = ScidiveCluster(
            workers=4, backend=backend, batch_size=16, vantage_ip=CLIENT_A_IP
        )
        result = cluster.process_trace(trace)
        assert result.alert_multiset() == _single_engine_alerts(trace)
        _, rule_id = ATTACKS[name]
        assert any(a.rule_id == rule_id for a in result.alerts)

    def test_process_backend_matches_on_one_attack(self):
        # One process-backend pass keeps the suite fast while still
        # exercising pickling, queues and cross-process merge for real.
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=4, backend="process", batch_size=16, vantage_ip=CLIENT_A_IP
        )
        result = cluster.process_trace(trace)
        assert result.alert_multiset() == _single_engine_alerts(trace)

    def test_alerts_sorted_by_time(self):
        trace = _attack_trace("call-hijack")
        result = ScidiveCluster(
            workers=3, backend="serial", vantage_ip=CLIENT_A_IP
        ).process_trace(trace)
        times = [a.time for a in result.alerts]
        assert times == sorted(times)


class TestMerging:
    def test_stats_sum_across_workers(self):
        trace = _attack_trace("rtp-attack")
        single = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        for record in trace.records:
            single.process_frame(record.frame, record.timestamp)
        result = ScidiveCluster(
            workers=4, backend="serial", vantage_ip=CLIENT_A_IP
        ).process_trace(trace)
        # Signalling frames are replicated, so the cluster's frame total
        # exceeds the tap's; owned footprints/events/alerts match exactly.
        assert result.cluster.frames_in == len(trace.records)
        assert result.stats.alerts == single.stats.alerts
        assert result.stats.frames >= single.stats.frames

    def test_metrics_registry_merges_worker_series(self):
        trace = _attack_trace("bye-attack")
        result = ScidiveCluster(
            workers=2, backend="serial", vantage_ip=CLIENT_A_IP,
            metrics_enabled=True,
        ).process_trace(trace)
        text = result.registry.render_prometheus()
        assert "scidive_cluster_workers" in text
        assert "scidive_cluster_frames_routed_total" in text
        assert "scidive_alerts_total" in text

    def test_worker_reports_cover_every_worker(self):
        trace = _attack_trace("fake-im")
        result = ScidiveCluster(
            workers=3, backend="serial", vantage_ip=CLIENT_A_IP
        ).process_trace(trace)
        assert sorted(r.worker_id for r in result.workers) == [0, 1, 2]
        assert sum(r.frames_owned for r in result.workers) > 0


class TestEngineStatsMerge:
    def test_merge_sums_fields(self):
        a = EngineStats(frames=10, footprints=8, events=3, alerts=1,
                        cpu_seconds=0.5)
        b = EngineStats(frames=4, footprints=2, events=1, alerts=0,
                        cpu_seconds=0.25)
        total = EngineStats.merged([a, b])
        assert (total.frames, total.footprints, total.events, total.alerts) == \
            (14, 10, 4, 1)
        assert total.cpu_seconds == pytest.approx(0.75)

    def test_frames_per_cpu_second_is_merge_safe(self):
        # The old ratio-of-averages bug: merging must sum numerators and
        # denominators, not average per-worker rates.
        a = EngineStats(frames=100, cpu_seconds=1.0)   # 100 f/s
        b = EngineStats(frames=300, cpu_seconds=1.0)   # 300 f/s
        total = EngineStats.merged([a, b])
        assert total.frames_per_cpu_second == pytest.approx(200.0)

    def test_dict_round_trip(self):
        stats = EngineStats(frames=7, footprints=6, events=2, alerts=1,
                            cpu_seconds=0.125)
        assert EngineStats.from_dict(stats.as_dict()) == stats


class TestLifecycleAndFailure:
    def test_config_validation(self):
        from repro.cli import CLUSTER_BACKENDS

        assert BACKENDS == CLUSTER_BACKENDS == ("process", "serial")
        with pytest.raises(ClusterError):
            ClusterConfig(workers=0).validate()
        with pytest.raises(ClusterError):
            ClusterConfig(backend="fibers").validate()
        with pytest.raises(ClusterError):
            ClusterConfig(overflow="panic").validate()

    def test_drop_overflow_counts_dropped_frames(self):
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=1, backend="process", batch_size=1, queue_depth=1,
            overflow="drop", vantage_ip=CLIENT_A_IP,
        )
        result = cluster.process_trace(trace)
        assert result.cluster.frames_dropped > 0
        assert result.cluster.frames_dropped < result.cluster.frames_in

    def test_process_crash_respawns_worker(self):
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=2, backend="process", batch_size=8, vantage_ip=CLIENT_A_IP
        ).start()
        for record in trace.records[:40]:
            cluster.submit_frame(record.frame, record.timestamp)
        cluster.flush()
        cluster.inject_crash(0)
        for record in trace.records[40:]:
            cluster.submit_frame(record.frame, record.timestamp)
        result = cluster.stop()
        assert result.cluster.worker_restarts >= 1

    def test_serial_backend_cannot_crash(self):
        cluster = ScidiveCluster(workers=2, backend="serial").start()
        with pytest.raises(ClusterError):
            cluster.inject_crash(0)
        cluster.stop()

    def test_context_manager_stops_on_exit(self):
        trace = _attack_trace("bye-attack")
        with ScidiveCluster(
            workers=2, backend="process", vantage_ip=CLIENT_A_IP
        ) as cluster:
            for record in trace.records:
                cluster.submit_frame(record.frame, record.timestamp)
        result = cluster.result
        assert result is not None
        assert result.alert_multiset() == _single_engine_alerts(trace)
