"""Crash-mid-scenario recovery: checkpoints make respawn lossless.

Two contracts from the resilience work:

* With ``checkpoint_every=1``, crashing workers mid-attack and letting
  the cluster respawn them yields the *same alert multiset* as an
  uncrashed single engine — the respawned worker resumes from its last
  checkpoint instead of restarting blind.
* When a shard exhausts ``max_restarts`` the cluster degrades instead
  of dying: the shard is marked dead, a self-diagnostic alert is
  raised, and the surviving workers keep detecting.
"""

from __future__ import annotations

import collections

import pytest

from repro.cluster import ClusterConfig, ScidiveCluster
from repro.cluster.cluster import WORKER_DEAD_RULE_ID
from repro.core.engine import ScidiveEngine
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
    if name not in _TRACES:
        runner, _ = ATTACKS[name]
        _TRACES[name] = runner(seed=7).testbed.ids_tap.trace
    return _TRACES[name]


def _single_engine_alerts(trace) -> collections.Counter:
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
    for record in trace.records:
        engine.process_frame(record.frame, record.timestamp)
    return collections.Counter(engine.alerts)


def _crash_both_workers_mid_trace(trace, backend: str):
    """Replay ``trace`` on two workers, crashing each one mid-stream."""
    records = trace.records
    crash_points = {len(records) // 3: 0, 2 * len(records) // 3: 1}
    cluster = ScidiveCluster(
        workers=2,
        backend=backend,
        batch_size=16,
        vantage_ip=CLIENT_A_IP,
        checkpoint_every=1,
    ).start()
    for n, record in enumerate(records):
        if n in crash_points:
            wid = crash_points[n]
            cluster.flush()
            cluster.inject_crash(wid)
            # Wait for the victim to actually die: the router would
            # otherwise outrun the crash message on the GIL and deliver
            # the whole remaining stream to a zombie-to-be.
            cluster._workers[wid].join(timeout=5.0)
        cluster.submit_frame(record.frame, record.timestamp)
    return cluster.stop()


class TestRespawnEquivalence:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_crash_recovery_is_lossless_on_every_attack(self, name):
        # Real processes: checkpoints must survive os._exit().
        trace = _attack_trace(name)
        result = _crash_both_workers_mid_trace(trace, "process")
        assert result.cluster.worker_restarts == 2
        restored = [r.restored for r in result.workers]
        assert restored == [True, True]
        assert result.alert_multiset() == _single_engine_alerts(trace)
        _, rule_id = ATTACKS[name]
        assert any(a.rule_id == rule_id for a in result.alerts)

    def test_process_backend_crash_recovery_on_one_attack(self):
        # One real-process pass: checkpoints must survive os._exit().
        trace = _attack_trace("bye-attack")
        result = _crash_both_workers_mid_trace(trace, "process")
        assert result.cluster.worker_restarts == 2
        assert all(r.restored for r in result.workers)
        assert result.alert_multiset() == _single_engine_alerts(trace)

    def test_checkpoints_are_counted(self):
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=2,
            backend="process",
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            checkpoint_every=1,
        )
        result = cluster.process_trace(trace)
        assert sum(r.checkpoints for r in result.workers) > 0
        # No crash happened, so nothing was ever restored.
        assert not any(r.restored for r in result.workers)


class TestDegradedShard:
    def test_exhausted_shard_degrades_instead_of_dying(self):
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=2,
            backend="process",
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            max_restarts=0,
        ).start()
        records = trace.records
        for n, record in enumerate(records):
            if n == len(records) // 3:
                cluster.flush()
                cluster.inject_crash(0)
                cluster._workers[0].join(timeout=5.0)
            cluster.submit_frame(record.frame, record.timestamp)
        health = cluster.health()
        result = cluster.stop()

        assert result.cluster.workers_dead == 1
        assert health["workers_dead"] == 1
        assert health["worker_dead"] == [0]
        dead_alerts = [
            a for a in result.alerts if a.rule_id == WORKER_DEAD_RULE_ID
        ]
        assert len(dead_alerts) == 1
        assert dead_alerts[0].attack_class == "self-diagnostic"
        # Failover rerouted signalling to the survivor, whose shadow
        # state still carries the session — the headline alert fires.
        assert any(a.rule_id == "BYE-001" for a in result.alerts)

    def test_all_shards_dead_is_still_an_error_under_block_policy(self):
        from repro.cluster.cluster import ClusterError

        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=1,
            backend="process",
            batch_size=4,
            vantage_ip=CLIENT_A_IP,
            max_restarts=0,
        ).start()
        cluster.submit_frame(trace.records[0].frame, trace.records[0].timestamp)
        cluster.flush()
        cluster.inject_crash(0)
        cluster._workers[0].join(timeout=5.0)
        with pytest.raises(ClusterError, match="max_restarts"):
            for record in trace.records[1:]:
                cluster.submit_frame(record.frame, record.timestamp)
            cluster.flush()
        # stop() must still hand back the degraded report instead of
        # re-raising for the frames it can no longer place.
        result = cluster.stop()
        assert result.cluster.workers_dead == 1
        assert any(a.rule_id == WORKER_DEAD_RULE_ID for a in result.alerts)
