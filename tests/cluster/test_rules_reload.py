"""Cluster-wide rule-pack hot reload: the two-phase epoch barrier.

``reload_rulepack`` must swap every worker's detection policy without
dropping a frame, without any frame being processed under a mixed pack,
and — when any worker rejects the pack at prepare — without moving any
worker off the old pack.
"""

from __future__ import annotations

import collections
import time

import pytest

from repro.cluster import ScidiveCluster
from repro.cluster.cluster import ClusterError
from repro.core.engine import ScidiveEngine
from repro.experiments.harness import run_bye_attack, run_call_hijack
from repro.rulespec import CORE_PACK_PATH, RuleDef, RulePack, RulePackError
from repro.voip.testbed import CLIENT_A_IP

RULES_PACK = str(CORE_PACK_PATH)

ATTACKS = {
    "bye-attack": (run_bye_attack, "BYE-001"),
    "call-hijack": (run_call_hijack, "HIJACK-001"),
}

_TRACES: dict[str, object] = {}


def _attack_trace(name: str):
    if name not in _TRACES:
        runner, _ = ATTACKS[name]
        _TRACES[name] = runner(seed=7).testbed.ids_tap.trace
    return _TRACES[name]


def _single_engine_alerts(trace) -> collections.Counter:
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=RULES_PACK)
    for record in trace.records:
        engine.process_frame(record.frame, record.timestamp)
    return collections.Counter(engine.alerts)


def _reload_mid_trace(cluster: ScidiveCluster, trace, pack=RULES_PACK):
    records = list(trace.records)
    half = len(records) // 2
    for record in records[:half]:
        cluster.submit_frame(record.frame, record.timestamp)
    cluster.reload_rulepack(pack)
    for record in records[half:]:
        cluster.submit_frame(record.frame, record.timestamp)
    return cluster.stop()


class TestReloadUnderLoad:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_four_workers_lose_nothing_across_reload(self, name, backend):
        trace = _attack_trace(name)
        cluster = ScidiveCluster(
            workers=4,
            backend=backend,
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        )
        result = _reload_mid_trace(cluster, trace)
        assert result.alert_multiset() == _single_engine_alerts(trace)
        assert result.cluster.frames_in == len(trace.records)
        _, rule_id = ATTACKS[name]
        assert any(a.rule_id == rule_id for a in result.alerts)
        assert result.cluster.rulepack_reloads == 1

    def test_process_backend_reloads_on_one_attack(self):
        # One process-backend pass keeps the suite fast while still
        # exercising the control queue, pickled pack text and respawn
        # plumbing for real.
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=4,
            backend="process",
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        )
        result = _reload_mid_trace(cluster, trace)
        assert result.alert_multiset() == _single_engine_alerts(trace)
        assert result.cluster.rulepack_reloads == 1


class TestReloadRejection:
    def test_bad_path_fails_fast_on_the_router(self, tmp_path):
        # A pack file with lint errors never reaches the workers: the
        # router's load_pack refuses it before the barrier starts.
        broken = tmp_path / "broken.rules"
        broken.write_text(
            "[pack]\nname = broken\nversion = 1.0.0\n\n"
            "[rule X-001]\ntype = single\nevent = NoSuchEvent\nmessage = m\n",
            encoding="utf-8",
        )
        cluster = ScidiveCluster(
            workers=2, backend="threads", vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        )
        with cluster:
            with pytest.raises(RulePackError):
                cluster.reload_rulepack(str(broken))
            assert cluster.cluster_stats.rulepack_reloads == 0

    def test_worker_rejection_aborts_and_old_pack_stays_live(self):
        # A hand-built RulePack skips the router's lint, so the workers
        # themselves reject it at prepare — the barrier must abort and
        # leave every worker on the old pack.
        broken_pack = RulePack(
            name="broken",
            version="1.0.0",
            rules=(
                RuleDef(rule_id="X-001", shape="single", event="NoSuchEvent"),
            ),
        )
        trace = _attack_trace("bye-attack")
        records = list(trace.records)
        half = len(records) // 2
        cluster = ScidiveCluster(
            workers=4,
            backend="threads",
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        )
        for record in records[:half]:
            cluster.submit_frame(record.frame, record.timestamp)
        old_label = cluster.rulepack.label
        with pytest.raises(ClusterError, match="rejected at prepare"):
            cluster.reload_rulepack(broken_pack)
        # The rejected pack must not take: identity unchanged, and the
        # remaining frames still detect under the old policy.
        assert cluster.rulepack.label == old_label
        assert cluster.cluster_stats.rulepack_reloads == 0
        for record in records[half:]:
            cluster.submit_frame(record.frame, record.timestamp)
        result = cluster.stop()
        assert result.alert_multiset() == _single_engine_alerts(trace)

    def test_reload_on_stopped_cluster_raises(self):
        cluster = ScidiveCluster(
            workers=2, backend="serial", vantage_ip=CLIENT_A_IP
        )
        cluster.process_trace(_attack_trace("bye-attack"))
        with pytest.raises(ClusterError):
            cluster.reload_rulepack(RULES_PACK)


class TestRespawnAfterReload:
    def test_reload_rebinds_worker_configs(self, tmp_path):
        # Workers respawn from the config they hold, so the reload must
        # rebind every worker to the post-reload config or a later crash
        # resurrects the old pack on one shard.
        text = open(RULES_PACK, encoding="utf-8").read()
        muted = tmp_path / "muted.rules"
        muted.write_text(
            text.replace("[rule BYE-001]", "[rule BYE-001]\nenabled = false"),
            encoding="utf-8",
        )
        with ScidiveCluster(
            workers=4,
            backend="threads",
            vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        ) as cluster:
            cluster.start()
            cluster.reload_rulepack(str(muted))
            for worker in cluster._workers:
                assert worker.config.pack_text == cluster.config.pack_text
                assert worker.config.pack_path == cluster.config.pack_path

    def test_worker_crashed_after_reload_respawns_under_new_pack(
        self, tmp_path
    ):
        # Reload to a pack with BYE-001 disabled, crash every worker,
        # then run the BYE attack: the respawned engines must detect
        # under the *new* (muted) pack, not the one the cluster started
        # with — zero BYE-001 alerts, even though the original pack
        # (baseline below) raises them on this trace.
        text = open(RULES_PACK, encoding="utf-8").read()
        muted = tmp_path / "muted.rules"
        muted.write_text(
            text.replace("[rule BYE-001]", "[rule BYE-001]\nenabled = false"),
            encoding="utf-8",
        )
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=4,
            backend="threads",
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        )
        cluster.start()
        cluster.reload_rulepack(str(muted))
        for wid in range(4):
            cluster.inject_crash(wid)
        deadline = time.monotonic() + 10.0
        while any(w.alive for w in cluster._workers):
            assert time.monotonic() < deadline, "workers never died"
            time.sleep(0.01)
        for record in trace.records:
            cluster.submit_frame(record.frame, record.timestamp)
        result = cluster.stop()
        assert result.cluster.worker_restarts >= 4
        assert not [a for a in result.alerts if a.rule_id == "BYE-001"]
        baseline = _single_engine_alerts(trace)
        assert any(a.rule_id == "BYE-001" for a in baseline)


class TestReloadSurfacing:
    def test_health_names_the_pack_and_reload_count(self):
        trace = _attack_trace("bye-attack")
        with ScidiveCluster(
            workers=2,
            backend="threads",
            vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        ) as cluster:
            for record in trace.records:
                cluster.submit_frame(record.frame, record.timestamp)
            cluster.reload_rulepack(RULES_PACK)
            health = cluster.health()
        assert health["rulepack"]["label"] == cluster.rulepack.label
        assert health["rulepack_reloads"] == 1

    def test_reload_switches_detection_policy(self, tmp_path):
        # A pack that disables BYE-001 must actually stop those alerts
        # on every worker once committed.
        text = open(RULES_PACK, encoding="utf-8").read()
        muted = tmp_path / "muted.rules"
        muted.write_text(
            text.replace("[rule BYE-001]", "[rule BYE-001]\nenabled = false"),
            encoding="utf-8",
        )
        trace = _attack_trace("bye-attack")
        cluster = ScidiveCluster(
            workers=4,
            backend="threads",
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            pack_path=RULES_PACK,
        )
        records = list(trace.records)
        # Reload before any BYE frames are in flight: the whole trace
        # runs under the muted pack.
        cluster.start()
        cluster.reload_rulepack(str(muted))
        for record in records:
            cluster.submit_frame(record.frame, record.timestamp)
        result = cluster.stop()
        assert not [a for a in result.alerts if a.rule_id == "BYE-001"]
        baseline = _single_engine_alerts(trace)
        assert any(a.rule_id == "BYE-001" for a in baseline)
