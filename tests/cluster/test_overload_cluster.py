"""Overload control on the cluster: the penalty box's door-drop,
degraded-mode detection under a flood, and the serial backend's
brownout.

The invariant: a flooded run on every backend sheds only the
adjudicated-heavy source (the door-drop pseudo-plane), keeps every
innocent frame, and still raises the paper attack's alert.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ScidiveCluster
from repro.core.engine import ScidiveEngine
from repro.experiments.harness import run_bye_attack
from repro.obs import Observability
from repro.resilience.chaos import _FLOOD_IP, _flood_frames
from repro.resilience.overload import OverloadConfig
from repro.voip.testbed import CLIENT_A_IP

FLOOD_SOURCE = str(_FLOOD_IP)

_TRACE = None


def _bye_trace():
    global _TRACE
    if _TRACE is None:
        _TRACE = run_bye_attack(seed=7).testbed.ids_tap.trace
    return _TRACE


def _flooded_stream(flood_frames: int):
    """The bye-attack capture with a uniform flood interleave."""
    records = [(r.frame, r.timestamp) for r in _bye_trace().records]
    flood = _flood_frames(random.Random(3), flood_frames)
    stream = []
    sent = 0
    for index, (frame, ts) in enumerate(records):
        stream.append((frame, ts))
        quota = (index + 1) * len(flood) // len(records)
        while sent < quota:
            stream.append((flood[sent], ts))
            sent += 1
    return stream


def _overload_cluster(backend: str) -> ScidiveCluster:
    return ScidiveCluster(
        workers=2,
        backend=backend,
        batch_size=16,
        vantage_ip=CLIENT_A_IP,
        queue_depth=8,
        overflow="block",
        overload_enabled=True,
        overload_config=OverloadConfig(
            tick_frames=64, hot_min=32, dwell_ticks=2, recovery_ticks=2
        ),
    )


class TestShedOrderingAcrossBackends:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_innocent_frames_survive_a_flood(self, backend):
        cluster = _overload_cluster(backend)
        cluster.start()
        for frame, ts in _flooded_stream(3000):
            cluster.submit_frame(frame, ts)
        result = cluster.stop()

        stats = result.cluster
        # Blocking queues mean the only shedding is the penalty box's
        # door-drop of the heavy source: every shed frame is attributed
        # to a source, and no innocent source ever is.
        assert stats.frames_shed == sum(stats.shed_by_source.values())
        assert set(stats.shed_by_source) <= {FLOOD_SOURCE}
        # Degraded-mode detection guarantee: the paper attack's alert
        # survives the flood on every backend.
        assert any(a.rule_id == "BYE-001" for a in result.alerts)

    def test_queued_backends_reach_shed_and_name_the_flooder(self):
        # Serial has no queues, so fill never rises; the process backend
        # must escalate to shed and door-drop the flooding source.
        cluster = _overload_cluster("process")
        cluster.start()
        for frame, ts in _flooded_stream(3000):
            cluster.submit_frame(frame, ts)
        result = cluster.stop()
        status = cluster.overload_status()

        assert any(
            key.endswith("->shed") for key in status["transitions_total"]
        ), status["transitions_total"]
        assert result.cluster.frames_shed > 0
        assert result.cluster.shed_by_source.get(FLOOD_SOURCE, 0) > 0
        hot = dict(status["sources"]["hot_sources"])
        assert FLOOD_SOURCE in hot
        # The transitions were announced as self-diagnostic alerts.
        assert any(
            a.rule_id == "SELF-OVERLOAD-SHED" for a in result.alerts
        )

    def test_health_and_status_expose_the_plane(self):
        cluster = _overload_cluster("process")
        cluster.start()
        for frame, ts in _flooded_stream(1500):
            cluster.submit_frame(frame, ts)
        health = cluster.health()
        assert "overload" in health
        assert health["overload"]["state"] in (
            "normal", "brownout", "shed", "recovering"
        )
        assert "shed_by_source" in health["overload"]
        cluster.stop()


def _impossible_budget_engine(worker_id, config) -> ScidiveEngine:
    """An instrumented worker engine that blows its budget on every frame."""
    return ScidiveEngine(
        vantage_ip=config.vantage_ip,
        name=f"worker-{worker_id}",
        observability=Observability.create(trace=False),
        frame_budget=1e-12,
        cost_sample_rate=8,
    )


class TestSerialBrownout:
    def test_brownout_floors_and_heals_every_inline_engine(self):
        # Serial engines run in-process, so their burn rate drives the
        # controller; brownout floors each engine's optional work and
        # the return to normal heals it.
        cluster = ScidiveCluster(
            workers=2,
            backend="serial",
            batch_size=16,
            vantage_ip=CLIENT_A_IP,
            overload_enabled=True,
            overload_config=OverloadConfig(
                tick_frames=16, dwell_ticks=2, recovery_ticks=2
            ),
            engine_factory=_impossible_budget_engine,
        ).start()
        engines = [worker.engine for worker in cluster._workers]

        def knobs():
            return [(e.ruleset.cost_sample_rate, e._instr.summary_sample)
                    for e in engines]

        baseline = knobs()
        assert all(cost == 8 and summary < 64 for cost, summary in baseline)
        records = _bye_trace().records
        half = len(records) // 2
        for record in records[:half]:
            cluster.submit_frame(record.frame, record.timestamp)
        assert cluster.overload.state == "brownout"
        assert all(cost == 0 and summary >= 64 for cost, summary in knobs())

        # The engines catch up: against a one-second budget every frame
        # is calm, and the controller walks back to normal.
        for engine in engines:
            engine.latency_budget.budget = 1.0
        for record in records[half:]:
            cluster.submit_frame(record.frame, record.timestamp)
        assert cluster.overload.state == "normal"
        assert knobs() == baseline
        result = cluster.stop()
        assert any(a.rule_id == "SELF-OVERLOAD-BROWNOUT" for a in result.alerts)
        assert any(a.rule_id == "SELF-OVERLOAD-NORMAL" for a in result.alerts)
