"""The cross-process tracing plane (ISSUE 9 tentpole).

A sampled session must be sampled *end-to-end*: the router's routing
span, the worker's queue-wait span and every pipeline-stage span the
owning worker records all carry the same deterministic trace id, on
every backend, and the merged timeline at ``stop()`` is time-sorted.
Tracing must never change verdicts — the traced cluster's alert
multiset stays equal to an untraced single engine's.
"""

from __future__ import annotations

import collections

import pytest

from repro.cluster import ScidiveCluster
from repro.experiments.harness import (
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_rtp_attack,
)
from repro.obs.tracing import STAGE_ORDER

PAPER_ATTACKS = {
    "bye-attack": run_bye_attack,
    "call-hijack": run_call_hijack,
    "fake-im": run_fake_im,
    "rtp-attack": run_rtp_attack,
}


@pytest.fixture(scope="module")
def attack_runs():
    """One single-engine reference run per paper attack (trace + alerts)."""
    return {name: runner(seed=7) for name, runner in PAPER_ATTACKS.items()}


def _traced_run(reference, workers=4, backend="process", **overrides):
    overrides.setdefault("trace_sample_rate", 1)
    cluster = ScidiveCluster(
        workers=workers,
        backend=backend,
        vantage_ip=reference.engine.vantage_ip,
        trace_enabled=True,
        **overrides,
    )
    return cluster.process_trace(reference.testbed.ids_tap.trace)


def _sort_key(record):
    stage = record["span"].partition(":")[0]
    return (record["t_sim"], STAGE_ORDER.get(stage, len(STAGE_ORDER)),
            record["frame"])


class TestMergedTimeline:
    @pytest.mark.parametrize("name", sorted(PAPER_ATTACKS))
    def test_timeline_sorted_and_complete(self, attack_runs, name):
        reference = attack_runs[name]
        result = _traced_run(reference)
        timeline = result.trace
        assert timeline, "traced cluster run produced no spans"
        assert timeline == sorted(timeline, key=_sort_key)
        stages = {record["span"] for record in timeline}
        assert {"route", "queue-wait", "distill", "state", "trail",
                "generate", "match"} <= stages
        # Detection is untouched by tracing.
        assert result.alert_multiset() == collections.Counter(reference.alerts)
        assert result.cluster.spans_dropped == 0

    @pytest.mark.parametrize("name", sorted(PAPER_ATTACKS))
    def test_every_alert_journey_is_linked(self, attack_runs, name):
        """The acceptance invariant: every rule match that raised alerts
        sits on a trace that also holds the sharder-routing and
        queue-wait spans for the same trace id."""
        reference = attack_runs[name]
        result = _traced_run(reference)
        by_trace: dict[str, set] = {}
        for record in result.trace:
            by_trace.setdefault(record["trace"], set()).add(record["span"])
        alert_traces = {
            record["trace"]
            for record in result.trace
            if record["span"] == "match" and record["meta"].get("alerts")
        }
        assert alert_traces, "no match span recorded an alert"
        for tid in alert_traces:
            assert {"route", "queue-wait", "match"} <= by_trace[tid]


class TestCrossBackendConsistency:
    def test_trace_ids_agree_across_backends(self, attack_runs):
        """A sampled session carries one trace id whether its spans were
        recorded in-process (serial) or in workers reached over a
        multiprocessing queue — and both backends run the same worker
        handler, so every worker served the same batches."""
        reference = attack_runs["bye-attack"]
        per_backend = {}
        per_worker = {}
        for backend in ("serial", "process"):
            result = _traced_run(reference, backend=backend)
            counts = collections.Counter(
                record["trace"] for record in result.trace
            )
            per_backend[backend] = counts
            per_worker[backend] = [
                (w.worker_id, w.batches, w.frames_owned, w.frames_shadowed)
                for w in result.workers
            ]
            assert result.alert_multiset() == collections.Counter(
                reference.alerts
            )
        assert per_backend["serial"] == per_backend["process"]
        assert per_worker["serial"] == per_worker["process"]

    def test_worker_and_router_spans_interleave(self, attack_runs):
        """Route spans come from the router, stage spans from workers —
        the merged record set must contain both for one trace id."""
        result = _traced_run(attack_runs["bye-attack"])
        tid = next(r["trace"] for r in result.trace if r["span"] == "match")
        sources = {
            record["worker"]
            for record in result.trace
            if record["trace"] == tid
        }
        assert "router" in sources
        assert any(worker != "router" for worker in sources)


class TestTracedCrash:
    def test_traced_process_run_survives_a_worker_crash(self, attack_runs):
        """Span drains fill the results pipe mid-run; a crashed worker
        flushes its results before it exits, so the router must keep
        reading them while it waits, or neither side ever moves."""
        reference = attack_runs["rtp-attack"]
        records = reference.testbed.ids_tap.trace.records
        cluster = ScidiveCluster(
            workers=2,
            backend="process",
            batch_size=16,
            queue_depth=4,
            vantage_ip=reference.engine.vantage_ip,
            trace_enabled=True,
            trace_sample_rate=1,
            result_timeout=10.0,
        ).start()
        for n, record in enumerate(records):
            if n == 2 * len(records) // 3:
                cluster.flush()
                cluster.inject_crash(0)
            cluster.submit_frame(record.frame, record.timestamp)
        result = cluster.stop()
        assert result.cluster.worker_restarts >= 1
        assert {"route", "queue-wait", "match"} <= {
            record["span"] for record in result.trace
        }


class TestSampling:
    def test_head_sampling_is_a_strict_end_to_end_subset(self, attack_runs):
        """At 1-in-N, unsampled sessions contribute zero spans anywhere in
        the pipeline; sampled sessions keep their complete journey."""
        reference = attack_runs["bye-attack"]
        full = _traced_run(reference, backend="serial")
        sampled = _traced_run(reference, backend="serial",
                              trace_sample_rate=2)
        full_traces = {record["trace"] for record in full.trace}
        sampled_traces = {record["trace"] for record in sampled.trace}
        assert sampled_traces <= full_traces
        assert sampled_traces != full_traces  # 5 sessions; some fall out
        # Sessions that stayed sampled keep every span of their journey.
        full_counts = collections.Counter(
            record["trace"] for record in full.trace
        )
        sampled_counts = collections.Counter(
            record["trace"] for record in sampled.trace
        )
        for tid in sampled_traces:
            assert sampled_counts[tid] == full_counts[tid]

    def test_sampling_never_changes_alerts(self, attack_runs):
        reference = attack_runs["rtp-attack"]
        result = _traced_run(reference, backend="serial",
                             trace_sample_rate=1000)
        assert result.alert_multiset() == collections.Counter(reference.alerts)


class TestSpanCapAccounting:
    def test_merge_cap_overflow_counts_as_dropped(self, attack_runs):
        """Regression: a tiny span budget must bound the merged timeline
        and surface the overflow in ``spans_dropped`` / ``/healthz``."""
        reference = attack_runs["bye-attack"]
        cluster = ScidiveCluster(
            workers=2,
            backend="process",
            vantage_ip=reference.engine.vantage_ip,
            trace_enabled=True,
            trace_sample_rate=1,
            trace_max_spans=50,
        )
        result = cluster.process_trace(reference.testbed.ids_tap.trace)
        assert len(result.trace) <= 50
        assert result.cluster.spans_dropped > 0
        health = cluster.health()
        assert health["tracing"]["spans_dropped"] == result.cluster.spans_dropped
        assert health["tracing"]["sessions_sampled"] >= 1

    def test_dropped_spans_reach_the_merged_registry(self, attack_runs):
        reference = attack_runs["bye-attack"]
        cluster = ScidiveCluster(
            workers=2,
            backend="process",
            vantage_ip=reference.engine.vantage_ip,
            metrics_enabled=True,
            trace_enabled=True,
            trace_sample_rate=1,
            trace_max_spans=50,
        )
        result = cluster.process_trace(reference.testbed.ids_tap.trace)
        text = result.registry.render_prometheus()
        assert "scidive_spans_dropped_total" in text
        total = _counter_values(text)["scidive_spans_dropped_total"]
        assert total >= result.cluster.spans_dropped

    def test_healthz_reports_sampling_config(self, attack_runs):
        reference = attack_runs["bye-attack"]
        cluster = ScidiveCluster(
            workers=2,
            backend="serial",
            vantage_ip=reference.engine.vantage_ip,
            trace_enabled=True,
            trace_sample_rate=4,
        )
        cluster.process_trace(reference.testbed.ids_tap.trace)
        tracing = cluster.health()["tracing"]
        assert tracing["sample_rate"] == 4
        assert tracing["sessions_seen"] >= tracing["sessions_sampled"]


def _counter_values(prom_text: str) -> dict[str, float]:
    from repro.obs import parse_prometheus

    families = parse_prometheus(prom_text)
    totals: dict[str, float] = {}
    for name, children in families.items():
        totals[name] = sum(children.values())
    return totals
