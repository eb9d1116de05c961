"""Tests for the experiment harness, Table 1 builder, report formatting."""

from __future__ import annotations

import pytest

from repro.experiments.harness import BENIGN_KINDS, run_benign, run_bye_attack
from repro.experiments.report import format_table
from repro.experiments.table1 import TABLE1_HEADERS, build_table1
from repro.experiments.workloads import WorkloadSpec, capture_workload
from repro.experiments.delay_analysis import (
    compare_detection_delay,
    false_alarm_comparison,
    missed_alarm_curve,
    paper_model,
)


class TestHarness:
    def test_all_benign_kinds_run_clean(self):
        for kind in BENIGN_KINDS:
            result = run_benign(kind)
            assert result.alerts == [], f"{kind} raised {result.alerts}"

    def test_unknown_benign_kind_rejected(self):
        with pytest.raises(ValueError):
            run_benign("nonsense")

    def test_monitoring_window_respected(self):
        # A zero-ish window means the orphan packet lands outside it.
        result = run_bye_attack(monitoring_window=0.0001)
        assert result.detection_delay("BYE-001") is None

    def test_results_deterministic_per_seed(self):
        d1 = run_bye_attack(seed=5).detection_delay("BYE-001")
        d2 = run_bye_attack(seed=5).detection_delay("BYE-001")
        assert d1 == d2


class TestTable1:
    def test_all_four_attacks_detected_no_false_positives(self):
        rows = build_table1(seed=11)
        assert len(rows) == 4
        for row in rows:
            assert row.detected, row.attack
            assert row.benign_false_alarms == 0, row.attack
            assert row.detection_delay is not None and row.detection_delay < 1.0

    def test_cells_render(self):
        rows = build_table1(seed=11)
        table = format_table(TABLE1_HEADERS, [r.cells() for r in rows])
        assert "BYE attack" in table
        assert "DETECTED" in table
        assert "MISSED" not in table


class TestReport:
    def test_alignment(self):
        table = format_table(["a", "bb"], [["xxx", 1], ["y", 22.5]])
        lines = table.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_value_formatting(self):
        table = format_table(["v"], [[None], [True], [False], [0.123456]])
        assert "-" in table and "yes" in table and "no" in table and "0.1235" in table

    def test_title(self):
        assert format_table(["h"], [["x"]], title="My Table").startswith("My Table")


class TestWorkloads:
    def test_capture_respects_spec(self):
        small = capture_workload(WorkloadSpec(calls=1, ims=0, churn_rounds=0))
        large = capture_workload(WorkloadSpec(calls=4, ims=4, churn_rounds=2))
        assert len(large) > len(small)

    def test_trace_is_replayable(self):
        from repro.core.engine import ScidiveEngine

        trace = capture_workload(WorkloadSpec(calls=1, ims=1, churn_rounds=1))
        engine = ScidiveEngine()
        engine.process_trace(trace)
        assert engine.stats.footprints > 0


class TestDelayAnalysis:
    def test_analytic_vs_model_mc_agree(self):
        comparison = compare_detection_delay(trials=3, mc_samples=20_000)
        assert comparison.model_mc_ms == pytest.approx(comparison.analytic_ms, abs=0.3)
        assert comparison.simulated_ms is not None

    def test_missed_alarm_curve_monotone(self):
        points = missed_alarm_curve([21.0, 30.0, 60.0])
        probs = [p.analytic for p in points]
        assert probs == sorted(probs, reverse=True)
        assert all(p.model_mc == pytest.approx(p.analytic, abs=0.02) for p in points)

    def test_false_alarm_iid_half(self):
        point = false_alarm_comparison()
        assert point.analytic == pytest.approx(0.5, abs=0.01)
        assert point.model_mc == pytest.approx(0.5, abs=0.02)

    def test_paper_model_shapes(self):
        n_rtp, g_sip, n_sip = paper_model()
        assert g_sip.mean == pytest.approx(0.010)
        assert n_rtp.mean == n_sip.mean
