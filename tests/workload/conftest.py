"""Shared fixtures for the workload-generator tests.

One small-but-complete scenario — a handful of subscribers, ten
sim-minutes, one of every attack kind — generated once per session and
shared by the determinism, quality and label-integrity tests.  Small
enough to keep tier-1 fast, complete enough that every attack kind and
both benign session types appear in the trace.
"""

from __future__ import annotations

import pytest

from repro.experiments.quality import run_engine_alerts
from repro.workload import (
    ATTACK_KINDS,
    AttackMix,
    DEFAULT_SCENARIO,
    generate_workload,
)

SMALL_SPEC = DEFAULT_SCENARIO.with_overrides(
    name="test-small",
    subscribers=16,
    duration=600.0,
    seed=1234,
    attacks=tuple(AttackMix(kind=kind, count=1) for kind in ATTACK_KINDS),
)


@pytest.fixture(scope="session")
def small_workload():
    """The shared labeled trace: one of each attack over benign churn."""
    return generate_workload(SMALL_SPEC)


@pytest.fixture(scope="session")
def small_engine_alerts(small_workload):
    """One single-engine pass over the shared trace, in alert order —
    the reference every engine-side quality test scores or compares."""
    alerts, _ = run_engine_alerts(small_workload.trace)
    return alerts
