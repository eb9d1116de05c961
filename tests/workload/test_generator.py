"""Generator invariants: seed determinism, label bookkeeping, stats.

The seed contract is the whole point of the CI quality gate — the
committed baseline only means something if the same spec + seed always
produces the byte-identical trace and the identical label table.
"""

from __future__ import annotations

from repro.workload import (
    ATTACK_KINDS,
    FLOOD_KINDS,
    generate_workload,
    trace_digest,
)

from .conftest import SMALL_SPEC


# SMALL_SPEC's bytes and labels, recorded when the forge built every
# frame through value objects.  The spec holds every attack kind, so this
# also pins the register-flood and rtp-flood ladders, which no ledger
# workload carries.
SMALL_SPEC_TRACE_DIGEST = "0b497c3d4d652c1d0b48b3d686c9b161d7eea0c4dc0ecb4024f879dcde5ff3c0"
SMALL_SPEC_TRUTH_DIGEST = "4bb7a4cf8fbe9b87aaf3b5dc23008ddb232135f5cc273870a7845bd984352212"


def test_small_spec_bytes_are_pinned(small_workload):
    assert len(small_workload.trace) == 60_745
    assert trace_digest(small_workload.trace) == SMALL_SPEC_TRACE_DIGEST
    assert small_workload.truth.digest() == SMALL_SPEC_TRUTH_DIGEST


def test_seed_determinism_byte_identical(small_workload):
    again = generate_workload(SMALL_SPEC)
    assert trace_digest(again.trace) == trace_digest(small_workload.trace)
    assert again.truth.digest() == small_workload.truth.digest()


def test_different_seed_different_trace(small_workload):
    other = generate_workload(SMALL_SPEC, seed=SMALL_SPEC.seed + 1)
    assert trace_digest(other.trace) != trace_digest(small_workload.trace)


def test_seed_override_beats_spec_seed():
    a = generate_workload(SMALL_SPEC.with_overrides(seed=7), seed=99)
    b = generate_workload(SMALL_SPEC.with_overrides(seed=8), seed=99)
    assert trace_digest(a.trace) == trace_digest(b.trace)
    assert a.truth.seed == 99


def test_frame_labels_parallel_to_records(small_workload):
    trace, truth = small_workload.trace, small_workload.truth
    assert len(truth.frame_labels) == len(trace)
    by_id = {label.label_id: label for label in truth.labels}
    assert set(truth.frame_labels) <= set(by_id)
    # Every labeled frame falls inside its session's time window.
    for record, label_id in zip(trace, truth.frame_labels):
        label = by_id[label_id]
        assert label.start <= record.timestamp <= label.end


def test_every_attack_kind_labeled_once(small_workload):
    counts = small_workload.truth.attack_counts()
    assert counts == {kind: 1 for kind in ATTACK_KINDS}
    for label in small_workload.truth.attacks():
        if label.kind in FLOOD_KINDS:
            # Pressure labels: no rule is *required*, side alerts soak.
            assert not label.expected_rules
            assert label.accept_rules
        else:
            assert label.expected_rules, label.kind
            assert set(label.expected_rules) <= set(label.accept_rules)
        assert label.injection_time is not None
        assert label.deadline is not None and label.deadline > label.injection_time
        assert label.attacker


def test_timestamps_monotonic(small_workload):
    times = [record.timestamp for record in small_workload.trace]
    assert times == sorted(times)
    assert times[0] >= 0.0


def test_truth_json_roundtrip(small_workload):
    truth = small_workload.truth
    from repro.workload.labels import GroundTruth

    clone = GroundTruth.from_dict(truth.as_dict())
    assert clone.digest() == truth.digest()


def test_stats_reflect_trace(small_workload):
    stats = small_workload.stats
    assert stats.frames == len(small_workload.trace)
    assert stats.subscribers == SMALL_SPEC.subscribers
    assert stats.wire_bytes == small_workload.trace.total_bytes
    assert stats.underdelivered == {}


def test_trace_digest_survives_pcap_roundtrip(small_workload, tmp_path):
    from repro.net.pcap import read_pcap, write_pcap

    path = tmp_path / "trace.pcap"
    write_pcap(path, small_workload.trace)
    assert trace_digest(read_pcap(path)) == trace_digest(small_workload.trace)


def test_pinned_counts_fully_delivered():
    # A pinned count is a contract even when count * spacing overflows
    # the usable window: spacing shrinks, the count does not, and
    # nothing is silently dropped past the deadline-adjusted edge.
    from repro.workload import AttackMix

    spec = SMALL_SPEC.with_overrides(
        name="test-tight",
        duration=300.0,
        attacks=(AttackMix(kind="bye", count=10, spacing=60.0),),
    )
    result = generate_workload(spec)
    assert result.truth.attack_counts() == {"bye": 10}
    assert result.stats.attack_sessions == {"bye": 10}
    assert result.stats.underdelivered == {}
    for label in result.truth.attacks():
        assert label.deadline is not None
        assert label.deadline <= spec.duration


def test_spaced_counts_keep_requested_spacing():
    from repro.workload import AttackMix

    spec = SMALL_SPEC.with_overrides(
        name="test-spaced",
        duration=600.0,
        attacks=(AttackMix(kind="fake-im", count=8, spacing=12.0),),
    )
    result = generate_workload(spec)
    assert result.truth.attack_counts() == {"fake-im": 8}
    times = sorted(
        label.injection_time for label in result.truth.attacks()
    )
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap >= 12.0 - 1e-6 for gap in gaps), gaps
