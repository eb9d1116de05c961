"""Detection-state checkpoints: roundtrip fidelity and version gating.

The contract under test: an engine restored from a checkpoint must be
*detection-equivalent* to the engine that took it — same alerts already
raised, same alerts still to come for the remainder of the scenario.
"""

from __future__ import annotations

import collections
import pickle

import pytest

from repro.core.engine import ScidiveEngine
from repro.core.trail import TRAIL_TAIL
from repro.experiments.harness import (
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_rtp_attack,
)
from repro.resilience import CHECKPOINT_VERSION, CheckpointError
from repro.resilience import checkpoint as checkpoint_mod
from repro.voip.testbed import CLIENT_A_IP

ATTACKS = {
    "bye-attack": run_bye_attack,
    "call-hijack": run_call_hijack,
    "fake-im": run_fake_im,
    "rtp-attack": run_rtp_attack,
}

_FRAMES: dict[str, list] = {}


def _attack_frames(name: str) -> list:
    if name not in _FRAMES:
        trace = ATTACKS[name](seed=7).testbed.ids_tap.trace
        _FRAMES[name] = [(r.frame, r.timestamp) for r in trace.records]
    return _FRAMES[name]


def _replay(engine: ScidiveEngine, frames) -> None:
    for frame, ts in frames:
        engine.process_frame(frame, ts)


class TestRoundtrip:
    def test_fresh_engine_roundtrips(self):
        engine = ScidiveEngine()
        blob = engine.checkpoint()
        other = ScidiveEngine()
        other.restore(blob)
        assert other.stats.frames == 0
        assert other.trails.trail_count == 0

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_mid_scenario_restore_is_detection_equivalent(self, name):
        frames = _attack_frames(name)
        baseline = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(baseline, frames)
        expected = collections.Counter(baseline.alert_log.alerts)
        assert expected  # the scenario must actually alert

        half = len(frames) // 2
        first = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(first, frames[:half])
        blob = first.checkpoint()

        second = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        second.restore(blob)
        _replay(second, frames[half:])
        assert collections.Counter(second.alert_log.alerts) == expected
        assert second.stats.frames == baseline.stats.frames

    def test_trails_roundtrip_as_they_are_live(self):
        """Trails are bounded live, so a snapshot carries each one whole:
        tail, counters and linkage — and taking it leaves them untouched."""
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(engine, _attack_frames("rtp-attack"))

        def view(candidate: ScidiveEngine) -> dict:
            return {
                key: (trail.footprints, trail.first_seen, trail.last_seen,
                      trail.evicted, trail.call_id)
                for key, trail in candidate.trails.trails.items()
            }

        before = view(engine)
        assert any(evicted for *_, evicted, _call_id in before.values())
        assert all(len(tail) <= TRAIL_TAIL for tail, *_ in before.values())
        other = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        other.restore(engine.checkpoint())
        assert view(other) == before == view(engine)
        assert other.trails.size_stats() == engine.trails.size_stats()

    def test_restore_rebuilds_generator_context(self):
        # The restored engine must feed generators the *restored*
        # trackers, not the factory-fresh ones the context was built on.
        frames = _attack_frames("bye-attack")
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(engine, frames[: len(frames) // 2])
        blob = engine.checkpoint()
        other = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        other.restore(blob)
        assert other._ctx.trails is other.trails
        assert other._ctx.sip_state is other.sip_state
        assert other._ctx.registrations is other.registrations

    def test_alert_log_restored_in_place(self):
        # Subscribers attached before restore must keep seeing the log.
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(engine, _attack_frames("bye-attack"))
        blob = engine.checkpoint()
        other = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        log_object = other.alert_log
        other.restore(blob)
        assert other.alert_log is log_object
        assert len(log_object.alerts) == len(engine.alert_log.alerts)


class TestVersionGate:
    def test_bad_magic_raises(self):
        engine = ScidiveEngine()
        with pytest.raises(CheckpointError, match="magic"):
            engine.restore(b"not a checkpoint at all")

    def test_corrupt_payload_raises(self):
        engine = ScidiveEngine()
        with pytest.raises(CheckpointError, match="corrupt"):
            engine.restore(b"SCDV" + b"\x80\x04garbage")

    def test_version_mismatch_raises(self, monkeypatch):
        engine = ScidiveEngine()
        blob = engine.checkpoint()
        monkeypatch.setattr(checkpoint_mod, "CHECKPOINT_VERSION", CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            engine.restore(blob)


    def test_previous_version_blob_is_refused(self):
        """v4 changed what a pickled ``HeaderTable`` holds: a parsed
        message's table is its header block, not its item list (v3).
        The gate refuses a snapshot of any other shape, v3 included."""
        assert CHECKPOINT_VERSION == 4
        blob = b"SCDV" + pickle.dumps({"version": 3})
        with pytest.raises(CheckpointError, match="version 3"):
            ScidiveEngine().restore(blob)


class TestFirewallState:
    def test_quarantine_survives_restore(self):
        engine = ScidiveEngine()
        boom = RuntimeError("boom")
        for _ in range(engine.firewall.threshold):
            tripped = engine.firewall.record_error("rule", "TEST-RULE", boom)
        assert tripped
        blob = engine.checkpoint()
        other = ScidiveEngine()
        other.restore(blob)
        assert other.firewall.is_quarantined("rule", "TEST-RULE")
        assert other.firewall.total_errors == engine.firewall.total_errors


class TestMalformedQuarantine:
    def test_malformed_quarantine_survives_restore(self):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        # An otherwise-valid SIP frame whose header block is not UTF-8:
        # rejected by the decoder, quarantined by the flight recorder.
        from tests.property.test_distiller_fuzz import CRASH_CORPUS

        for n, (_label, frame) in enumerate(CRASH_CORPUS):
            engine.process_frame(frame, float(n))
        records = engine.forensics.malformed_records()
        assert records

        other = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        other.restore(engine.checkpoint())
        restored = other.forensics.malformed_records()
        assert [r.footprint.reason for r in restored] == [
            r.footprint.reason for r in records
        ]
        # The ring keeps working after a restore (sequence ids advance).
        other.process_frame(CRASH_CORPUS[0][1], 99.0)
        ids = [r.record_id for r in other.forensics.malformed_records()]
        assert len(ids) == len(set(ids))
