"""Detection-state checkpoints: roundtrip fidelity and version gating.

The contract under test: an engine restored from a checkpoint must be
*detection-equivalent* to the engine that took it — same alerts already
raised, same alerts still to come for the remainder of the scenario.
"""

from __future__ import annotations

import collections
import pickle

import pytest

from repro.core.distiller import Distiller
from repro.core.engine import ScidiveEngine
from repro.core.footprint import SipFootprint
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
        """A trail is an index entry, so a snapshot carries each one whole:
        counters, last endpoints and linkage — and taking it leaves them
        untouched."""
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(engine, _attack_frames("rtp-attack"))

        def view(candidate: ScidiveEngine) -> dict:
            calls = candidate.trails.calls.values()
            return {
                key: (trail.count, trail.first_seen, trail.last_seen,
                      trail.src, trail.dst, trail.call_id)
                for key, trail in [*candidate.trails.trails.items(),
                                   *((call.key, call) for call in calls)]
            }

        before = view(engine)
        assert max(count for count, *_ in before.values()) > 1
        assert any(call_id is not None for *_, call_id in before.values())
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

    def test_reinvite_after_restore_writes_fresh_containers(self):
        """Checkpoint right before the hijack's re-INVITE: the restored
        call's media and redirects must take the write (they were
        allocated lazily, or not at all) and match the uninterrupted
        run, without touching the engine the snapshot came from."""
        frames = _attack_frames("call-hijack")
        distiller = Distiller()
        reinvite = next(
            n for n, (frame, ts) in enumerate(frames)
            if isinstance(fp := distiller.distill(frame, ts), SipFootprint)
            and fp.message.is_request and fp.message.method == "INVITE"
            and fp.message.to_addr.tag is not None
        )
        baseline = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(baseline, frames)
        first = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(first, frames[:reinvite])
        assert not any(call.redirects for call in first.trails.calls.values())
        second = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        second.restore(first.checkpoint())
        _replay(second, frames[reinvite:])

        def view(engine: ScidiveEngine) -> dict:
            return {
                "redirects": {
                    cid: list(call.redirects) for cid, call in engine.trails.calls.items()
                },
                "media": {cid: dict(call.media) for cid, call in engine.trails.calls.items()},
                "call_for_media": {
                    endpoint: engine.sip_state.call_for_media(endpoint).call_id
                    for call in engine.trails.calls.values()
                    for endpoint in call.media.values()
                },
                "media_owners": {
                    key: (entry.linked, entry.role and entry.role.call_id)
                    for key, entry in engine.trails.media.items()
                },
                "session_media": {
                    cid: dict(c.media_endpoints) for cid, c in engine.trails.calls.items()
                },
                "alerts": collections.Counter(engine.alert_log.alerts),
            }

        expected = view(baseline)
        assert any(expected["redirects"].values()) and expected["alerts"]
        assert view(second) == expected
        # The snapshot's source is untouched by the restored engine's writes.
        assert not any(call.redirects for call in first.trails.calls.values())
        for cid, call in second.trails.calls.items():
            original = first.trails.calls.get(cid)
            if original is not None and call._media is not None:
                assert call._media is not original._media

    def test_trackers_share_one_call_table_after_restore(self):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        _replay(engine, _attack_frames("bye-attack"))
        other = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        other.restore(engine.checkpoint())
        assert other.trails.calls.keys() == engine.trails.calls.keys()
        assert other.sip_state._calls is other.trails.calls

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
        """v10 moved the RTP flows from the ``rtp-stream`` generator's
        state into the trail manager's media table; v9 moved registration
        progress onto ``CallEntry`` (no ``registrations`` slot).  The gate
        refuses a snapshot of any other shape, v9 included."""
        assert CHECKPOINT_VERSION == 10
        payload = pickle.loads(ScidiveEngine().checkpoint()[len(b"SCDV"):])
        payload.update(version=9)
        blob = b"SCDV" + pickle.dumps(payload)
        with pytest.raises(CheckpointError, match="version 9"):
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
