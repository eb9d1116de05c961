"""Alert forensics: provenance graphs, flight recorder, evidence bundles."""

from __future__ import annotations

import gc
from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.core.alerts import Alert, Severity
from repro.core.engine import ScidiveEngine
from repro.core.events import Event
from repro.core.export import alert_to_dict
from repro.core.footprint import MalformedFootprint, Protocol, RtpFootprint
from repro.core.rules_library import RULE_BYE_ATTACK
from repro.core.trail import TRAIL_TAIL
from repro.experiments.harness import (
    run_billing_fraud,
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
)
from repro.net.addr import Endpoint, IPv4Address, MacAddress
from repro.net.pcap import read_pcap
from repro.obs import parse_prometheus
from repro.obs.forensics import (
    DEFAULT_RING_CAPACITY,
    ForensicsRecorder,
    ProvenanceGraph,
    format_bundle,
    list_bundles,
    load_bundle,
)
from repro.workload import ATTACK_KINDS, DEFAULT_SCENARIO, FLOOD_KINDS, AttackMix, generate_workload
from tests.core.test_distiller_trail import rtp_frame
from tests.property.test_distiller_fuzz import CRASH_CORPUS

# One sim-clock tick in the testbed (frames are spaced 0.5 ms apart), the
# allowed slack between the derived per-alert delay and the harness view.
ONE_TICK = 0.005

PAPER_ATTACKS = [run_bye_attack, run_call_hijack, run_billing_fraud, run_fake_im]


@pytest.fixture(scope="module")
def bye_result():
    return run_bye_attack(seed=7)


class TestProvenance:
    @pytest.mark.parametrize("runner", PAPER_ATTACKS, ids=lambda r: r.__name__)
    def test_paper_attacks_carry_provenance(self, runner):
        result = runner(seed=7)
        assert result.alerts, f"{runner.__name__} raised no alerts"
        tap = result.testbed.ids_tap.trace.records
        for alert in result.alerts:
            assert alert.alert_id.startswith(f"{result.engine.name}-")
            graph = alert.provenance
            assert graph is not None and graph
            assert graph.frames and graph.footprints and graph.events
            # Leaf frames are the real captured frames: frame_no indexes
            # into the tap trace and timestamp/size must agree with it.
            for frame in graph.frames:
                record = tap[frame["frame_no"] - 1]
                assert round(record.timestamp, 6) == frame["timestamp"]
                assert len(record.frame) == frame["bytes"]

    def test_graph_structure_and_render(self, bye_result):
        graph = bye_result.alerts_for(RULE_BYE_ATTACK)[0].provenance
        nodes = {e["node"] for e in graph.frames + graph.footprints + graph.events}
        nodes.add(f"alert:{graph.alert_id}")
        for src, dst in graph.edges:
            assert src in nodes and dst in nodes
        rendered = graph.render()
        assert f"alert:{graph.alert_id}" in rendered
        assert "frame:" in rendered and "footprint:" in rendered

    def test_detection_delay_matches_harness_within_one_tick(self, bye_result):
        alert = bye_result.alerts_for(RULE_BYE_ATTACK)[0]
        derived = alert.detection_delay
        harness = bye_result.detection_delay(RULE_BYE_ATTACK)
        assert derived is not None and derived > 0
        assert harness is not None
        assert abs(derived - harness) <= ONE_TICK

    def test_delay_histogram_populated_under_observability(self):
        ctx = obs.enable(trace=False)
        try:
            run_bye_attack(seed=7)
        finally:
            obs.disable()
        families = parse_prometheus(ctx.registry.render_prometheus())
        hist = families["scidive_detection_delay_seconds"]
        key = ('scidive_detection_delay_seconds_count'
               '{engine="scidive",rule_id="BYE-001"}')
        assert hist[key] >= 1

    def test_alert_to_dict_is_the_shared_serialization(self, bye_result):
        alert = bye_result.alerts_for(RULE_BYE_ATTACK)[0]
        payload = alert.to_dict()
        assert alert_to_dict(alert) == payload
        assert payload["alert_id"] == alert.alert_id
        assert payload["provenance"]["frames"] == len(alert.provenance.frames)
        assert payload["detection_delay"] == round(alert.detection_delay, 6)


def _media_footprint(i: int, session: int) -> RtpFootprint:
    """Synthetic RTP footprint; each ``session`` is a distinct media flow."""
    return RtpFootprint(
        timestamp=float(i) * 0.001,
        src=Endpoint(IPv4Address.parse("10.0.0.20"), 40000),
        dst=Endpoint(IPv4Address(0x0A000000 + session), 40000),
        src_mac=MacAddress("02:00:00:00:00:01"),
        dst_mac=MacAddress("02:00:00:00:00:02"),
        wire_bytes=64,
        ssrc=1,
        sequence=i & 0xFFFF,
    )


class TestFlightRecorderBounds:
    def test_ring_capacity_bounds_one_session(self):
        recorder = ForensicsRecorder(ring_capacity=8, max_sessions=16)
        for i in range(100):
            recorder.record_frame(i + 1, b"x" * 64, i * 0.001,
                                  _media_footprint(i, session=1))
        assert recorder.session_count == 1
        assert recorder.record_count == 8
        assert recorder.frames_recorded == 100

    def test_ten_thousand_sessions_stay_bounded_and_tear_down(self):
        recorder = ForensicsRecorder(ring_capacity=4, max_sessions=256)
        n_sessions = 10_000
        for i in range(n_sessions):
            recorder.record_frame(i + 1, b"x" * 64, i * 0.001,
                                  _media_footprint(i, session=i))
        assert recorder.session_count == 256
        assert recorder.sessions_evicted == n_sessions - 256
        # One record per surviving single-frame session: evicted
        # sessions took their records with them.
        assert recorder.record_count == 256
        # Idle expiry (the housekeeping path) empties everything.
        dropped = recorder.expire_idle(now=1e9, timeout=1.0)
        assert dropped == 256
        assert recorder.session_count == 0
        assert recorder.record_count == 0

    def test_lru_keeps_the_active_session(self):
        recorder = ForensicsRecorder(ring_capacity=4, max_sessions=8)
        for i in range(64):
            # Session 0 is touched every other frame; the rest churn.
            session = 0 if i % 2 == 0 else i
            recorder.record_frame(i + 1, b"x" * 64, i * 0.001,
                                  _media_footprint(i, session=session))
        keys = list(recorder._sessions)
        assert ("flow", 0x0A000000, 40000) in keys

    def test_rejects_degenerate_limits(self):
        with pytest.raises(ValueError):
            ForensicsRecorder(ring_capacity=0)
        with pytest.raises(ValueError):
            ForensicsRecorder(max_sessions=0)


def _malformed_footprint(i: int) -> MalformedFootprint:
    media = _media_footprint(i, session=0)
    return MalformedFootprint(
        timestamp=media.timestamp, src=media.src, dst=media.dst, src_mac=media.src_mac,
        dst_mac=media.dst_mac, wire_bytes=64, claimed_protocol=Protocol.SIP, reason=f"bad {i}",
    )


class TestRingModel:
    """A session ring holds exactly what ``deque(maxlen=ring_capacity)``
    would: the last ``ring_capacity`` records, oldest first."""

    @given(
        capacity=st.integers(min_value=1, max_value=6),
        sessions=st.lists(st.integers(min_value=0, max_value=3), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_ring_equals_a_bounded_deque_after_any_appends(self, capacity, sessions):
        recorder = ForensicsRecorder(ring_capacity=capacity, max_sessions=8)
        oracle: dict[tuple, deque] = {}
        for i, session in enumerate(sessions):
            footprint = _media_footprint(i, session=session)
            recorder.record_frame(i + 1, b"x", footprint.timestamp, footprint)
            key = ("flow", footprint.dst.ip.packed, footprint.dst.port)
            oracle.setdefault(key, deque(maxlen=capacity)).append(i + 1)
        assert {
            key: [record.frame_no for record in ring.records]
            for key, ring in recorder._sessions.items()
        } == {key: list(ring) for key, ring in oracle.items()}
        assert all(type(ring.records) is list for ring in recorder._sessions.values())

    @given(
        capacity=st.integers(min_value=1, max_value=6),
        live=st.integers(min_value=0, max_value=8),
        loaded=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_loading_the_quarantine_trims_the_same_way(self, capacity, live, loaded):
        source = ForensicsRecorder(ring_capacity=64)
        for i in range(loaded):
            fp = _malformed_footprint(100 + i)
            source.record_frame(100 + i, b"m", fp.timestamp, fp)
        recorder = ForensicsRecorder(ring_capacity=capacity)
        for i in range(live):
            fp = _malformed_footprint(i)
            recorder.record_frame(i + 1, b"m", fp.timestamp, fp)
        recorder.load_malformed_state(source.malformed_state())
        oracle = deque(maxlen=capacity)
        oracle.extend(range(1, live + 1))
        oracle.extend(range(100, 100 + loaded))
        assert [record.frame_no for record in recorder.malformed_records()] == list(oracle)


class IdentityMapRecorder(ForensicsRecorder):
    """The recorder before alert-time resolution, kept as the oracle: an
    ``id()``-keyed map from footprint to record holding exactly what the
    rings hold (the invariant the per-frame store / per-eviction pop
    maintained), consulted without any session key."""

    def _build_graph(self, alert, alert_id):
        self._by_fp = {
            id(record.footprint): record
            for ring in self._sessions.values()
            for record in ring.records
        }
        return super()._build_graph(alert, alert_id)

    def _record_for(self, fp):
        return self._by_fp.get(id(fp))


def _attack_trace(runner):
    return runner(seed=7).testbed.ids_tap.trace


def _workload_trace():
    spec = DEFAULT_SCENARIO.with_overrides(
        name="forensics-oracle", subscribers=16, duration=1200.0, seed=99,
        attacks=tuple(
            AttackMix(kind=kind, count=1) for kind in ATTACK_KINDS if kind not in FLOOD_KINDS
        ),
    )
    return generate_workload(spec).trace


ORACLE_TRACES = {
    **{runner.__name__: partial(_attack_trace, runner) for runner in PAPER_ATTACKS},
    "generated-workload": _workload_trace,
}


def _alert_on(*evidence) -> Alert:
    event = Event(name="test-event", time=1.0, session="", evidence=evidence)
    return Alert(
        rule_id="TEST-001", rule_name="test", time=1.0, session="",
        severity=Severity.HIGH, attack_class="test", message="m", events=(event,),
    )


class TestAlertTimeResolution:
    """Evidence resolves to frames by scanning one ring when an alert
    fires — the answer the per-frame identity map used to give."""

    @pytest.mark.parametrize("limits", [{}, {"ring_capacity": 4, "max_sessions": 6}],
                             ids=["default-limits", "tiny-rings"])
    @pytest.mark.parametrize("source", ORACLE_TRACES)
    def test_every_graph_equals_the_identity_map_oracle(self, source, limits):
        trace = ORACLE_TRACES[source]()
        graphs = []
        for recorder in (ForensicsRecorder(**limits), IdentityMapRecorder(**limits)):
            engine = ScidiveEngine(forensics=recorder)
            if limits:  # ...and sweep often, so rings also leave by idle expiry
                engine.housekeeping_every, engine.state_idle_timeout = 64, 20.0
            for record in trace:
                engine.process_frame(record.frame, record.timestamp)
            graphs.append([alert.provenance.to_dict() for alert in engine.alerts])
        scanned, oracle = graphs
        assert scanned and scanned == oracle
        unresolved = sum(
            "frame_no" not in fp for graph in scanned for fp in graph["footprints"]
        )
        # Every frame is still in its ring at the default limits; the
        # tiny rings lose evidence on the longer traces — identically.
        assert not unresolved or limits

    @pytest.mark.parametrize("cause", ["ring-overflow", "lru-eviction", "idle-expiry"])
    def test_evidence_that_left_its_ring_is_a_bare_footprint_node(self, cause):
        recorder = ForensicsRecorder(ring_capacity=4, max_sessions=2)
        gone, kept = _media_footprint(0, session=1), _media_footprint(1, session=1)
        recorder.record_frame(1, b"gone", 0.0, gone)
        if cause == "ring-overflow":
            for i in range(2, 6):
                recorder.record_frame(i, b"x", i * 0.001, _media_footprint(i, session=1))
        elif cause == "lru-eviction":
            for session in (2, 3):
                recorder.record_frame(session, b"x", 0.001, _media_footprint(2, session=session))
        else:
            assert recorder.expire_idle(now=100.0, timeout=1.0) == 1
        recorder.record_frame(9, b"kept", 0.009, kept)
        alert = _alert_on(gone, kept)
        recorder.on_alert(alert)
        graph = alert.provenance
        assert [("frame_no" in fp) for fp in graph.footprints] == [False, True]
        assert [frame["frame_no"] for frame in graph.frames] == [9]
        frame_edges = [edge for edge in graph.edges if edge[0].startswith("frame:")]
        assert frame_edges == [[graph.frames[0]["node"], "footprint:1"]]

    def test_evidence_held_across_sessions_resolves_in_both_rings(self, bye_result):
        """BYE-001's evidence spans two rings: the BYE that armed the
        watch (the call's ring) and the orphan RTP packet (its flow's)."""
        graph = bye_result.alerts_for(RULE_BYE_ATTACK)[0].provenance
        assert sorted(fp["protocol"] for fp in graph.footprints) == ["rtp", "sip"]
        assert all("frame_no" in fp for fp in graph.footprints)
        assert sorted(frame["protocol"] for frame in graph.frames) == ["rtp", "sip"]
        rings = bye_result.engine.forensics._sessions
        held = {
            record.frame_no: key[0] for key, ring in rings.items() for record in ring.records
        }
        assert sorted(held[frame["frame_no"]] for frame in graph.frames) == ["call", "flow"]

    def test_restored_quarantine_ring_resolves_evidence(self):
        engine = ScidiveEngine()
        for n, (_label, frame) in enumerate(CRASH_CORPUS):
            engine.process_frame(frame, float(n))
        before = engine.forensics.malformed_records()
        other = ScidiveEngine()
        other.restore(engine.checkpoint())
        restored = other.forensics.malformed_records()
        assert restored and [r.frame for r in restored] == [r.frame for r in before]
        assert other.forensics.record_count == len(restored)
        alert = _alert_on(restored[0].footprint, restored[-1].footprint)
        other.forensics.on_alert(alert)
        assert [frame["frame_no"] for frame in alert.provenance.frames] == [
            restored[0].frame_no, restored[-1].frame_no,
        ]
        # A footprint from the engine that took the snapshot is equal to
        # its restored copy but not the same object: evidence is matched
        # by identity, as the map matched it.
        stranger = _alert_on(before[0].footprint)
        other.forensics.on_alert(stranger)
        assert not stranger.provenance.frames


class TestRetainedFootprintCensus:
    """The deterministic guard behind the peak-RSS claim: per-packet
    history is kept once (the flight recorder's rings) and bounded (the
    trail tails), whatever the number of frames."""

    FLOWS, FRAMES = 20, 20_000
    SLACK = 8

    @staticmethod
    def _census() -> int:
        gc.collect()
        return sum(isinstance(obj, RtpFootprint) for obj in gc.get_objects())

    @classmethod
    def _live_rtp_footprints(cls, forensics: bool) -> int:
        before = cls._census()  # other tests' engines may still be alive
        engine = ScidiveEngine(forensics=forensics)
        for n in range(cls.FRAMES):
            flow = n % cls.FLOWS
            frame = rtp_frame(
                seq=n // cls.FLOWS, src_port=40000 + 2 * flow, dst_port=42000 + 2 * flow,
                ssrc=flow + 1,
            )
            engine.process_frame(frame, n * 0.001)
        assert engine.stats.footprints == cls.FRAMES and not engine.alerts
        assert engine.trails.size_stats()["footprints_retained"] <= cls.FLOWS * TRAIL_TAIL
        return cls._census() - before

    def test_with_the_flight_recorder(self):
        live = self._live_rtp_footprints(forensics=True)
        assert live <= self.FLOWS * (DEFAULT_RING_CAPACITY + TRAIL_TAIL) + self.SLACK

    def test_with_forensics_off(self):
        live = self._live_rtp_footprints(forensics=False)
        assert live <= self.FLOWS * TRAIL_TAIL + self.SLACK


class TestEvidenceBundles:
    def test_bundle_roundtrip_and_explain_cli(self, tmp_path, capsys):
        bundles = tmp_path / "bundles"
        tap_pcap = tmp_path / "tap.pcap"
        assert main(["scenario", "bye-attack",
                     "--bundle-dir", str(bundles),
                     "--pcap", str(tap_pcap)]) == 0
        capsys.readouterr()
        assert list_bundles(bundles) == ["scidive-1"]

        bundle = load_bundle(bundles, "scidive-1")
        assert bundle["alert"]["rule_id"] == "BYE-001"
        graph = ProvenanceGraph.from_dict(bundle["provenance"])
        assert graph.frames and graph.detection_delay > 0
        text = format_bundle(bundle)
        assert "BYE-001" in text and "Provenance" in text and "Timeline:" in text

        # The bundle pcap holds genuine captured frames (byte-identical
        # to the tap capture) and matches the JSON timeline 1:1.
        tap_bytes = {record.frame for record in read_pcap(tap_pcap)}
        bundle_trace = read_pcap(bundles / "scidive-1.pcap")
        assert len(bundle_trace) == len(bundle["frames"]) > 0
        assert all(record.frame in tap_bytes for record in bundle_trace)
        assert any(frame["in_provenance"] for frame in bundle["frames"])

        # `repro explain` renders the story from the bundle alone.
        assert main(["explain", "scidive-1", "--bundle-dir", str(bundles)]) == 0
        out = capsys.readouterr().out
        assert "ALERT scidive-1" in out
        assert "detection delay" in out
        assert "Timeline:" in out

    def test_explain_unknown_alert_lists_available(self, tmp_path, capsys):
        bundles = tmp_path / "bundles"
        assert main(["scenario", "bye-attack", "--bundle-dir", str(bundles)]) == 0
        capsys.readouterr()
        assert main(["explain", "nope", "--bundle-dir", str(bundles)]) == 2
        err = capsys.readouterr().err
        assert "no bundle for 'nope'" in err
        assert "scidive-1" in err

    def test_bundle_dir_config_is_restored_after_the_run(self, tmp_path):
        assert obs.default_forensics_config().bundle_dir is None
        assert main(["scenario", "bye-attack",
                     "--bundle-dir", str(tmp_path / "b")]) == 0
        assert obs.default_forensics_config().bundle_dir is None
