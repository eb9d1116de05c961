"""Unit tests for the event generators, driven by synthetic footprints."""

from __future__ import annotations

import pytest

from repro.core.distiller import Distiller
from repro.core.event_generators import (
    AccountingGenerator,
    AuthEventGenerator,
    DialogEventGenerator,
    ImSourceGenerator,
    MalformedSipGenerator,
    OrphanRtpGenerator,
    RtpStreamGenerator,
)
from repro.core.events import (
    EVENT_ACCOUNTING_MISMATCH,
    EVENT_ACCOUNTING_TXN,
    EVENT_CALL_ESTABLISHED,
    EVENT_CALL_TORN_DOWN,
    EVENT_IM_RECEIVED,
    EVENT_IM_SENT,
    EVENT_IM_SOURCE_MISMATCH,
    EVENT_MALFORMED_RTP,
    EVENT_MALFORMED_SIP,
    EVENT_MEDIA_REDIRECTED,
    EVENT_ORPHAN_RTP_AFTER_BYE,
    EVENT_ORPHAN_RTP_AFTER_REINVITE,
    EVENT_RTP_JITTER,
    EVENT_RTP_SEQ_ANOMALY,
    EVENT_RTP_SOURCE_MISMATCH,
    GeneratorContext,
)
from repro.core.state import SipStateTracker
from repro.core.trail import TrailManager
from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import build_udp_frame
from repro.rtp.packet import RtpPacket

MAC1 = MacAddress("02:00:00:00:00:01")
MAC2 = MacAddress("02:00:00:00:00:02")
A = IPv4Address.parse("10.0.0.10")
B = IPv4Address.parse("10.0.0.20")
ATT = IPv4Address.parse("10.0.0.66")
PROXY = IPv4Address.parse("10.0.0.1")


class Pipeline:
    """Minimal engine: distiller + trackers + one-or-more generators."""

    def __init__(self, generators, vantage_ip="10.0.0.10"):
        self.distiller = Distiller()
        self.trails = TrailManager()
        self.sip_state = SipStateTracker(self.trails)
        self.generators = generators
        self.ctx = GeneratorContext(
            trails=self.trails,
            sip_state=self.sip_state,
            vantage_ip=vantage_ip,
        )
        self.events = []

    def feed(self, frame: bytes, t: float):
        fp = self.distiller.distill(frame, t)
        if fp is None:
            return []
        from repro.core.footprint import SipFootprint

        trail = self.trails.push(fp)
        if isinstance(fp, SipFootprint):
            self.sip_state.observe(fp, trail)
        new = []
        for gen in self.generators:
            new.extend(gen.on_footprint(fp, trail, self.ctx))
        self.events.extend(new)
        return new

    def names(self):
        return [e.name for e in self.events]


def _sdp(ip: str, port: int) -> bytes:
    return (
        f"v=0\r\no=u 1 1 IN IP4 {ip}\r\ns=-\r\nc=IN IP4 {ip}\r\n"
        f"t=0 0\r\nm=audio {port} RTP/AVP 0\r\n"
    ).encode()


def _sip(start: str, headers: list[str], body: bytes = b"") -> bytes:
    head = [start] + headers
    if body:
        head.append("Content-Type: application/sdp")
    head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def frame(payload, src, dst, sport=5060, dport=5060):
    return build_udp_frame(MAC1, MAC2, src, dst, sport, dport, payload)


def setup_call(pipe: Pipeline, t0: float = 0.0):
    """INVITE + 200 OK establishing alice(A:40000) <-> bob(B:40000)."""
    invite = _sip(
        "INVITE sip:bob@example.com SIP/2.0",
        [
            "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-1",
            "From: <sip:alice@example.com>;tag=a1",
            "To: <sip:bob@example.com>",
            "Call-ID: c1",
            "CSeq: 1 INVITE",
            "Contact: <sip:alice@10.0.0.10:5060>",
        ],
        _sdp("10.0.0.10", 40000),
    )
    ok = _sip(
        "SIP/2.0 200 OK",
        [
            "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-1",
            "From: <sip:alice@example.com>;tag=a1",
            "To: <sip:bob@example.com>;tag=b1",
            "Call-ID: c1",
            "CSeq: 1 INVITE",
            "Contact: <sip:bob@10.0.0.20:5060>",
        ],
        _sdp("10.0.0.20", 40000),
    )
    pipe.feed(frame(invite, A, B), t0)
    pipe.feed(frame(ok, B, A), t0 + 0.1)


def bye_frame(t_from="bob"):
    payload = _sip(
        "BYE sip:alice@10.0.0.10:5060 SIP/2.0",
        [
            "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-bye",
            f"From: <sip:{t_from}@example.com>;tag=b1",
            "To: <sip:alice@example.com>;tag=a1",
            "Call-ID: c1",
            "CSeq: 9 BYE",
        ],
    )
    return frame(payload, ATT, A)


def rtp_frame(seq, src=B, dst=A, sport=40000, dport=40000, ssrc=7):
    packet = RtpPacket(payload_type=0, sequence=seq, timestamp=seq * 160, ssrc=ssrc, payload=b"x" * 160)
    return frame(packet.encode(), src, dst, sport, dport)


class TestDialogEventGenerator:
    def test_established_and_torn_down_emitted_once(self):
        pipe = Pipeline([DialogEventGenerator()])
        setup_call(pipe)
        pipe.feed(bye_frame(), 1.0)
        pipe.feed(bye_frame(), 1.1)  # retransmission
        assert pipe.names().count(EVENT_CALL_ESTABLISHED) == 1
        assert pipe.names().count(EVENT_CALL_TORN_DOWN) == 1

    def test_redirect_event(self):
        pipe = Pipeline([DialogEventGenerator()])
        setup_call(pipe)
        reinv = _sip(
            "INVITE sip:alice@10.0.0.10:5060 SIP/2.0",
            [
                "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-h",
                "From: <sip:bob@example.com>;tag=b1",
                "To: <sip:alice@example.com>;tag=a1",
                "Call-ID: c1",
                "CSeq: 2 INVITE",
            ],
            _sdp("10.0.0.66", 46000),
        )
        pipe.feed(frame(reinv, ATT, A), 1.0)
        redirects = [e for e in pipe.events if e.name == EVENT_MEDIA_REDIRECTED]
        assert len(redirects) == 1
        assert redirects[0].attrs["new"] == "10.0.0.66:46000"


class TestOrphanRtpGenerator:
    def _pipe(self, window=0.5):
        return Pipeline([OrphanRtpGenerator(monitoring_window=window)])

    def test_orphan_after_bye(self):
        pipe = self._pipe()
        setup_call(pipe)
        pipe.feed(bye_frame(), 1.0)
        events = pipe.feed(rtp_frame(5), 1.1)
        assert [e.name for e in events] == [EVENT_ORPHAN_RTP_AFTER_BYE]
        assert events[0].attrs["delay"] == pytest.approx(0.1)
        assert events[0].session == "c1"

    def test_no_orphan_when_rtp_stops(self):
        pipe = self._pipe()
        setup_call(pipe)
        pipe.feed(rtp_frame(1), 0.5)
        pipe.feed(bye_frame(), 1.0)
        # no RTP after the BYE: silence
        assert EVENT_ORPHAN_RTP_AFTER_BYE not in pipe.names()

    def test_watch_expires_after_window(self):
        pipe = self._pipe(window=0.2)
        setup_call(pipe)
        pipe.feed(bye_frame(), 1.0)
        events = pipe.feed(rtp_frame(5), 1.5)  # past the window
        assert events == []

    def test_own_bye_not_monitored(self):
        # BYE sent *by* the protected client (outbound) must not arm.
        pipe = self._pipe()
        setup_call(pipe)
        payload = _sip(
            "BYE sip:bob@10.0.0.20:5060 SIP/2.0",
            [
                "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-own",
                "From: <sip:alice@example.com>;tag=a1",
                "To: <sip:bob@example.com>;tag=b1",
                "Call-ID: c1",
                "CSeq: 2 BYE",
            ],
        )
        pipe.feed(frame(payload, A, B), 1.0)
        # B's last in-flight packet arrives at A just after.
        events = pipe.feed(rtp_frame(5), 1.01)
        assert events == []

    def test_orphan_after_reinvite_watches_old_endpoint(self):
        pipe = self._pipe()
        setup_call(pipe)
        reinv = _sip(
            "INVITE sip:alice@10.0.0.10:5060 SIP/2.0",
            [
                "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-h",
                "From: <sip:bob@example.com>;tag=b1",
                "To: <sip:alice@example.com>;tag=a1",
                "Call-ID: c1",
                "CSeq: 2 INVITE",
            ],
            _sdp("10.0.0.66", 46000),
        )
        pipe.feed(frame(reinv, ATT, A), 1.0)
        events = pipe.feed(rtp_frame(5), 1.05)  # B's old endpoint still talking
        assert EVENT_ORPHAN_RTP_AFTER_REINVITE in [e.name for e in events]

    def test_event_cap_per_watch(self):
        pipe = Pipeline([OrphanRtpGenerator(monitoring_window=5.0, max_events_per_watch=3)])
        setup_call(pipe)
        pipe.feed(bye_frame(), 1.0)
        for i in range(10):
            pipe.feed(rtp_frame(5 + i), 1.1 + i * 0.02)
        assert pipe.names().count(EVENT_ORPHAN_RTP_AFTER_BYE) == 3


class TestRtpStreamGenerator:
    def test_seq_jump_fires(self):
        pipe = Pipeline([RtpStreamGenerator(seq_jump_threshold=100)])
        setup_call(pipe)
        pipe.feed(rtp_frame(10), 0.5)
        events = pipe.feed(rtp_frame(10_000), 0.52)
        assert EVENT_RTP_SEQ_ANOMALY in [e.name for e in events]
        jump = [e for e in events if e.name == EVENT_RTP_SEQ_ANOMALY][0]
        assert abs(jump.attrs["delta"]) > 100

    def test_normal_increments_silent(self):
        pipe = Pipeline([RtpStreamGenerator()])
        setup_call(pipe)
        for i in range(50):
            pipe.feed(rtp_frame(i), 0.5 + i * 0.02)
        assert EVENT_RTP_SEQ_ANOMALY not in pipe.names()

    def test_wild_packet_does_not_reanchor(self):
        pipe = Pipeline([RtpStreamGenerator()])
        setup_call(pipe)
        pipe.feed(rtp_frame(10), 0.5)
        pipe.feed(rtp_frame(20_000, src=ATT, sport=45000, ssrc=99), 0.51)
        # Legit stream continues: must NOT alarm again.
        events = pipe.feed(rtp_frame(11), 0.52)
        assert EVENT_RTP_SEQ_ANOMALY not in [e.name for e in events]

    def test_rogue_source_fires(self):
        pipe = Pipeline([RtpStreamGenerator()])
        setup_call(pipe)
        events = pipe.feed(rtp_frame(1, src=ATT, sport=45000, ssrc=99), 0.5)
        assert EVENT_RTP_SOURCE_MISMATCH in [e.name for e in events]

    def test_negotiated_source_clean(self):
        pipe = Pipeline([RtpStreamGenerator()])
        setup_call(pipe)
        events = pipe.feed(rtp_frame(1), 0.5)  # from B's negotiated endpoint
        assert EVENT_RTP_SOURCE_MISMATCH not in [e.name for e in events]

    def test_jitter_event_on_reordering(self):
        pipe = Pipeline([RtpStreamGenerator(jitter_reorder_threshold=2)])
        setup_call(pipe)
        for seq in [5, 3, 2]:  # two consecutive out-of-order arrivals
            pipe.feed(rtp_frame(seq), 0.5 + seq * 0.001)
        assert EVENT_RTP_JITTER in pipe.names()

    def test_malformed_rtp_event(self):
        pipe = Pipeline([RtpStreamGenerator()])
        setup_call(pipe)
        garbage = frame(b"\x01" * 40, ATT, A, sport=45000, dport=40000)
        events = pipe.feed(garbage, 0.5)
        assert EVENT_MALFORMED_RTP in [e.name for e in events]

    def test_outbound_rtp_ignored_with_vantage(self):
        pipe = Pipeline([RtpStreamGenerator()], vantage_ip="10.0.0.10")
        setup_call(pipe)
        events = pipe.feed(rtp_frame(1, src=A, dst=B), 0.5)
        assert events == []


class TestImSourceGenerator:
    def _message(self, src_ip, text=b"hi", from_aor="bob"):
        payload = _sip(
            "MESSAGE sip:alice@example.com SIP/2.0",
            [
                f"Via: SIP/2.0/UDP {src_ip}:5060;branch=z9hG4bK-m",
                f"From: <sip:{from_aor}@example.com>;tag=m1",
                "To: <sip:alice@example.com>",
                "Call-ID: im-1",
                "CSeq: 1 MESSAGE",
            ],
        )
        return frame(payload + text, IPv4Address.parse(src_ip), A)

    def test_consistent_source_clean(self):
        pipe = Pipeline([ImSourceGenerator()])
        pipe.feed(self._message("10.0.0.1"), 1.0)
        pipe.feed(self._message("10.0.0.1"), 2.0)
        assert EVENT_IM_SOURCE_MISMATCH not in pipe.names()
        assert pipe.names().count(EVENT_IM_RECEIVED) == 2

    def test_source_change_within_window_fires(self):
        pipe = Pipeline([ImSourceGenerator(mobility_window=60.0)])
        pipe.feed(self._message("10.0.0.1"), 1.0)
        events = pipe.feed(self._message("10.0.0.66"), 2.0)
        mismatches = [e for e in events if e.name == EVENT_IM_SOURCE_MISMATCH]
        assert len(mismatches) == 1
        assert mismatches[0].attrs["expected_ip"] == "10.0.0.1"
        assert mismatches[0].attrs["actual_ip"] == "10.0.0.66"

    def test_source_change_after_window_allowed(self):
        pipe = Pipeline([ImSourceGenerator(mobility_window=10.0)])
        pipe.feed(self._message("10.0.0.1"), 1.0)
        events = pipe.feed(self._message("10.0.0.30"), 100.0)  # user moved
        assert EVENT_IM_SOURCE_MISMATCH not in [e.name for e in events]

    def test_forged_message_does_not_reanchor(self):
        pipe = Pipeline([ImSourceGenerator(mobility_window=60.0)])
        pipe.feed(self._message("10.0.0.1"), 1.0)
        pipe.feed(self._message("10.0.0.66"), 2.0)  # forged: mismatch
        events = pipe.feed(self._message("10.0.0.66"), 3.0)  # forged again
        assert EVENT_IM_SOURCE_MISMATCH in [e.name for e in events]

    def test_outbound_message_emits_im_sent(self):
        pipe = Pipeline([ImSourceGenerator()], vantage_ip="10.0.0.20")
        payload = _sip(
            "MESSAGE sip:alice@example.com SIP/2.0",
            [
                "Via: SIP/2.0/UDP 10.0.0.20:5060;branch=z9hG4bK-m",
                "From: <sip:bob@example.com>;tag=m1",
                "To: <sip:alice@example.com>",
                "Call-ID: im-2",
                "CSeq: 1 MESSAGE",
            ],
        ) + b"hello"
        events = pipe.feed(frame(payload, B, PROXY), 1.0)
        assert [e.name for e in events] == [EVENT_IM_SENT]
        assert "digest" in events[0].attrs


class TestMalformedSipGenerator:
    def test_fires_on_malformed(self):
        pipe = Pipeline([MalformedSipGenerator()])
        bad = b"INVITE broken\r\n\r\n"
        events = pipe.feed(frame(bad, ATT, PROXY), 1.0)
        assert [e.name for e in events] == [EVENT_MALFORMED_SIP]

    def test_clean_sip_silent(self):
        pipe = Pipeline([MalformedSipGenerator()])
        setup_call(pipe)
        assert pipe.names() == []


class TestAccountingGenerator:
    def _txn(self, from_aor="alice@example.com", call_id="c1"):
        payload = (
            f"TXN action=start call_id={call_id} from={from_aor} to=bob@example.com ts=1.0"
        ).encode()
        return frame(payload, PROXY, B, sport=9091, dport=9090)

    def test_matched_txn_no_mismatch(self):
        pipe = Pipeline([AccountingGenerator()], vantage_ip=None)
        setup_call(pipe)
        events = pipe.feed(self._txn(), 1.0)
        names = [e.name for e in events]
        assert EVENT_ACCOUNTING_TXN in names
        assert EVENT_ACCOUNTING_MISMATCH not in names

    def test_unmatched_txn_mismatch(self):
        pipe = Pipeline([AccountingGenerator()], vantage_ip=None)
        setup_call(pipe)  # alice->bob invite seen for c1
        events = pipe.feed(self._txn(from_aor="victim@example.com", call_id="c2"), 1.0)
        assert EVENT_ACCOUNTING_MISMATCH in [e.name for e in events]

    def test_invite_without_call_id_legitimises_no_bill(self):
        """An INVITE that names no Call-ID sets up no call, so it cannot
        match a TXN — not even one billing the empty Call-ID."""
        pipe = Pipeline([AccountingGenerator()], vantage_ip=None)
        invite = _sip(
            "INVITE sip:bob@example.com SIP/2.0",
            [
                "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-1",
                "From: <sip:alice@example.com>;tag=a1",
                "To: <sip:bob@example.com>",
                "CSeq: 1 INVITE",
            ],
        )
        pipe.feed(frame(invite, A, B), 0.0)
        events = pipe.feed(self._txn(call_id=""), 1.0)
        assert EVENT_ACCOUNTING_MISMATCH in [e.name for e in events]

    def test_stop_txn_never_mismatches(self):
        pipe = Pipeline([AccountingGenerator()], vantage_ip=None)
        payload = b"TXN action=stop call_id=zz from=x@h to=y@h ts=2.0"
        events = pipe.feed(frame(payload, PROXY, B, sport=9091, dport=9090), 1.0)
        assert EVENT_ACCOUNTING_MISMATCH not in [e.name for e in events]


class TestAuthEventGenerator:
    def test_events_from_flood(self):
        from tests.core.test_state import reg_response, register

        pipe = Pipeline([AuthEventGenerator()], vantage_ip=None)
        pipe.feed(frame(register("dos", 1), ATT, PROXY), 0.0)
        pipe.feed(frame(reg_response("dos", 1, 401), PROXY, ATT), 0.1)
        for i in range(2, 5):
            pipe.feed(frame(register("dos", i), ATT, PROXY), 0.1 * i)
        from repro.core.events import EVENT_REPEATED_UNAUTH_REGISTER

        assert pipe.names().count(EVENT_REPEATED_UNAUTH_REGISTER) == 3
