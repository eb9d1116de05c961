"""Housekeeping bounds every generator table by the one idle rule.

Each test feeds N distinct inputs of one kind — the kind a flood varies
to grow a table — then runs one housekeeping sweep past the idle
timeout, after which the table the inputs grew must be empty, as must
the call and media tables.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ScidiveEngine
from repro.h323.h225 import H225_PORT, H225Message, MessageType
from repro.net.addr import Endpoint, IPv4Address
from repro.net.packet import build_udp_frame
from repro.obs import parse_prometheus
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import Bye
from tests.core.test_state import MAC1, MAC2, _sdp, _sip, bye, invite, ok_response, register

A = IPv4Address.parse("10.0.0.10")  # the protected endpoint
B = IPv4Address.parse("10.0.0.20")
PROXY = IPv4Address.parse("10.0.0.1")
N = 40


def _engine(**kwargs) -> ScidiveEngine:
    engine = ScidiveEngine(vantage_ip=str(A), forensics=False, **kwargs)
    engine.housekeeping_every = 0  # only the explicit sweep below
    return engine


def _feed(engine: ScidiveEngine, frames: list[bytes]) -> float:
    """Feed ``frames`` 10 ms apart; returns the last timestamp."""
    for n, frame in enumerate(frames):
        engine.process_frame(frame, 0.01 * n)
    return 0.01 * (len(frames) - 1)


def _sweep(engine: ScidiveEngine, last: float) -> None:
    engine.housekeep(last + engine.state_idle_timeout + 1)
    assert engine.trails.calls == {}
    assert engine.trails.trails == {}
    assert engine.trails.media == {}


def _anchors(engine: ScidiveEngine) -> int:
    """RTP flows with a sequence anchor (media entries with a flow)."""
    return sum(1 for entry in engine.trails.media.values() if entry.last_seq is not None)


def _generator(engine: ScidiveEngine, name: str):
    return next(g for g in engine.generators if g.name == name)


def _rtp(dst_port: int, ssrc: int = 7, seq: int = 1) -> bytes:
    packet = RtpPacket(payload_type=0, sequence=seq, timestamp=160 * seq, ssrc=ssrc,
                       payload=b"x" * 20)
    return build_udp_frame(MAC1, MAC2, B, A, 50000, dst_port, packet.encode())


def _im(sender: str) -> bytes:
    payload = _sip(
        "MESSAGE sip:alice@example.com SIP/2.0",
        [
            "Via: SIP/2.0/UDP 10.0.0.20:5060;branch=z9hG4bK-m",
            f"From: <sip:{sender}@example.com>;tag=m1",
            "To: <sip:alice@example.com>",
            f"Call-ID: im-{sender}",
            "CSeq: 1 MESSAGE",
        ],
    ) + b"hi"
    return build_udp_frame(MAC1, MAC2, B, A, 5060, 5060, payload)


def _h225(crv: int, message_type: MessageType, dst=A, media=True) -> bytes:
    message = H225Message(
        message_type=message_type, call_reference=crv, calling_party="bob",
        called_party="alice", media=Endpoint(B, 30000 + 2 * crv) if media else None,
    )
    return build_udp_frame(MAC1, MAC2, B, dst, 40000, H225_PORT, message.encode())


class TestEveryTableIsSwept:
    def test_rtp_flows_per_destination_port(self):
        engine = _engine()
        last = _feed(engine, [_rtp(40000 + 2 * n) for n in range(N)])
        assert _anchors(engine) == N
        _sweep(engine, last)

    def test_ssrc_owners_per_ssrc(self):
        engine = _engine()
        last = _feed(engine, [_rtp(40000, ssrc=1000 + n, seq=n + 1) for n in range(N)])
        owners = _generator(engine, "ssrc-track")._owners
        assert len(owners) == N
        _sweep(engine, last)
        assert owners == {}

    def test_im_senders_per_aor(self):
        engine = _engine()
        last = _feed(engine, [_im(f"user{n}") for n in range(N)])
        senders = _generator(engine, "im-source")._senders
        assert len(senders) == N
        _sweep(engine, last)
        assert senders == {}

    def test_rtcp_bye_watches_per_ssrc(self):
        engine = _engine()
        frames = [
            build_udp_frame(MAC1, MAC2, B, A, 40001, 40001, Bye(ssrcs=(500 + n,)).encode())
            for n in range(N)
        ]
        last = _feed(engine, frames)
        watches = _generator(engine, "rtcp-bye")._watches
        assert len(watches) == N
        _sweep(engine, last)
        assert watches == {}

    def test_orphan_watches_per_bye(self):
        engine = _engine()
        frames = []
        for n in range(N):
            call_id, port = f"call-{n}", 40000 + 2 * n
            frames.append(build_udp_frame(
                MAC1, MAC2, A, B, 5060, 5060, invite(_sdp(str(A), port), call_id=call_id)
            ))
            frames.append(build_udp_frame(
                MAC1, MAC2, B, A, 5060, 5060, ok_response(_sdp(str(B), port), call_id=call_id)
            ))
            frames.append(build_udp_frame(MAC1, MAC2, B, A, 5060, 5060, bye(call_id=call_id)))
        last = _feed(engine, frames)
        generator = _generator(engine, "orphan-rtp")
        assert len(generator._watches) == N
        _sweep(engine, last)
        assert generator._watches == []

    def test_registration_sessions_per_call_id(self):
        engine = _engine(metrics_enabled=True)
        frames = [
            build_udp_frame(MAC1, MAC2, B, PROXY, 5060, 5060, register(f"reg-{n}", 1))
            for n in range(N)
        ]
        last = _feed(engine, frames)
        assert engine.sip_state.registration_count == N
        _sweep(engine, last)
        families = parse_prometheus(engine.metrics_registry().render_prometheus())
        gauge = families["scidive_registration_sessions"]
        assert gauge['scidive_registration_sessions{engine="scidive"}'] == 0

    def test_h323_calls_per_crv(self):
        engine = _engine()
        frames = []
        for crv in range(1, N + 1):
            frames.append(_h225(crv, MessageType.SETUP, dst=PROXY))
            frames.append(_h225(crv, MessageType.RELEASE_COMPLETE))
        last = _feed(engine, frames)
        generator = _generator(engine, "h323-orphan")
        assert len(generator._calls) == N
        _sweep(engine, last)
        assert generator._calls == {}
        assert generator._watches == []


class TestSweepKeepsLiveState:
    @pytest.mark.parametrize("idle", [1.0, 599.0])
    def test_entries_seen_within_the_timeout_stay(self, idle):
        engine = _engine()
        last = _feed(engine, [_rtp(40000 + 2 * n) for n in range(N)] + [_im("bob")])
        engine.housekeep(last + idle)
        assert _anchors(engine) == N
        assert len(_generator(engine, "ssrc-track")._owners) == N
        assert len(_generator(engine, "im-source")._senders) == 1

    @pytest.mark.parametrize("negotiated", [False, True])
    def test_a_port_silent_past_the_timeout_starts_a_new_anchor(self, negotiated):
        """Also when the port's media entry outlives the sweep: a call
        that negotiated it is kept alive by its SIP traffic."""
        from repro.core.events import EVENT_RTP_SEQ_ANOMALY

        engine = _engine()
        timeout = engine.state_idle_timeout
        setup = [
            build_udp_frame(MAC1, MAC2, A, B, 5060, 5060, invite(_sdp(str(A), 40000))),
            build_udp_frame(MAC1, MAC2, B, A, 5060, 5060, ok_response(_sdp(str(B), 50000))),
        ]
        if negotiated:
            _feed(engine, setup)
        engine.process_frame(_rtp(40000, seq=1), 0.02)
        if negotiated:
            engine.process_frame(setup[1], timeout - 1)  # a retransmitted 200
        engine.housekeep(timeout + 1)
        entry = engine.trails.media.get((A.packed, 40000))
        assert (entry is not None and entry.role is not None) == negotiated
        engine.process_frame(_rtp(40000, seq=5000), timeout + 2)
        engine.process_frame(_rtp(40000, seq=5001), timeout + 2.02)
        assert engine.events_named(EVENT_RTP_SEQ_ANOMALY) == []

    def test_h323_call_outlives_its_silent_signalling(self):
        # H.225 is silent once a call is up; its media keeps the
        # h323-crv record, and with it the CRV's state, alive.
        from repro.core.h323_generators import EVENT_ORPHAN_RTP_AFTER_RELEASE

        engine = _engine()
        timeout = engine.state_idle_timeout
        engine.process_frame(_h225(1, MessageType.SETUP), 0.0)
        engine.process_frame(_h225(1, MessageType.CONNECT, media=False), 0.1)
        media = Endpoint(B, 30002)
        now = 0.0
        for seq in range(1, int(2 * timeout / 10)):
            now = 10.0 * seq
            packet = RtpPacket(payload_type=0, sequence=seq, timestamp=160 * seq,
                               ssrc=7, payload=b"x" * 20)
            engine.process_frame(
                build_udp_frame(MAC1, MAC2, B, A, media.port, 40000, packet.encode()), now
            )
            if seq % 10 == 0:
                engine.housekeep(now)
        assert now > timeout
        assert len(_generator(engine, "h323-orphan")._calls) == 1
        engine.process_frame(_h225(1, MessageType.RELEASE_COMPLETE, media=False), now + 0.1)
        packet = RtpPacket(payload_type=0, sequence=999, timestamp=160 * 999, ssrc=7,
                           payload=b"x" * 20)
        engine.process_frame(
            build_udp_frame(MAC1, MAC2, B, A, media.port, 40000, packet.encode()), now + 0.2
        )
        assert len(engine.events_named(EVENT_ORPHAN_RTP_AFTER_RELEASE)) == 1
