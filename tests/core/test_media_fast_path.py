"""The media fast path against its oracle, the full pipeline.

An engine serves an in-profile RTP frame from a per-flow profile
(:mod:`repro.core.fastpath`) instead of distilling it; an engine with a
``FootprintHook`` attached never does.  Every test here feeds both the
same frames and demands the same alerts, events, provenance and
checkpoint — on the ``repro list`` scenarios, on hand-built streams
that hit each reason to decline or invalidate, and on generated streams
interleaved with housekeeping, checkpoint/restore and rule reloads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import ATTACK_SCENARIOS, _run_scenario
from repro.core.engine import ScidiveEngine
from repro.core.event_generators import RtpStreamGenerator, default_generators
from repro.core.events import EVENT_RTP_SOURCE_MISMATCH
from repro.experiments.harness import BENIGN_KINDS
from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import build_udp_frame
from repro.rtp.packet import encode_header
from repro.rtp.rtcp import Bye
from repro.rulespec import CORE_PACK_PATH

from .fastpath_oracle import (
    assert_same_outcome,
    engine_pair,
    replay,
)

MAC_A = MacAddress("02:00:00:00:00:0a")
MAC_B = MacAddress("02:00:00:00:00:14")
A = IPv4Address.parse("10.0.0.10")  # the protected endpoint (vantage)
B = IPv4Address.parse("10.0.0.20")
X = IPv4Address.parse("10.0.0.66")
VANTAGE = str(A)


def udp(src, dst, sport, dport, payload: bytes) -> bytes:
    return build_udp_frame(MAC_B, MAC_A, src, dst, sport, dport, payload)


def rtp(seq: int, ssrc: int, src=B, sport=40000, dst=A, dport=40000) -> bytes:
    return udp(src, dst, sport, dport, encode_header(0, seq & 0xFFFF, (seq * 160) & 0xFFFFFFFF, ssrc) + bytes(160))


def _sdp(ip: IPv4Address, port: int) -> bytes:
    return (
        f"v=0\r\no=u 1 1 IN IP4 {ip}\r\ns=-\r\nc=IN IP4 {ip}\r\n"
        f"t=0 0\r\nm=audio {port} RTP/AVP 0\r\n"
    ).encode()


def _sip(start: str, headers: list[str], body: bytes = b"") -> bytes:
    head = [start, *headers]
    if body:
        head.append("Content-Type: application/sdp")
    head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def invite(to_tag: str = "", port: int = 40000, cseq: int = 1) -> bytes:
    """Bob calls the protected endpoint, offering media at B:port."""
    return udp(B, A, 5060, 5060, _sip(
        "INVITE sip:alice@example.com SIP/2.0",
        [
            f"Via: SIP/2.0/UDP {B}:5060;branch=z9hG4bK-{cseq}",
            "From: <sip:bob@example.com>;tag=b1",
            f"To: <sip:alice@example.com>{to_tag}",
            "Call-ID: c1",
            f"CSeq: {cseq} INVITE",
            f"Contact: <sip:bob@{B}:5060>",
        ],
        _sdp(B, port),
    ))


def answer(with_sdp: bool = True) -> bytes:
    return udp(A, B, 5060, 5060, _sip(
        "SIP/2.0 200 OK",
        [
            f"Via: SIP/2.0/UDP {B}:5060;branch=z9hG4bK-1",
            "From: <sip:bob@example.com>;tag=b1",
            "To: <sip:alice@example.com>;tag=a1",
            "Call-ID: c1",
            "CSeq: 1 INVITE",
            f"Contact: <sip:alice@{A}:5060>",
        ],
        _sdp(A, 40000) if with_sdp else b"",
    ))


def bye() -> bytes:
    return udp(B, A, 5060, 5060, _sip(
        f"BYE sip:alice@{A}:5060 SIP/2.0",
        [
            f"Via: SIP/2.0/UDP {B}:5060;branch=z9hG4bK-bye",
            "From: <sip:bob@example.com>;tag=b1",
            "To: <sip:alice@example.com>;tag=a1",
            "Call-ID: c1",
            "CSeq: 9 BYE",
        ],
    ))


def rtcp_bye(ssrc: int) -> bytes:
    return udp(B, A, 40001, 40001, Bye(ssrcs=(ssrc,), reason="bye").encode())


def feed(engines, frame: bytes, t: float) -> None:
    for engine in engines:
        engine.process_frame(frame, t)


def stream(engines, start_seq: int, count: int, t: float, ssrc: int = 0x1234, **kw) -> float:
    for n in range(count):
        feed(engines, rtp(start_seq + n, ssrc, **kw), t)
        t += 0.02
    return t


class TestServing:
    def test_an_in_profile_flow_is_served_after_its_first_frame(self):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        stream((fast, oracle), 100, 50, 1.0)
        assert fast.media_fast.served == 49
        assert len(fast.media_fast) == 1
        assert fast.stats.frames == fast.stats.footprints == 50
        assert fast.distiller.stats.footprints == 50
        assert_same_outcome(fast, oracle)

    def test_an_attached_hook_keeps_every_frame_on_the_full_path(self):
        _fast, oracle = engine_pair(vantage_ip=VANTAGE)
        stream((oracle,), 100, 20, 1.0)
        assert oracle.media_fast.served == 0 and not oracle.media_fast

    def test_outbound_media_is_never_served(self):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        stream((fast, oracle), 1, 20, 1.0, src=A, dst=B)
        assert fast.media_fast.served == 0
        assert_same_outcome(fast, oracle)

    def test_recorder_rings_match_the_full_path(self):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        stream((fast, oracle), 100, 30, 1.0)
        (key,) = fast.forensics._sessions
        rows = fast.forensics._sessions[key].rows()
        assert [row[:3] for row in rows] == [
            row[:3] for row in oracle.forensics._sessions[key].rows()
        ]
        assert [row[3] for row in rows] == [
            row[3] for row in oracle.forensics._sessions[key].rows()
        ]


class TestDeclining:
    """Each frame that is not provably in profile goes the full way."""

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda: rtp(150, 0x1234)[:-1] + b"\x01", id="bad-udp-checksum"),
            pytest.param(lambda: udp(B, A, 40000, 40000, b"\xbf" + bytes(20)), id="bad-rtp-header"),
            pytest.param(lambda: rtp(150, 0x9999), id="other-ssrc"),
            pytest.param(lambda: rtp(150 + 500, 0x1234), id="sequence-jump"),
            pytest.param(lambda: rtp(120, 0x1234), id="reordered"),
            pytest.param(lambda: rtp(149, 0x1234), id="duplicate"),
            pytest.param(lambda: rtp(150, 0x1234, src=X), id="rogue-source"),
        ],
    )
    def test_a_frame_out_of_profile_is_declined(self, bad):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        t = stream((fast, oracle), 100, 50, 1.0)
        served = fast.media_fast.served
        feed((fast, oracle), bad(), t)
        assert fast.media_fast.served == served
        stream((fast, oracle), 150, 20, t + 0.02)
        assert_same_outcome(fast, oracle)

    def test_a_stale_owner_is_declined(self):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        t = stream((fast, oracle), 100, 20, 1.0)
        served = fast.media_fast.served
        t = stream((fast, oracle), 120, 1, t + 31.0)
        assert fast.media_fast.served == served
        stream((fast, oracle), 121, 20, t)
        assert_same_outcome(fast, oracle)

    def test_housekeeping_due_is_declined(self):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        for engine in (fast, oracle):
            engine.housekeeping_every = 7
        stream((fast, oracle), 100, 40, 1.0)
        assert 0 < fast.media_fast.served < 39
        assert_same_outcome(fast, oracle)


class TestInvalidation:
    def _served_engines(self):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        t = stream((fast, oracle), 100, 20, 1.0)
        assert fast.media_fast
        return fast, oracle, t

    def test_housekeep_empties_the_table(self):
        fast, oracle, t = self._served_engines()
        for engine in (fast, oracle):
            engine.housekeep(t)
        assert not fast.media_fast and fast.media_fast.emptied == 1

    def test_a_rule_reload_empties_the_table(self):
        fast, oracle, t = self._served_engines()
        for engine in (fast, oracle):
            engine.load_rulepack(CORE_PACK_PATH)
        assert not fast.media_fast
        stream((fast, oracle), 120, 20, t)
        assert_same_outcome(fast, oracle)

    def test_restore_empties_the_table(self):
        fast, _oracle, _t = self._served_engines()
        fast.restore(fast.checkpoint())
        assert not fast.media_fast

    def test_a_new_generator_list_is_never_served_stale(self):
        fast, oracle, t = self._served_engines()
        served = fast.media_fast.served
        for engine in (fast, oracle):
            engine.generators = [
                g for g in engine.generators if not isinstance(g, RtpStreamGenerator)
            ]
        t = stream((fast, oracle), 120, 1, t)
        assert fast.media_fast.served == served
        stream((fast, oracle), 121, 20, t)
        assert fast.media_fast.served > served
        assert_same_outcome(fast, oracle)

    def test_a_generator_that_does_not_answer_turns_the_path_off(self):
        from repro.core.events import EventGenerator
        from repro.core.footprint import Protocol

        class Counting(EventGenerator):
            name = "counting"
            protocols = frozenset({Protocol.RTP})

            def __init__(self):
                self.seen = 0

            def on_footprint(self, footprint, trail, ctx):
                self.seen += 1
                return []

        fast = ScidiveEngine(
            vantage_ip=VANTAGE, generators=default_generators() + [Counting()]
        )
        stream((fast,), 100, 20, 1.0)
        assert fast.media_fast.served == 0
        assert fast.generators[-1].seen == 20

    def test_sdp_and_watches_empty_the_table(self):
        fast, oracle = engine_pair(vantage_ip=VANTAGE)
        feed((fast, oracle), invite(), 0.5)
        feed((fast, oracle), answer(), 0.6)
        t = stream((fast, oracle), 100, 20, 1.0)
        emptied = fast.media_fast.emptied
        feed((fast, oracle), bye(), t)
        assert fast.media_fast.emptied == emptied + 1
        t = stream((fast, oracle), 120, 20, t + 0.02)
        feed((fast, oracle), rtcp_bye(0x1234), t)
        stream((fast, oracle), 140, 40, t + 0.02)
        assert [a.rule_id for a in fast.alerts] == [a.rule_id for a in oracle.alerts]
        assert fast.alerts
        assert_same_outcome(fast, oracle)

    def test_a_call_leaving_setup_reopens_the_rogue_check(self):
        # Early media from a source the call never negotiates is not
        # checked while the call is in SETUP; a 200 OK without SDP
        # changes no media, only the phase, and the next frame must be
        # checked again.
        fast, oracle = engine_pair(vantage_ip=str(B))
        feed((fast, oracle), invite(), 0.5)
        t = stream((fast, oracle), 100, 20, 1.0, src=X, dst=B)
        assert fast.media_fast.served
        feed((fast, oracle), answer(with_sdp=False), t)
        stream((fast, oracle), 120, 5, t + 0.02, src=X, dst=B)
        names = [e.name for e in fast.event_log]
        assert EVENT_RTP_SOURCE_MISMATCH in names
        assert_same_outcome(fast, oracle)


SCENARIOS = [*ATTACK_SCENARIOS, *(f"benign-{kind}" for kind in BENIGN_KINDS)]


def test_repro_list_has_fourteen_scenarios():
    assert len(SCENARIOS) == 14


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_replay_matches_the_oracle(name):
    result = _run_scenario(name, 7)
    records = result.testbed.ids_tap.trace.records
    fast, oracle = engine_pair(vantage_ip=result.engine.vantage_ip)
    replay(fast, records)
    replay(oracle, records)
    assert_same_outcome(fast, oracle)
    # The online run served frames too, and raised the same alerts.
    assert sorted(a.rule_id for a in result.engine.alerts) == sorted(
        a.rule_id for a in fast.alerts
    )


# -- generated streams ---------------------------------------------------------

STREAMS = (
    # (src, sport, dst, dport): the call's media, an unlinked inbound
    # flow and an outbound one.
    (B, 40000, A, 40000),
    (X, 41000, A, 42000),
    (A, 40000, B, 40000),
)
_stream = st.integers(0, len(STREAMS) - 1)
OPS = st.one_of(
    st.tuples(st.just("rtp"), _stream, st.integers(1, 25),
              st.sampled_from([1, 1, 1, 1, 2, 0, -1, -3, 150, -400])),
    st.tuples(st.just("ssrc"), _stream),
    st.tuples(st.just("rogue"), _stream, st.booleans()),
    st.tuples(st.just("bad-checksum"), _stream),
    st.tuples(st.just("bad-rtp"), _stream),
    st.tuples(st.just("invite"), st.booleans()),
    st.tuples(st.just("answer"), st.booleans()),
    st.just(("reinvite",)),
    st.just(("bye",)),
    st.tuples(st.just("rtcp-bye"), _stream),
    st.tuples(st.just("gap"), st.sampled_from([0.6, 35.0, 700.0])),
    st.just(("housekeep",)),
    st.just(("restore",)),
    st.just(("reload",)),
)


class _Run:
    """Both engines and the generated streams' state."""

    def __init__(self, vantage):
        self.vantage = vantage
        self.fast, self.oracle = engine_pair(vantage_ip=vantage)
        self.t = 1.0
        self.seq = [100, 5000, 900]
        self.ssrc = [0x1111, 0x2222, 0x3333]
        self.served = 0

    def feed(self, frame: bytes) -> None:
        feed((self.fast, self.oracle), frame, self.t)
        self.t += 0.02

    def restore(self) -> None:
        self.served += self.fast.media_fast.served
        fresh_fast, fresh_oracle = engine_pair(vantage_ip=self.vantage)
        fresh_fast.restore(self.fast.checkpoint())
        fresh_oracle.restore(self.oracle.checkpoint())
        self.fast, self.oracle = fresh_fast, fresh_oracle

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "rtp":
            _, s, count, step = op
            src, sport, dst, dport = STREAMS[s]
            for _ in range(count):
                self.seq[s] += step
                self.feed(rtp(self.seq[s], self.ssrc[s], src, sport, dst, dport))
        elif kind == "ssrc":
            self.ssrc[op[1]] = (self.ssrc[op[1]] * 7 + 1) & 0xFFFFFFFF
        elif kind == "rogue":
            _, s, same = op
            _src, _sport, dst, dport = STREAMS[s]
            ssrc = self.ssrc[s] if same else 0xBAD
            self.feed(rtp(self.seq[s] + 1, ssrc, X, 40666, dst, dport))
        elif kind == "bad-checksum":
            src, sport, dst, dport = STREAMS[op[1]]
            frame = rtp(self.seq[op[1]] + 1, self.ssrc[op[1]], src, sport, dst, dport)
            self.feed(frame[:-1] + bytes([frame[-1] ^ 0xFF]))
        elif kind == "bad-rtp":
            src, sport, dst, dport = STREAMS[op[1]]
            self.feed(udp(src, dst, sport, dport, b"\x8f" + bytes(30)))
        elif kind == "invite":
            self.feed(invite())
        elif kind == "answer":
            self.feed(answer(with_sdp=op[1]))
        elif kind == "reinvite":
            self.feed(invite(to_tag=";tag=a1", port=40002, cseq=2))
        elif kind == "bye":
            self.feed(bye())
        elif kind == "rtcp-bye":
            self.feed(rtcp_bye(self.ssrc[op[1]]))
        elif kind == "gap":
            self.t += op[1]
        elif kind == "housekeep":
            for engine in (self.fast, self.oracle):
                engine.housekeep(self.t)
        elif kind == "restore":
            self.restore()
        elif kind == "reload":
            for engine in (self.fast, self.oracle):
                engine.load_rulepack(CORE_PACK_PATH)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=40), vantage=st.sampled_from([VANTAGE, None]))
def test_generated_streams_match_the_oracle(ops, vantage):
    run = _Run(vantage)
    for op in ops:
        run.apply(op)
    assert_same_outcome(run.fast, run.oracle)


def test_generated_streams_are_served():
    """The property above is not vacuous: a plain run of its ops serves."""
    run = _Run(VANTAGE)
    for op in [("invite", True), ("answer", True), ("rtp", 0, 25, 1), ("rtp", 1, 25, 1),
               ("rtcp-bye", 0), ("rtp", 0, 10, 1), ("gap", 0.6), ("rtp", 0, 25, 1),
               ("restore",), ("rtp", 0, 25, 1), ("bye",), ("rtp", 0, 10, 1)]:
        run.apply(op)
    assert run.served + run.fast.media_fast.served > 60
    assert run.fast.alerts
    assert_same_outcome(run.fast, run.oracle)
