"""Unit tests for passive SIP state tracking."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distiller import Distiller
from repro.core.engine import ScidiveEngine
from repro.core.rules import RuleSet
from repro.core.state import CallPhase, SipStateTracker
from repro.core.trail import TrailManager
from repro.net.addr import Endpoint, IPv4Address, MacAddress
from repro.net.packet import build_udp_frame

MAC1 = MacAddress("02:00:00:00:00:01")
MAC2 = MacAddress("02:00:00:00:00:02")
A = IPv4Address.parse("10.0.0.10")
B = IPv4Address.parse("10.0.0.20")
ATT = IPv4Address.parse("10.0.0.66")


def _sdp(ip: str, port: int) -> bytes:
    return (
        f"v=0\r\no=u 1 1 IN IP4 {ip}\r\ns=-\r\nc=IN IP4 {ip}\r\n"
        f"t=0 0\r\nm=audio {port} RTP/AVP 0\r\n"
    ).encode()


def _sip(method_line: str, headers: list[str], body: bytes = b"") -> bytes:
    head = [method_line]
    head.extend(headers)
    if body:
        head.append("Content-Type: application/sdp")
    head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def invite(sdp: bytes, to_tag: str | None = None, cseq: int = 1, from_aor="alice", to_aor="bob",
           call_id="c1") -> bytes:
    to_value = f"<sip:{to_aor}@example.com>" + (f";tag={to_tag}" if to_tag else "")
    return _sip(
        "INVITE sip:bob@example.com SIP/2.0",
        [
            "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-i1",
            f"From: <sip:{from_aor}@example.com>;tag=a1",
            f"To: {to_value}",
            f"Call-ID: {call_id}",
            f"CSeq: {cseq} INVITE",
            "Contact: <sip:alice@10.0.0.10:5060>",
        ],
        sdp,
    )


def ok_response(sdp: bytes, to_aor="bob", call_id="c1") -> bytes:
    return _sip(
        "SIP/2.0 200 OK",
        [
            "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-i1",
            "From: <sip:alice@example.com>;tag=a1",
            f"To: <sip:{to_aor}@example.com>;tag=b1",
            f"Call-ID: {call_id}",
            "CSeq: 1 INVITE",
            "Contact: <sip:bob@10.0.0.20:5060>",
        ],
        sdp,
    )


def bye(from_aor="bob", from_tag="b1", to_tag="a1", call_id="c1") -> bytes:
    return _sip(
        "BYE sip:alice@10.0.0.10:5060 SIP/2.0",
        [
            "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-bye",
            f"From: <sip:{from_aor}@example.com>;tag={from_tag}",
            f"To: <sip:alice@example.com>;tag={to_tag}",
            f"Call-ID: {call_id}",
            "CSeq: 2 BYE",
        ],
    )


class _Calls:
    """The trail stage and the state stage, in the engine's order, over
    one call table."""

    def __init__(self) -> None:
        self.trails = TrailManager()
        self.tracker = SipStateTracker(self.trails)
        self.calls = self.trails.calls

    def feed(self, payload: bytes, src=A, dst=B, t=0.0):
        frame = build_udp_frame(MAC1, MAC2, src, dst, 5060, 5060, payload)
        fp = Distiller().distill(frame, t)
        self.tracker.observe(fp, self.trails.push(fp))
        return fp


class TestSipStateTracker:
    def test_invite_creates_call_in_setup(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        call = calls.calls["c1"]
        assert call.phase == CallPhase.SETUP
        assert call.caller == "alice@example.com"
        assert call.callee == "bob@example.com"
        assert call.media["alice@example.com"] == Endpoint(A, 40000)

    def test_200_establishes_and_learns_answer_media(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        calls.feed(ok_response(_sdp("10.0.0.20", 40000)), src=B, dst=A, t=0.2)
        call = calls.calls["c1"]
        assert call.phase == CallPhase.ESTABLISHED
        assert call.established_at == 0.2
        assert call.media["bob@example.com"] == Endpoint(B, 40000)

    def test_bye_records_teardown_with_claimed_sender_and_source(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        calls.feed(ok_response(_sdp("10.0.0.20", 40000)), src=B, dst=A)
        calls.feed(bye(), src=ATT, dst=A, t=1.5)  # forged: from attacker host
        call = calls.calls["c1"]
        assert call.phase == CallPhase.TORN_DOWN
        assert call.teardown.claimed_by == "bob@example.com"
        assert str(call.teardown.source.ip) == "10.0.0.66"
        assert call.teardown.time == 1.5

    def test_reinvite_records_redirect(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        calls.feed(ok_response(_sdp("10.0.0.20", 40000)), src=B, dst=A)
        # re-INVITE from "bob" moving media to the attacker's address.
        reinv = _sip(
            "INVITE sip:alice@10.0.0.10:5060 SIP/2.0",
            [
                "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-h1",
                "From: <sip:bob@example.com>;tag=b1",
                "To: <sip:alice@example.com>;tag=a1",
                "Call-ID: c1",
                "CSeq: 2 INVITE",
                "Contact: <sip:bob@10.0.0.66:5060>",
            ],
            _sdp("10.0.0.66", 46000),
        )
        calls.feed(reinv, src=ATT, dst=A, t=2.0)
        call = calls.calls["c1"]
        assert len(call.redirects) == 1
        redirect = call.redirects[0]
        assert redirect.party == "bob@example.com"
        assert redirect.old_endpoint == Endpoint(B, 40000)
        assert redirect.new_endpoint == Endpoint(IPv4Address.parse("10.0.0.66"), 46000)
        # Media map updated to the new endpoint.
        assert call.media["bob@example.com"] == redirect.new_endpoint
        # The re-INVITE's pair is kept beside the role's own.
        assert call.invited("alice@example.com", "bob@example.com")
        assert call.invited("bob@example.com", "alice@example.com")
        assert not call.invited("bob@example.com", "bob@example.com")

    def test_reinvite_same_endpoint_not_a_redirect(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        calls.feed(ok_response(_sdp("10.0.0.20", 40000)), src=B, dst=A)
        reinv = _sip(
            "INVITE sip:alice@10.0.0.10:5060 SIP/2.0",
            [
                "Via: SIP/2.0/UDP 10.0.0.20:5060;branch=z9hG4bK-r1",
                "From: <sip:bob@example.com>;tag=b1",
                "To: <sip:alice@example.com>;tag=a1",
                "Call-ID: c1",
                "CSeq: 2 INVITE",
            ],
            _sdp("10.0.0.20", 40000),  # unchanged media
        )
        calls.feed(reinv, src=B, dst=A)
        assert not calls.calls["c1"].redirects

    def test_call_for_media(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        assert calls.tracker.call_for_media(Endpoint(A, 40000)).call_id == "c1"
        assert calls.tracker.call_for_media(Endpoint(A, 40002)) is None

    def test_retransmitted_invite_harmless(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        assert len(calls.calls) == 1
        assert calls.calls["c1"].phase == CallPhase.SETUP
        assert calls.calls["c1"]._invites is None

    def test_established_calls_listing(self):
        calls = _Calls()
        calls.feed(invite(_sdp("10.0.0.10", 40000)))
        assert calls.tracker.call_count == 1
        assert calls.calls["c1"].phase != CallPhase.ESTABLISHED
        calls.feed(ok_response(_sdp("10.0.0.20", 40000)), src=B, dst=A)
        assert calls.calls["c1"].phase == CallPhase.ESTABLISHED

    def test_messages_of_a_call_without_a_role_change_nothing(self):
        """A call whose INVITE was never seen has a record (its SIP
        trail) but no role: a 200 or a BYE does not invent one."""
        calls = _Calls()
        calls.feed(ok_response(_sdp("10.0.0.20", 40000)), src=B, dst=A)
        calls.feed(bye(), src=ATT, dst=A)
        call = calls.calls["c1"]
        assert call.count == 2 and call.phase is None and call.teardown is None
        assert not call.media and calls.tracker.call_count == 0
        assert not call.invited("", "")


_CALLS = st.sampled_from(["c1", "c2", "c3", "c4"])
_PARTIES = st.sampled_from(["alice", "bob", "carol"])
# Few enough endpoints that calls collide on them; None = no SDP body.
_MEDIA = st.sampled_from([None, ("10.0.0.10", 40000), ("10.0.0.10", 40002), ("10.0.0.20", 40000)])
_STEP = st.one_of(
    st.tuples(st.just("invite"), _CALLS, _PARTIES, _MEDIA),
    st.tuples(st.just("ok"), _CALLS, _PARTIES, _MEDIA),
    st.tuples(st.just("reinvite"), _CALLS, _PARTIES, _MEDIA),
    st.tuples(st.just("bye"), _CALLS, _PARTIES),
    st.tuples(st.just("expire"), st.sampled_from([0.0, 0.25, 5.0])),
)


class TestMediaIndex:
    """``call_for_media`` answers from the media table's role owners,
    updated in place; it must always equal a scan of the call table in
    table order."""

    @staticmethod
    def _engine() -> ScidiveEngine:
        return ScidiveEngine(forensics=False, generators=[], ruleset=RuleSet([]))

    @staticmethod
    def _media(engine: ScidiveEngine) -> dict:
        return {
            (call_id, party): endpoint
            for call_id, call in engine.trails.calls.items()
            for party, endpoint in call.media.items()
        }

    @staticmethod
    def _scan(engine: ScidiveEngine, endpoint: Endpoint):
        for call in engine.trails.calls.values():
            if endpoint in call.media.values():
                return call
        return None

    @given(steps=st.lists(_STEP, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_lookup_equals_a_scan_after_any_sequence(self, steps):
        engine = self._engine()
        tracker = engine.sip_state
        seen = {Endpoint(IPv4Address.parse("10.9.9.9"), 40000)}
        now = 0.0
        for step in steps:
            now += 0.1
            kind = step[0]
            writes = engine.trails.media.writes
            before = self._media(engine)
            if kind == "expire":
                engine.state_idle_timeout = step[1]
                engine.housekeep(now)
            else:
                call_id, party = step[1], step[2]
                sdp = _sdp(*step[3]) if kind != "bye" and step[3] else b""
                if kind == "invite":
                    payload = invite(sdp, from_aor=party, call_id=call_id)
                elif kind == "ok":
                    payload = ok_response(sdp, to_aor=party, call_id=call_id)
                elif kind == "reinvite":
                    payload = invite(sdp, to_tag="b1", cseq=2, from_aor=party, call_id=call_id)
                else:
                    payload = bye(from_aor=party, call_id=call_id)
                engine.process_frame(build_udp_frame(MAC1, MAC2, A, B, 5060, 5060, payload), now)
            if self._media(engine) != before:
                assert engine.trails.media.writes > writes
            seen.update(self._media(engine).values())
            for endpoint in seen:
                assert tracker.call_for_media(endpoint) is self._scan(engine, endpoint)

    def test_additions_never_scan_the_call_table(self):
        class ScanCountingTable(dict):
            scans = 0

            def _scan(self, view):
                ScanCountingTable.scans += 1
                return view

            def __iter__(self):
                return self._scan(super().__iter__())

            def values(self):
                return self._scan(super().values())

            def items(self):
                return self._scan(super().items())

        engine = self._engine()
        engine.trails.calls = engine.sip_state._calls = ScanCountingTable()
        tracker = engine.sip_state
        for n in range(1000):
            call_id = f"call-{n}"
            offer, answer = Endpoint(A, 20000 + 2 * n), Endpoint(B, 20000 + 2 * n)
            for payload in (
                invite(_sdp(str(A), offer.port), call_id=call_id),
                ok_response(_sdp(str(B), answer.port), call_id=call_id),
            ):
                engine.process_frame(build_udp_frame(MAC1, MAC2, A, B, 5060, 5060, payload), n)
                assert tracker.call_for_media(offer).call_id == call_id
            assert tracker.call_for_media(answer).call_id == call_id
            assert tracker.call_for_media(Endpoint(A, 19998)) is None
        # Each SDP wrote its endpoint's linked owner and its role owner.
        assert engine.trails.media.writes == 4000
        assert ScanCountingTable.scans == 0


def register(call_id: str, cseq: int, auth: str | None = None, user="alice") -> bytes:
    headers = [
        "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-r%d" % cseq,
        f"From: <sip:{user}@example.com>;tag=r1",
        f"To: <sip:{user}@example.com>",
        f"Call-ID: {call_id}",
        f"CSeq: {cseq} REGISTER",
        "Contact: <sip:%s@10.0.0.66:5060>" % user,
    ]
    if auth is not None:
        headers.append(
            f'Authorization: Digest username="{user}", realm="example.com", '
            f'nonce="n1", uri="sip:example.com", response="{auth}"'
        )
    return _sip("REGISTER sip:example.com SIP/2.0", headers)


def reg_response(call_id: str, cseq: int, status: int) -> bytes:
    headers = [
        "Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-r%d" % cseq,
        "From: <sip:alice@example.com>;tag=r1",
        "To: <sip:alice@example.com>",
        f"Call-ID: {call_id}",
        f"CSeq: {cseq} REGISTER",
    ]
    if status == 401:
        headers.append('WWW-Authenticate: Digest realm="example.com", nonce="n1"')
    return _sip(f"SIP/2.0 {status} X", headers)


class TestRegistrationTracker:
    """The state tracker keeps a REGISTER's auth progress on its call's
    record."""

    def _feed(self, calls, payload, src=ATT, dst=B, t=0.0):
        calls.feed(payload, src=src, dst=dst, t=t)

    def test_benign_challenge_flow_is_clean(self):
        calls = _Calls()
        self._feed(calls, register("r1", 1))
        self._feed(calls, reg_response("r1", 1, 401), src=B, dst=ATT)
        self._feed(calls, register("r1", 2, auth="ab" * 16))
        self._feed(calls, reg_response("r1", 2, 200), src=B, dst=ATT, t=0.5)
        session = calls.calls["r1"].registration
        assert session.succeeded_at == 0.5
        assert session.unauth_after_challenge == 0
        assert session.failed_responses == []
        assert calls.calls["r1"].phase is None
        assert calls.tracker.registration_count == 1

    def test_flood_counts_unauth_after_challenge(self):
        calls = _Calls()
        self._feed(calls, register("dos", 1))
        self._feed(calls, reg_response("dos", 1, 401), src=B, dst=ATT)
        for i in range(2, 7):
            self._feed(calls, register("dos", i))
        session = calls.calls["dos"].registration
        assert session.unauth_after_challenge == 5

    def test_guessing_accumulates_distinct_failed_responses(self):
        calls = _Calls()
        self._feed(calls, register("brute", 1))
        self._feed(calls, reg_response("brute", 1, 401), src=B, dst=ATT)
        for i, guess in enumerate(["aa" * 16, "bb" * 16, "cc" * 16], start=2):
            self._feed(calls, register("brute", i, auth=guess))
            self._feed(calls, reg_response("brute", i, 401), src=B, dst=ATT)
        session = calls.calls["brute"].registration
        assert len(session.failed_responses) == 3
        assert len(set(session.failed_responses)) == 3

    def test_non_register_ignored(self):
        calls = _Calls()
        self._feed(calls, invite(_sdp("10.0.0.10", 40000)))
        self._feed(calls, reg_response("c1", 1, 401), src=B, dst=ATT)
        assert calls.calls["c1"].registration is None
        assert calls.tracker.registration_count == 0

    def test_a_success_legitimises_moves_while_its_record_lives(self):
        engine = ScidiveEngine(forensics=False)
        state = engine.sip_state

        def send(payload, src, dst, t):
            engine.process_frame(build_udp_frame(MAC1, MAC2, src, dst, 5060, 5060, payload), t)

        send(register("r1", 1), ATT, B, 0.0)
        assert not state.recent_registration_from("alice", str(ATT), 0.0, 1e9)
        send(reg_response("r1", 1, 200), B, ATT, 0.1)
        assert state.recent_registration_from("alice", str(ATT), 0.2, 1e9)
        assert not state.recent_registration_from("bob", str(ATT), 0.2, 1e9)
        assert not state.recent_registration_from("alice", str(A), 0.2, 1e9)
        later = 0.1 + engine.state_idle_timeout + 1
        engine.housekeep(later)
        assert engine.trails.calls == {}
        assert not state.recent_registration_from("alice", str(ATT), later, 1e9)
        send(register("r2", 1), ATT, B, later)
        send(reg_response("r2", 1, 200), B, ATT, later)
        assert state.recent_registration_from("alice", str(ATT), later, 1.0)
