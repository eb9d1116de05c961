"""One call record per Call-ID, one media entry per endpoint, one lifetime.

A call's record lives while anything filed under it — its SIP messages,
its linked media and accounting trails — was seen within the idle
timeout, and the billing check reads the INVITE pairs off the live
record, as the auth events read a REGISTER's progress off it.  A media
endpoint's entry lives while a live record advertised it, or an RTP
flow toward it or an unlinked media trail on its session port was seen
within the timeout.  The state machine below interleaves SIP, RTP, RTCP
and TXN traffic with housekeeping and holds the call and media tables to
that model.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.engine import ScidiveEngine
from repro.core.events import (
    EVENT_ACCOUNTING_MISMATCH,
    EVENT_AUTH_FAILURE,
    EVENT_REPEATED_UNAUTH_REGISTER,
)
from repro.core.trail import _flow_key
from repro.net.addr import Endpoint, IPv4Address, MacAddress
from repro.net.packet import build_udp_frame
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import Bye
from tests.core.test_state import _sdp, _sip, bye, invite, ok_response, reg_response, register

MAC1 = MacAddress("02:00:00:00:00:01")
MAC2 = MacAddress("02:00:00:00:00:02")
A = IPv4Address.parse("10.0.0.10")
B = IPv4Address.parse("10.0.0.20")
PROXY = IPv4Address.parse("10.0.0.1")

TIMEOUT = 1.5
CALLS = st.sampled_from(["c1", "c2", "c3"])
PARTIES = st.sampled_from(["alice", "bob", "carol"])
STEPS = st.sampled_from([0.1, 0.4, 1.0, 2.0])
DIGESTS = st.sampled_from([None, "aa" * 16, "bb" * 16])


def _port(call_id: str) -> int:
    """Each call advertises its own media port on A (and on B)."""
    return 40000 + 2 * int(call_id[1:])


# Media ports on A that no call advertises.
UNNEGOTIATED = st.sampled_from([41000, 41002])
# Every media flow comes from B's one RTP session (RTCP on the odd port).
PEER_SESSION = (B.packed, 50000)


def _ack(call_id: str) -> bytes:
    return _sip(
        "ACK sip:bob@10.0.0.20:5060 SIP/2.0",
        [
            "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-ack",
            "From: <sip:alice@example.com>;tag=a1",
            "To: <sip:bob@example.com>;tag=b1",
            f"Call-ID: {call_id}",
            "CSeq: 1 ACK",
        ],
    )


class CallLifetime(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engine = ScidiveEngine(forensics=False)
        self.engine.state_idle_timeout = TIMEOUT
        self.now = 0.0
        self.seq = 0
        # Call-ID -> (last time something was filed under it, the
        # (From, To) pairs its INVITEs named).
        self.model: dict[str, tuple[float, set]] = {}
        # Call-ID -> the registration's [challenged, last digest response,
        # last success time], for the calls whose record saw a REGISTER;
        # and the auth events
        # a counter over those models expects (one RepeatedUnauthRegister
        # per credential-less REGISTER after a challenge, one AuthFailure
        # per 401 to a REGISTER that carried a response).
        self.registrations: dict[str, list] = {}
        self.unauth_retries = 0
        self.auth_failures = 0
        # The media model.  Call-ID -> the endpoints its SDP advertised;
        # RTP destination -> the time its flow was last seen; media trail
        # (protocol, session port on A) -> [last seen, owning Call-ID].
        self.advertised: dict[str, set] = {}
        self.anchors: dict[tuple[int, int], float] = {}
        self.media_trails: dict[tuple[str, int], list] = {}

    def _file(self, call_id: str, pair: tuple[str, str] | None = None) -> None:
        pairs = self.model.get(call_id, (0.0, set()))[1]
        if pair is not None:
            pairs.add(pair)
        self.model[call_id] = (self.now, pairs)

    def _send(self, payload: bytes, src, dst, sport=5060, dport=5060) -> None:
        self.engine.process_frame(
            build_udp_frame(MAC1, MAC2, src, dst, sport, dport, payload), self.now
        )

    @rule(step=STEPS)
    def wait(self, step):
        self.now += step

    def _advertise(self, call_id: str, ip: IPv4Address) -> None:
        port = _port(call_id)
        self.advertised.setdefault(call_id, set()).add((ip.packed, port))
        if ip == A:
            # Media already waiting on the port is adopted.
            for session, trail in self.media_trails.items():
                if session[1] == port and trail[1] is None:
                    trail[1] = call_id

    def _owner(self, port: int) -> str | None:
        """The call whose SDP advertised A's session ``port``, if any."""
        for call_id, endpoints in self.advertised.items():
            if (A.packed, port) in endpoints:
                return call_id
        return None

    def _media(self, protocol: str, port: int) -> None:
        """A media footprint from B's session to A's session ``port``."""
        trail = self.media_trails.get((protocol, port))
        if trail is None or trail[1] is None:
            trail = self.media_trails[(protocol, port)] = [self.now, self._owner(port)]
        trail[0] = self.now
        if trail[1] is not None:
            self._file(trail[1])

    @rule(call_id=CALLS, caller=PARTIES, callee=PARTIES, sdp=st.booleans(),
          in_dialog=st.booleans())
    def send_invite(self, call_id, caller, callee, sdp, in_dialog):
        body = _sdp(str(A), _port(call_id)) if sdp else b""
        payload = invite(
            body, to_tag="b1" if in_dialog else None, cseq=2 if in_dialog else 1,
            from_aor=caller, to_aor=callee, call_id=call_id,
        )
        self._send(payload, A, B)
        self._file(call_id, (f"{caller}@example.com", f"{callee}@example.com"))
        if sdp:
            self._advertise(call_id, A)

    @rule(call_id=CALLS)
    def send_ok(self, call_id):
        self._send(ok_response(_sdp(str(B), _port(call_id)), call_id=call_id), B, A)
        self._file(call_id)
        self._advertise(call_id, B)

    @rule(call_id=CALLS)
    def send_ack(self, call_id):
        self._send(_ack(call_id), A, B)
        self._file(call_id)

    @rule(call_id=CALLS)
    def send_bye(self, call_id):
        self._send(bye(call_id=call_id), B, A)
        self._file(call_id)

    @rule(call_id=CALLS, digest=DIGESTS)
    def send_register(self, call_id, digest):
        self._send(register(call_id, 1, auth=digest), B, PROXY)
        self._file(call_id)
        registration = self.registrations.setdefault(call_id, [False, None, None])
        registration[1] = digest
        if digest is None and registration[0]:
            self.unauth_retries += 1

    @rule(call_id=CALLS, status=st.sampled_from([401, 200]))
    def send_register_response(self, call_id, status):
        self._send(reg_response(call_id, 1, status), PROXY, B)
        self._file(call_id)
        registration = self.registrations.get(call_id)
        if registration is not None and status == 401:
            if registration[1] is not None:
                self.auth_failures += 1
            registration[0] = True
        elif registration is not None and status == 200:
            registration[2] = self.now

    def _rtp(self, port: int) -> None:
        self.seq += 1
        packet = RtpPacket(payload_type=0, sequence=self.seq, timestamp=160 * self.seq,
                           ssrc=7, payload=b"x" * 20)
        self._send(packet.encode(), B, A, PEER_SESSION[1], port)
        self.anchors[(A.packed, port)] = self.now
        self._media("rtp", port)

    @rule(call_id=CALLS)
    def send_rtp(self, call_id):
        self._rtp(_port(call_id))

    @rule(port=UNNEGOTIATED)
    def send_rtp_unnegotiated(self, port):
        self._rtp(port)

    @rule(call_id=CALLS)
    def send_rtcp(self, call_id):
        """RTCP on the odd port: no flow anchor (RTP only), and its trail
        files under, and links through, the even session port."""
        port = _port(call_id)
        self._send(Bye(ssrcs=(7,)).encode(), B, A, PEER_SESSION[1] + 1, port + 1)
        self._media("rtcp", port)

    @rule(call_id=CALLS, caller=PARTIES, callee=PARTIES)
    def send_txn(self, call_id, caller, callee):
        pair = (f"{caller}@example.com", f"{callee}@example.com")
        held = call_id in self.model and pair in self.model[call_id][1]
        before = len(self.engine.events_named(EVENT_ACCOUNTING_MISMATCH))
        payload = f"TXN action=start call_id={call_id} from={pair[0]} to={pair[1]}"
        self._send(payload.encode(), PROXY, B, 9091, 9090)
        self._file(call_id)
        mismatches = len(self.engine.events_named(EVENT_ACCOUNTING_MISMATCH)) - before
        assert mismatches == (0 if held else 1)

    @rule()
    def housekeep(self):
        self.engine.housekeep(self.now)
        self.model = {
            call_id: entry for call_id, entry in self.model.items()
            if self.now - entry[0] <= TIMEOUT
        }
        self.registrations = {
            call_id: registration for call_id, registration in self.registrations.items()
            if call_id in self.model
        }
        self.advertised = {
            call_id: endpoints for call_id, endpoints in self.advertised.items()
            if call_id in self.model
        }
        self.anchors = {
            key: seen for key, seen in self.anchors.items() if self.now - seen <= TIMEOUT
        }
        self.media_trails = {
            session: trail for session, trail in self.media_trails.items()
            if self.now - trail[0] <= TIMEOUT
        }

    @rule()
    def housekeep_all_idle(self):
        self.now += TIMEOUT + 0.5
        self.housekeep()
        assert self.engine.trails.calls == {}
        assert self.engine.trails.media == {}

    @invariant()
    def table_matches_the_model(self):
        calls = self.engine.trails.calls
        assert calls.keys() == self.model.keys()
        for call_id, (_, pairs) in self.model.items():
            call = calls[call_id]
            for caller in ("alice", "bob", "carol"):
                for callee in ("alice", "bob", "carol"):
                    pair = (f"{caller}@example.com", f"{callee}@example.com")
                    assert call.invited(*pair) == (pair in pairs)

    @invariant()
    def media_table_matches_the_model(self):
        expected = set(self.anchors)
        for endpoints in self.advertised.values():
            expected |= endpoints
        for (_, port), (_, owner) in self.media_trails.items():
            if owner is None:
                expected |= {(A.packed, port), PEER_SESSION}
        assert set(self.engine.trails.media) == expected

    @invariant()
    def registrations_live_and_count_with_their_record(self):
        calls = self.engine.trails.calls
        assert {
            call_id for call_id, call in calls.items() if call.registration is not None
        } == self.registrations.keys()
        for call_id, (challenged, _, _) in self.registrations.items():
            assert calls[call_id].registration.challenged == challenged
        # The IM mobility check sees exactly the live records' successes
        # (a window past the timeout would show a dead one).
        assert self.engine.sip_state.recent_registration_from(
            "alice", str(B), self.now, 4 * TIMEOUT
        ) == any(
            succeeded is not None and self.now - succeeded <= 4 * TIMEOUT
            for _, _, succeeded in self.registrations.values()
        )
        assert len(self.engine.events_named(EVENT_REPEATED_UNAUTH_REGISTER)) == self.unauth_retries
        assert len(self.engine.events_named(EVENT_AUTH_FAILURE)) == self.auth_failures


CallLifetime.TestCase.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
TestCallLifetime = CallLifetime.TestCase
