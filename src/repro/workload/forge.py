"""Frame-level traffic forging for the virtual carrier.

The existing testbed simulates every endpoint as an object graph, which
tops out around a few hundred subscribers.  The forge takes the other
route — it emits *wire bytes directly* (the same
``build_udp_frame``/``SipRequest.encode`` path the cluster benchmark
uses), so a population is just arithmetic: one :class:`Subscriber` per
index, deterministic IPs/MACs/ports, and ladder methods that return
timed frames for one call / registration / IM conversation / attack.

Every ladder is validated against the detection path it must (or must
not) trip:

* benign calls stop the hangup party's RTP strictly before its BYE, so
  the orphan-RTP watch (armed on the BYE sender's own endpoint under a
  network-wide vantage) never fires;
* every call negotiates a *fresh* media port per party, so a port's
  media entry never carries one call's sequence anchor into another
  (which would fake a sequence jump) nor names a stale call as its role
  owner;
* attack ladders reproduce the paper's four attacks byte-for-byte the
  way the canned attack modules do, but against arbitrary subscribers
  at arbitrary times.

All entropy comes from the caller's ``random.Random``; the forge's own
serial counter provides collision-free Call-IDs/tags/branches.  Same
seed + same call order → byte-identical frames.

What is built once and what per frame.  A :class:`Subscriber` derives
its MAC address and SIP URI when it is built, and the forge keeps one
per subscriber index, one per attacker index and one registrar stub in
tables of its own instance, so a subscriber's identity is never
re-derived for its next frame.  Per frame the forge packs bytes through
the shared encoders only: ``encode_header`` for an RTP header,
``build_udp_frame`` for the 42 Ethernet/IPv4/UDP header bytes, and
``SipRequest``/``SipResponse.encode`` over a header table built in one
call for a SIP message.  Nothing is kept per frame or per flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import Endpoint, IPv4Address, MacAddress
from repro.net.packet import build_udp_frame
from repro.rtp.packet import encode_header
from repro.sip.auth import compute_response
from repro.sip.constants import (
    METHOD_ACK,
    METHOD_BYE,
    METHOD_INVITE,
    METHOD_MESSAGE,
    METHOD_REGISTER,
    STATUS_OK,
    STATUS_RINGING,
    STATUS_UNAUTHORIZED,
)
from repro.sip.headers import HeaderTable, NameAddr, Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.sdp import audio_offer
from repro.sip.uri import SipUri

SIP_PORT = 5060
# Subscriber address plan: collision-free integer arithmetic over /8
# style blocks.  Attackers live in a disjoint block so ground-truth
# labels can also be audited by address.
SUBSCRIBER_IP_BASE = (10 << 24) | (100 << 16)  # 10.100.0.0+
ATTACKER_IP_BASE = (10 << 24) | (66 << 16)  # 10.66.0.0+
REGISTRAR_IP = "10.0.0.10"
# Media ports rotate over even ports inside the distiller's RTP range;
# fresh port per call per party (see module docstring for why).
MEDIA_PORT_MIN = 10000
MEDIA_PORT_SLOTS = 27_000  # even ports 10000..63998


@dataclass(frozen=True, slots=True)
class Subscriber:
    """One simulated carrier user (or attacker host).

    ``mac`` (``02:00`` then the four address bytes) and ``uri`` are
    derived from the identity fields when the subscriber is built.
    """

    index: int
    user: str
    domain: str
    ip: IPv4Address
    mac: MacAddress = field(init=False, repr=False, compare=False)
    uri: SipUri = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mac", MacAddress.from_bytes(b"\x02\x00" + self.ip.to_bytes())
        )
        object.__setattr__(self, "uri", SipUri(user=self.user, host=self.domain))

    @property
    def aor(self) -> str:
        return f"{self.user}@{self.domain}"

    @property
    def sip_endpoint(self) -> Endpoint:
        return Endpoint(self.ip, SIP_PORT)

    @property
    def password(self) -> str:
        return f"pw-{self.user}"


@dataclass(slots=True)
class TimedFrame:
    """One forged frame, pre-sort: (when, wire bytes, label id)."""

    time: float
    frame: bytes
    label: int = -1


@dataclass(slots=True)
class CallHandle:
    """What an attack ladder needs to know about a forged call."""

    call_id: str
    caller: Subscriber
    callee: Subscriber
    caller_tag: str
    callee_tag: str
    caller_media: Endpoint
    callee_media: Endpoint


class FrameForge:
    """Builds timed wire frames for calls, registrations, IMs and attacks."""

    def __init__(self, domain: str = "carrier.example") -> None:
        self.domain = domain
        # The registrar as a frame endpoint (MAC 02:00:0a:00:00:0a).
        self._registrar = Subscriber(
            index=-1,
            user="registrar",
            domain=domain,
            ip=IPv4Address.parse(REGISTRAR_IP),
        )
        self._registrar_uri = SipUri(user="", host=domain)
        self._subscribers: dict[int, Subscriber] = {}
        self._attackers: dict[int, Subscriber] = {}
        self._serial = 0
        self._ip_id = 0
        self._media_slots: dict[int, int] = {}  # subscriber index -> next slot

    # -- identity -----------------------------------------------------------

    def subscriber(self, index: int) -> Subscriber:
        sub = self._subscribers.get(index)
        if sub is None:
            sub = self._subscribers[index] = Subscriber(
                index=index,
                user=f"sub{index:06d}",
                domain=self.domain,
                ip=IPv4Address(SUBSCRIBER_IP_BASE + index),
            )
        return sub

    def attacker(self, index: int) -> Subscriber:
        sub = self._attackers.get(index)
        if sub is None:
            sub = self._attackers[index] = Subscriber(
                index=index,
                user=f"mal{index:04d}",
                domain="intruder.invalid",
                ip=IPv4Address(ATTACKER_IP_BASE + index),
            )
        return sub

    def next_media_port(self, sub: Subscriber) -> int:
        slot = self._media_slots.get(sub.index, 0)
        self._media_slots[sub.index] = slot + 1
        return MEDIA_PORT_MIN + 2 * (slot % MEDIA_PORT_SLOTS)

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def new_call_id(self) -> str:
        return f"wl-{self._next_serial():08x}@{self.domain}"

    def _tag(self) -> str:
        return f"t{self._next_serial():06x}"

    def _branch(self) -> str:
        return f"z9hG4bK{self._next_serial():08x}"

    # -- low-level builders ---------------------------------------------------

    def _udp(
        self,
        time: float,
        src: Subscriber,
        dst: Subscriber,
        src_port: int,
        dst_port: int,
        payload: bytes,
    ) -> TimedFrame:
        self._ip_id = ip_id = (self._ip_id + 1) & 0xFFFF
        return TimedFrame(
            time,
            build_udp_frame(
                src.mac, dst.mac, src.ip, dst.ip, src_port, dst_port, payload, ip_id
            ),
        )

    def _request(
        self,
        method: str,
        uri: SipUri,
        sender: Subscriber,
        from_addr: NameAddr,
        to_addr: NameAddr,
        call_id: str,
        cseq: int,
        body: bytes = b"",
        content_type: str | None = None,
        extra: tuple[tuple[str, str], ...] = (),
    ) -> bytes:
        via = Via("UDP", str(sender.ip), SIP_PORT, params=(("branch", self._branch()),))
        items = [
            ("Via", str(via)),
            ("Max-Forwards", "70"),
            ("From", str(from_addr)),
            ("To", str(to_addr)),
            ("Call-ID", call_id),
            ("CSeq", f"{cseq} {method}"),
            ("Contact", f"<sip:{sender.user}@{sender.ip}:{SIP_PORT}>"),
            *extra,
        ]
        _close_headers(items, body, content_type)
        return SipRequest(
            headers=HeaderTable(items), body=body, method=method, uri=uri
        ).encode()

    def _response(
        self,
        status: int,
        responder: Subscriber | None,
        from_addr: NameAddr,
        to_addr: NameAddr,
        call_id: str,
        cseq: int,
        cseq_method: str,
        body: bytes = b"",
        content_type: str | None = None,
        extra: tuple[tuple[str, str], ...] = (),
    ) -> bytes:
        host = str((responder or self._registrar).ip)
        via = Via("UDP", host, SIP_PORT, params=(("branch", self._branch()),))
        items = [
            ("Via", str(via)),
            ("From", str(from_addr)),
            ("To", str(to_addr)),
            ("Call-ID", call_id),
            ("CSeq", f"{cseq} {cseq_method}"),
            *extra,
        ]
        _close_headers(items, body, content_type)
        return SipResponse(headers=HeaderTable(items), body=body, status=status).encode()

    def _rtp_stream(
        self,
        sender: Subscriber,
        receiver: Subscriber,
        src_port: int,
        dst_port: int,
        start: float,
        count: int,
        interval: float,
        first_seq: int,
        ssrc: int,
    ) -> list[TimedFrame]:
        udp = self._udp
        payload = b"\x00" * 24
        return [
            udp(
                start + i * interval,
                sender,
                receiver,
                src_port,
                dst_port,
                encode_header(
                    0, (first_seq + i) & 0xFFFF, (i * 160) & 0xFFFFFFFF, ssrc, i == 0
                )
                + payload,
            )
            for i in range(count)
        ]

    # -- benign ladders --------------------------------------------------------

    def call(
        self,
        caller: Subscriber,
        callee: Subscriber,
        start: float,
        duration: float,
        pps: float,
        rng,
    ) -> tuple[list[TimedFrame], CallHandle]:
        """A complete benign call: INVITE → 180 → 200 → ACK → RTP ↔ → BYE.

        The hangup party's RTP stops strictly before its BYE, so the
        network-wide orphan watch armed by the BYE sees silence.
        """
        call_id = self.new_call_id()
        caller_tag, callee_tag = self._tag(), self._tag()
        caller_port = self.next_media_port(caller)
        callee_port = self.next_media_port(callee)
        handle = CallHandle(
            call_id=call_id,
            caller=caller,
            callee=callee,
            caller_tag=caller_tag,
            callee_tag=callee_tag,
            caller_media=Endpoint(caller.ip, caller_port),
            callee_media=Endpoint(callee.ip, callee_port),
        )
        frames = self._call_setup(handle, start)
        media_start = start + 0.30
        interval = 1.0 / pps
        count = max(2, round(duration * pps))
        frames += self._rtp_stream(
            caller,
            callee,
            caller_port,
            callee_port,
            media_start,
            count,
            interval,
            first_seq=rng.randrange(0, 0x8000),
            ssrc=rng.getrandbits(32),
        )
        frames += self._rtp_stream(
            callee,
            caller,
            callee_port,
            caller_port,
            media_start + interval / 2,
            count,
            interval,
            first_seq=rng.randrange(0, 0x8000),
            ssrc=rng.getrandbits(32),
        )
        media_end = media_start + count * interval
        frames += self._call_teardown(
            handle, media_end + 0.25, by_caller=rng.random() < 0.5
        )
        return frames, handle

    def _call_setup(self, handle: CallHandle, start: float) -> list[TimedFrame]:
        caller, callee = handle.caller, handle.callee
        from_addr = NameAddr(caller.uri).with_tag(handle.caller_tag)
        to_bare = NameAddr(callee.uri)
        to_tagged = to_bare.with_tag(handle.callee_tag)
        offer = audio_offer(
            caller.ip,
            handle.caller_media.port,
            session_id=str(self._next_serial()),
            user=caller.user,
        ).encode()
        answer = audio_offer(
            callee.ip,
            handle.callee_media.port,
            session_id=str(self._next_serial()),
            user=callee.user,
        ).encode()
        invite = self._request(
            METHOD_INVITE,
            callee.uri,
            caller,
            from_addr,
            to_bare,
            handle.call_id,
            1,
            body=offer,
            content_type="application/sdp",
        )
        ringing = self._response(
            STATUS_RINGING,
            callee,
            from_addr,
            to_tagged,
            handle.call_id,
            1,
            METHOD_INVITE,
        )
        ok = self._response(
            STATUS_OK,
            callee,
            from_addr,
            to_tagged,
            handle.call_id,
            1,
            METHOD_INVITE,
            body=answer,
            content_type="application/sdp",
        )
        ack = self._request(
            METHOD_ACK,
            callee.uri,
            caller,
            from_addr,
            to_tagged,
            handle.call_id,
            1,
        )
        return [
            self._udp(start, caller, callee, SIP_PORT, SIP_PORT, invite),
            self._udp(start + 0.08, callee, caller, SIP_PORT, SIP_PORT, ringing),
            self._udp(start + 0.20, callee, caller, SIP_PORT, SIP_PORT, ok),
            self._udp(start + 0.24, caller, callee, SIP_PORT, SIP_PORT, ack),
        ]

    def _call_teardown(
        self, handle: CallHandle, when: float, by_caller: bool
    ) -> list[TimedFrame]:
        caller, callee = handle.caller, handle.callee
        if by_caller:
            sender, receiver = caller, callee
            from_addr = NameAddr(caller.uri).with_tag(handle.caller_tag)
            to_addr = NameAddr(callee.uri).with_tag(handle.callee_tag)
        else:
            sender, receiver = callee, caller
            from_addr = NameAddr(callee.uri).with_tag(handle.callee_tag)
            to_addr = NameAddr(caller.uri).with_tag(handle.caller_tag)
        bye = self._request(
            METHOD_BYE, receiver.uri, sender, from_addr, to_addr, handle.call_id, 2
        )
        ok = self._response(
            STATUS_OK, receiver, from_addr, to_addr, handle.call_id, 2, METHOD_BYE
        )
        return [
            self._udp(when, sender, receiver, SIP_PORT, SIP_PORT, bye),
            self._udp(when + 0.05, receiver, sender, SIP_PORT, SIP_PORT, ok),
        ]

    def registration(
        self, sub: Subscriber, start: float, auth_churn: bool
    ) -> tuple[list[TimedFrame], str]:
        """REGISTER ladder; with ``auth_churn`` the full 401 digest dance.

        Returns ``(frames, call_id)``.
        """
        call_id = self.new_call_id()
        tag = self._tag()
        from_addr = NameAddr(sub.uri).with_tag(tag)
        to_addr = NameAddr(sub.uri)
        registrar_uri = self._registrar_uri
        frames: list[TimedFrame] = []
        cseq = 1
        if auth_churn:
            bare = self._request(
                METHOD_REGISTER, registrar_uri, sub, from_addr, to_addr, call_id, cseq
            )
            nonce = f"{self._next_serial():032x}"
            challenge = self._response(
                STATUS_UNAUTHORIZED,
                None,
                from_addr,
                to_addr.with_tag(self._tag()),
                call_id,
                cseq,
                METHOD_REGISTER,
                extra=(
                    (
                        "WWW-Authenticate",
                        f'Digest realm="{self.domain}", nonce="{nonce}", algorithm=MD5',
                    ),
                ),
            )
            frames.append(
                self._udp(start, sub, self._registrar, SIP_PORT, SIP_PORT, bare)
            )
            frames.append(
                self._udp(
                    start + 0.05, self._registrar, sub, SIP_PORT, SIP_PORT, challenge
                )
            )
            cseq += 1
            start += 0.10
            digest = compute_response(
                sub.user,
                self.domain,
                sub.password,
                METHOD_REGISTER,
                str(registrar_uri),
                nonce,
            )
            authorization = (
                f'Digest username="{sub.user}", realm="{self.domain}", '
                f'nonce="{nonce}", uri="{registrar_uri}", response="{digest}", '
                f"algorithm=MD5"
            )
            register = self._request(
                METHOD_REGISTER,
                registrar_uri,
                sub,
                from_addr,
                to_addr,
                call_id,
                cseq,
                extra=(("Authorization", authorization),),
            )
        else:
            register = self._request(
                METHOD_REGISTER, registrar_uri, sub, from_addr, to_addr, call_id, cseq
            )
        ok = self._response(
            STATUS_OK,
            None,
            from_addr,
            to_addr.with_tag(self._tag()),
            call_id,
            cseq,
            METHOD_REGISTER,
            extra=(("Contact", f"<sip:{sub.user}@{sub.ip}:{SIP_PORT}>"),),
        )
        frames.append(
            self._udp(start, sub, self._registrar, SIP_PORT, SIP_PORT, register)
        )
        frames.append(
            self._udp(start + 0.05, self._registrar, sub, SIP_PORT, SIP_PORT, ok)
        )
        return frames, call_id

    def im_conversation(
        self,
        sender: Subscriber,
        receiver: Subscriber,
        start: float,
        count: int,
        spacing: float,
    ) -> tuple[list[TimedFrame], str]:
        """``count`` MESSAGE/200 pairs in one Call-ID.

        Returns ``(frames, call_id)``.
        """
        call_id = self.new_call_id()
        tag = self._tag()
        from_addr = NameAddr(sender.uri).with_tag(tag)
        to_addr = NameAddr(receiver.uri)
        frames: list[TimedFrame] = []
        for i in range(count):
            when = start + i * spacing
            body = f"msg {i} from {sender.user}".encode()
            message = self._request(
                METHOD_MESSAGE,
                receiver.uri,
                sender,
                from_addr,
                to_addr,
                call_id,
                i + 1,
                body=body,
                content_type="text/plain",
            )
            ok = self._response(
                STATUS_OK,
                receiver,
                from_addr,
                to_addr.with_tag(self._tag()),
                call_id,
                i + 1,
                METHOD_MESSAGE,
            )
            frames.append(
                self._udp(when, sender, receiver, SIP_PORT, SIP_PORT, message)
            )
            frames.append(
                self._udp(when + 0.04, receiver, sender, SIP_PORT, SIP_PORT, ok)
            )
        return frames, call_id

    # -- attack ladders --------------------------------------------------------
    #
    # Each returns (frames, session, injection_time).  The caller wraps
    # them into ground-truth labels; `injection_time` is the first
    # malicious frame's timestamp.

    def forged_bye(
        self, attacker: Subscriber, handle: CallHandle, when: float
    ) -> tuple[list[TimedFrame], str, float]:
        """The BYE attack: teardown forged from the attacker's host.

        The BYE claims to come from the *caller*; the caller's RTP
        (still flowing — nobody told them) becomes the orphan flow.
        """
        from_addr = NameAddr(handle.caller.uri).with_tag(handle.caller_tag)
        to_addr = NameAddr(handle.callee.uri).with_tag(handle.callee_tag)
        bye = self._request(
            METHOD_BYE,
            handle.callee.uri,
            attacker,
            from_addr,
            to_addr,
            handle.call_id,
            7,
        )
        frames = [
            self._udp(when, attacker, handle.callee, SIP_PORT, SIP_PORT, bye)
        ]
        return frames, handle.call_id, when

    def forged_reinvite(
        self, attacker: Subscriber, handle: CallHandle, when: float
    ) -> tuple[list[TimedFrame], str, float]:
        """Call hijack: re-INVITE claiming the callee's media moved to
        the attacker.  The callee's RTP from the old endpoint becomes
        the orphan flow (and, post-redirect, a rogue source)."""
        from_addr = NameAddr(handle.callee.uri).with_tag(handle.callee_tag)
        to_addr = NameAddr(handle.caller.uri).with_tag(handle.caller_tag)
        hijack_port = self.next_media_port(attacker)
        sdp = audio_offer(
            attacker.ip,
            hijack_port,
            session_id=str(self._next_serial()),
            version="2",
            user=handle.callee.user,
        ).encode()
        reinvite = self._request(
            METHOD_INVITE,
            handle.caller.uri,
            attacker,
            from_addr,
            to_addr,
            handle.call_id,
            8,
            body=sdp,
            content_type="application/sdp",
        )
        frames = [
            self._udp(when, attacker, handle.caller, SIP_PORT, SIP_PORT, reinvite)
        ]
        return frames, handle.call_id, when

    def forged_im(
        self,
        attacker: Subscriber,
        victim: Subscriber,
        receiver: Subscriber,
        when: float,
    ) -> tuple[list[TimedFrame], str, float]:
        """Fake IM: a MESSAGE claiming the victim's AoR from the
        attacker's address, inside the victim's mobility window."""
        call_id = self.new_call_id()
        from_addr = NameAddr(victim.uri).with_tag(self._tag())
        to_addr = NameAddr(receiver.uri)
        body = b"wire $10000 to account 1337 immediately"
        message = self._request(
            METHOD_MESSAGE,
            receiver.uri,
            attacker,
            from_addr,
            to_addr,
            call_id,
            1,
            body=body,
            content_type="text/plain",
        )
        frames = [
            self._udp(when, attacker, receiver, SIP_PORT, SIP_PORT, message)
        ]
        return frames, call_id, when

    def rtp_injection(
        self,
        attacker: Subscriber,
        handle: CallHandle,
        when: float,
        rng,
        garbage_count: int = 4,
        wild_count: int = 2,
    ) -> tuple[list[TimedFrame], str, float]:
        """The RTP attack: garbage datagrams on the callee's media port
        (→ RTP-003) plus valid-RTP packets with wild sequence numbers
        from an unnegotiated source (→ RTP-001 / RTP-002)."""
        frames: list[TimedFrame] = []
        attacker_port = self.next_media_port(attacker)
        dst = handle.callee_media
        for i in range(garbage_count):
            # First byte masked to version 0/1 so neither the RTP nor the
            # RTCP sniffer claims it: it lands as garbage-on-media-port.
            raw = bytes([rng.getrandbits(8) & 0x3F]) + bytes(
                rng.getrandbits(8) for _ in range(31)
            )
            frames.append(
                self._udp(
                    when + i * 0.15,
                    attacker,
                    handle.callee,
                    attacker_port,
                    dst.port,
                    raw,
                )
            )
        for i in range(wild_count):
            header = encode_header(
                0,
                rng.randrange(0x9000, 0xF000),
                rng.getrandbits(32),
                rng.getrandbits(32),
            )
            frames.append(
                self._udp(
                    when + 0.05 + i * 0.20,
                    attacker,
                    handle.callee,
                    attacker_port,
                    dst.port,
                    header + b"\xde" * 24,
                )
            )
        return frames, handle.call_id, when

    def register_flood(
        self, attacker: Subscriber, victim: Subscriber, when: float, burst: int = 6
    ) -> tuple[list[TimedFrame], str, float]:
        """REGISTER DoS: unauthenticated REGISTERs ignoring 401s."""
        call_id = self.new_call_id()
        tag = self._tag()
        from_addr = NameAddr(victim.uri).with_tag(tag)
        to_addr = NameAddr(victim.uri)
        registrar_uri = self._registrar_uri
        frames: list[TimedFrame] = []
        nonce = f"{self._next_serial():032x}"
        challenge_extra = (
            (
                "WWW-Authenticate",
                f'Digest realm="{self.domain}", nonce="{nonce}", algorithm=MD5',
            ),
        )
        for i in range(burst + 1):
            register = self._request(
                METHOD_REGISTER,
                registrar_uri,
                attacker,
                from_addr,
                to_addr,
                call_id,
                i + 1,
            )
            challenge = self._response(
                STATUS_UNAUTHORIZED,
                None,
                from_addr,
                to_addr.with_tag(self._tag()),
                call_id,
                i + 1,
                METHOD_REGISTER,
                extra=challenge_extra,
            )
            t = when + i * 0.30
            frames.append(
                self._udp(t, attacker, self._registrar, SIP_PORT, SIP_PORT, register)
            )
            frames.append(
                self._udp(
                    t + 0.05, self._registrar, attacker, SIP_PORT, SIP_PORT, challenge
                )
            )
        return frames, call_id, when

    # -- volumetric flood ladders ---------------------------------------------
    #
    # Pressure workloads for the overload-control plane.  Each emits
    # exactly ``packets`` attacker frames at ``pps`` and returns the same
    # ``(frames, session, injection_time)`` shape as the attack ladders.
    # ``session`` is "" — a flood spans thousands of Call-IDs (or none),
    # so ground truth labels it by attacker address and time window.

    def invite_flood(
        self,
        attacker: Subscriber,
        victim: Subscriber,
        when: float,
        packets: int,
        pps: float,
    ) -> tuple[list[TimedFrame], str, float]:
        """INVITE flood: fresh Call-ID per frame so every INVITE opens a
        new dialog — the worst case for the signalling broadcast plane."""
        interval = 1.0 / pps
        to_addr = NameAddr(victim.uri)
        frames: list[TimedFrame] = []
        for i in range(packets):
            from_addr = NameAddr(attacker.uri).with_tag(self._tag())
            invite = self._request(
                METHOD_INVITE,
                victim.uri,
                attacker,
                from_addr,
                to_addr,
                self.new_call_id(),
                1,
            )
            frames.append(
                self._udp(
                    when + i * interval, attacker, victim, SIP_PORT, SIP_PORT, invite
                )
            )
        return frames, "", when

    def register_flood_storm(
        self,
        attacker: Subscriber,
        victim: Subscriber,
        when: float,
        packets: int,
        pps: float,
    ) -> tuple[list[TimedFrame], str, float]:
        """Sustained unauthenticated REGISTER storm against one AoR.

        A fresh Call-ID every 32 frames with CSeq climbing inside each —
        the shape of a credential-stuffing registrar flood (the §3.3
        register-dos ladder at volumetric rate, no 401s answered)."""
        interval = 1.0 / pps
        registrar_uri = self._registrar_uri
        to_addr = NameAddr(victim.uri)
        frames: list[TimedFrame] = []
        call_id = self.new_call_id()
        from_addr = NameAddr(victim.uri).with_tag(self._tag())
        for i in range(packets):
            if i and i % 32 == 0:
                call_id = self.new_call_id()
                from_addr = NameAddr(victim.uri).with_tag(self._tag())
            register = self._request(
                METHOD_REGISTER,
                registrar_uri,
                attacker,
                from_addr,
                to_addr,
                call_id,
                (i % 32) + 1,
            )
            frames.append(
                self._udp(
                    when + i * interval,
                    attacker,
                    self._registrar,
                    SIP_PORT,
                    SIP_PORT,
                    register,
                )
            )
        return frames, "", when

    def rtp_flood(
        self,
        attacker: Subscriber,
        victim: Subscriber,
        when: float,
        packets: int,
        pps: float,
        rng,
    ) -> tuple[list[TimedFrame], str, float]:
        """RTP flood at a victim media port: valid-version RTP datagrams
        from an unnegotiated source, saturating the media plane."""
        interval = 1.0 / pps
        attacker_port = self.next_media_port(attacker)
        victim_port = self.next_media_port(victim)
        ssrc = rng.getrandbits(32)
        first_seq = rng.randrange(0, 0x8000)
        udp = self._udp
        payload = b"\xad" * 24
        frames = [
            udp(
                when + i * interval,
                attacker,
                victim,
                attacker_port,
                victim_port,
                encode_header(0, (first_seq + i) & 0xFFFF, (i * 160) & 0xFFFFFFFF, ssrc)
                + payload,
            )
            for i in range(packets)
        ]
        return frames, "", when

    # -- attack-carrier calls --------------------------------------------------

    def victim_call_with_overrun(
        self,
        caller: Subscriber,
        callee: Subscriber,
        start: float,
        attack_at_offset: float,
        overrun: float,
        pps: float,
        rng,
        overrun_party: str,
    ) -> tuple[list[TimedFrame], CallHandle, float]:
        """A call whose ``overrun_party``'s RTP keeps flowing for
        ``overrun`` seconds past ``attack_at_offset`` (the instant the
        forged teardown/redirect lands) — the orphan flow the stateful
        rules catch.  Returns (frames, handle, attack_time)."""
        call_id = self.new_call_id()
        caller_tag, callee_tag = self._tag(), self._tag()
        caller_port = self.next_media_port(caller)
        callee_port = self.next_media_port(callee)
        handle = CallHandle(
            call_id=call_id,
            caller=caller,
            callee=callee,
            caller_tag=caller_tag,
            callee_tag=callee_tag,
            caller_media=Endpoint(caller.ip, caller_port),
            callee_media=Endpoint(callee.ip, callee_port),
        )
        frames = self._call_setup(handle, start)
        media_start = start + 0.30
        attack_time = media_start + attack_at_offset
        interval = 1.0 / pps
        end_plain = attack_time  # the non-overrunning party stops here
        end_over = attack_time + overrun
        count_caller = max(
            2,
            round(
                ((end_over if overrun_party == "caller" else end_plain) - media_start)
                * pps
            ),
        )
        count_callee = max(
            2,
            round(
                ((end_over if overrun_party == "callee" else end_plain) - media_start)
                * pps
            ),
        )
        frames += self._rtp_stream(
            caller,
            callee,
            caller_port,
            callee_port,
            media_start,
            count_caller,
            interval,
            first_seq=rng.randrange(0, 0x8000),
            ssrc=rng.getrandbits(32),
        )
        frames += self._rtp_stream(
            callee,
            caller,
            callee_port,
            caller_port,
            media_start + interval / 2,
            count_callee,
            interval,
            first_seq=rng.randrange(0, 0x8000),
            ssrc=rng.getrandbits(32),
        )
        return frames, handle, attack_time


def _close_headers(
    items: list[tuple[str, str]], body: bytes, content_type: str | None
) -> None:
    """Append what ``encode`` would add last: Content-Type for a body,
    then Content-Length."""
    if body:
        items.append(("Content-Type", content_type or "text/plain"))
    items.append(("Content-Length", str(len(body))))


def garbage_is_undecodable(payload: bytes) -> bool:
    """Sanity helper for tests: the forged garbage must not accidentally
    parse as RTP (version 2 in the top bits)."""
    return len(payload) < 12 or (payload[0] >> 6) != 2
