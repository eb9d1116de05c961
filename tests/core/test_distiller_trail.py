"""Unit tests for the Distiller and the Trail manager."""

from __future__ import annotations

import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distiller import ADDRESS_TABLE_CAP, Distiller
from repro.core.footprint import (
    AccountingFootprint,
    MalformedFootprint,
    Protocol,
    RtcpFootprint,
    RtpFootprint,
    SipFootprint,
)
from repro.core.trail import TRAIL_TAIL, Session, TrailManager, _media_index_key
from repro.h323.h225 import H225_PORT, H225Message, MessageType
from repro.net.addr import Endpoint, IPv4Address, MacAddress
from repro.net.fragmentation import fragment
from repro.net.packet import (
    EthernetFrame,
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    IPv4Packet,
    UdpDatagram,
    build_udp_frame,
)
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import Bye
from repro.sip.message import SipRequest
from repro.sip.sdp import SdpError, SessionDescription
from tests.core.test_state import _sdp

SRC_MAC = MacAddress("02:00:00:00:00:01")
DST_MAC = MacAddress("02:00:00:00:00:02")
A = IPv4Address.parse("10.0.0.10")
B = IPv4Address.parse("10.0.0.20")
C = IPv4Address.parse("10.0.0.30")

SIP_INVITE = (
    b"INVITE sip:bob@example.com SIP/2.0\r\n"
    b"Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-1\r\n"
    b"From: <sip:alice@example.com>;tag=a1\r\n"
    b"To: <sip:bob@example.com>\r\n"
    b"Call-ID: call-7\r\n"
    b"CSeq: 1 INVITE\r\n"
    b"Contact: <sip:alice@10.0.0.10:5060>\r\n"
    b"Content-Type: application/sdp\r\n"
    b"Content-Length: %d\r\n"
    b"\r\n"
)
SDP_BODY = (
    b"v=0\r\no=alice 1 1 IN IP4 10.0.0.10\r\ns=-\r\nc=IN IP4 10.0.0.10\r\n"
    b"t=0 0\r\nm=audio 40000 RTP/AVP 0\r\n"
)


def sip_frame(payload: bytes | None = None, src_port=5060, dst_port=5060) -> bytes:
    if payload is None:
        payload = SIP_INVITE % len(SDP_BODY) + SDP_BODY
    return build_udp_frame(SRC_MAC, DST_MAC, A, B, src_port, dst_port, payload)


def rtp_frame(seq: int = 1, src=B, dst=A, src_port=40000, dst_port=40000, ssrc=5) -> bytes:
    packet = RtpPacket(payload_type=0, sequence=seq, timestamp=seq * 160, ssrc=ssrc, payload=b"x" * 160)
    return build_udp_frame(SRC_MAC, DST_MAC, src, dst, src_port, dst_port, packet.encode())


def rtcp_frame(src=B, dst=A, src_port=40001, dst_port=40001) -> bytes:
    return build_udp_frame(
        SRC_MAC, DST_MAC, src, dst, src_port, dst_port, Bye(ssrcs=(1,)).encode()
    )


def garbage_frame(src=C, dst=A, src_port=33333, dst_port=40000) -> bytes:
    """Not RTP/RTCP, on a media port: a ``malformed-rtp`` trail keyed by
    its source alone."""
    return build_udp_frame(SRC_MAC, DST_MAC, src, dst, src_port, dst_port, b"\x00" * 50)


def sdp_frame(call_id: str = "call-7", ip: IPv4Address = A, port: int = 40000,
              response: bool = False) -> bytes:
    """An INVITE (or its 200) whose SDP advertises ``ip:port`` for audio."""
    body = _sdp(str(ip), port)
    start = "SIP/2.0 200 OK" if response else "INVITE sip:bob@example.com SIP/2.0"
    head = (
        f"{start}\r\n"
        "Via: SIP/2.0/UDP 10.0.0.10:5060;branch=z9hG4bK-1\r\n"
        "From: <sip:alice@example.com>;tag=a1\r\n"
        "To: <sip:bob@example.com>;tag=b1\r\n"
        f"Call-ID: {call_id}\r\n"
        "CSeq: 1 INVITE\r\n"
        "Content-Type: application/sdp\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return sip_frame(payload=head + body)


class TestDistiller:
    def test_sip_footprint(self):
        distiller = Distiller()
        fp = distiller.distill(sip_frame(), 1.0)
        assert isinstance(fp, SipFootprint)
        assert fp.method == "INVITE"
        assert fp.call_id() == "call-7"
        assert fp.src == Endpoint(A, 5060)
        assert fp.timestamp == 1.0

    def test_rtp_footprint(self):
        fp = Distiller().distill(rtp_frame(seq=9), 2.0)
        assert isinstance(fp, RtpFootprint)
        assert fp.sequence == 9
        assert fp.ssrc == 5
        assert fp.payload_len == 160

    def test_rtcp_footprint(self):
        payload = Bye(ssrcs=(1,)).encode()
        frame = build_udp_frame(SRC_MAC, DST_MAC, B, A, 40001, 40001, payload)
        fp = Distiller().distill(frame, 0.0)
        assert isinstance(fp, RtcpFootprint)
        assert fp.has_bye

    def test_malformed_sip(self):
        bad = SIP_INVITE % 0 + b""
        bad = bad.replace(b"CSeq: 1 INVITE", b"CSeq: 1 INVITE\r\nFrom: <sip:victim@example.com>;tag=v")
        fp = Distiller().distill(sip_frame(payload=bad), 0.0)
        assert isinstance(fp, MalformedFootprint)
        assert fp.claimed_protocol == Protocol.SIP
        assert "From" in fp.reason

    def test_garbage_on_media_port_is_malformed_rtp(self):
        frame = build_udp_frame(SRC_MAC, DST_MAC, B, A, 33333, 40000, b"\x00" * 50)
        fp = Distiller().distill(frame, 0.0)
        assert isinstance(fp, MalformedFootprint)
        assert fp.claimed_protocol == Protocol.RTP

    def test_accounting_footprint(self):
        payload = b"TXN action=start call_id=c9 from=alice@example.com to=bob@example.com ts=1.5"
        frame = build_udp_frame(SRC_MAC, DST_MAC, A, B, 9091, 9090, payload)
        fp = Distiller().distill(frame, 0.0)
        assert isinstance(fp, AccountingFootprint)
        assert fp.call_id == "c9"
        assert fp.from_aor == "alice@example.com"
        assert fp.action == "start"

    def test_bad_accounting_line_malformed(self):
        frame = build_udp_frame(SRC_MAC, DST_MAC, A, B, 9091, 9090, b"TXN nonsense")
        fp = Distiller().distill(frame, 0.0)
        assert isinstance(fp, MalformedFootprint)
        assert fp.claimed_protocol == Protocol.ACCOUNTING

    def test_fragmented_sip_reassembled(self):
        payload = SIP_INVITE % len(SDP_BODY) + SDP_BODY
        udp = UdpDatagram(5060, 5060, payload).encode(A, B)
        packet = IPv4Packet(A, B, IPPROTO_UDP, udp, identification=44)
        distiller = Distiller()
        footprints = []
        for frag in fragment(packet, mtu=200):
            frame = EthernetFrame(DST_MAC, SRC_MAC, ETHERTYPE_IPV4, frag.encode()).encode()
            fp = distiller.distill(frame, 0.0)
            if fp is not None:
                footprints.append(fp)
        assert len(footprints) == 1
        assert isinstance(footprints[0], SipFootprint)
        assert distiller.stats.fragments_held > 0

    def test_non_voip_traffic_ignored(self):
        frame = build_udp_frame(SRC_MAC, DST_MAC, A, B, 1111, 2222, b"dns-ish")
        assert Distiller().distill(frame, 0.0) is None

    def test_non_ip_ignored(self):
        frame = EthernetFrame(DST_MAC, SRC_MAC, 0x0806, b"arp").encode()
        distiller = Distiller()
        assert distiller.distill(frame, 0.0) is None
        assert distiller.stats.non_ip == 1

    def test_stats_counted(self):
        distiller = Distiller()
        distiller.distill(sip_frame(), 0.0)
        distiller.distill(rtp_frame(), 0.1)
        assert distiller.stats.frames == 2
        assert distiller.stats.footprints == 2


class TestTrailManager:
    def _distill(self, frames: list[tuple[bytes, float]]):
        distiller = Distiller()
        manager = TrailManager()
        trails = []
        for frame, t in frames:
            fp = distiller.distill(frame, t)
            if fp is not None:
                trails.append(manager.push(fp))
        return manager, trails

    def test_sip_keyed_by_call_id(self):
        manager, trails = self._distill([(sip_frame(), 0.0), (sip_frame(), 0.1)])
        assert manager.trail_count == 1
        assert len(trails[0]) == 2
        assert trails[0].key == ("sip", "call-7")

    def test_rtp_keyed_by_flow(self):
        manager, __ = self._distill([
            (rtp_frame(seq=1), 0.0),
            (rtp_frame(seq=2), 0.02),
            (rtp_frame(seq=1, src=A, dst=B), 0.03),  # reverse direction
        ])
        rtp_trails = [t for t in manager.trails.values() if t.protocol == Protocol.RTP]
        assert len(rtp_trails) == 2

    def test_sdp_links_rtp_trail_to_session(self):
        manager, __ = self._distill([
            (sip_frame(), 0.0),  # carries SDP: alice media = 10.0.0.10:40000
            (rtp_frame(seq=1, src=B, dst=A, dst_port=40000), 0.1),
        ])
        session = manager.session_for("call-7")
        assert session is not None
        protocols = {t.protocol for t in session.trails}
        assert Protocol.SIP in protocols
        assert Protocol.RTP in protocols
        rtp_trail = session.trail_for(Protocol.RTP)
        assert rtp_trail.call_id == "call-7"

    def test_media_owner_lookup(self):
        manager, __ = self._distill([(sip_frame(), 0.0)])
        assert manager.media_owner(Endpoint(A, 40000)) == "call-7"
        assert manager.media_owner(Endpoint(A, 49998)) is None

    def test_rtcp_port_normalised_to_rtp_session(self):
        payload = Bye(ssrcs=(1,)).encode()
        rtcp = build_udp_frame(SRC_MAC, DST_MAC, B, A, 40001, 40001, payload)
        manager, __ = self._distill([(sip_frame(), 0.0), (rtcp, 0.1)])
        session = manager.session_for("call-7")
        assert session.trail_for(Protocol.RTCP) is not None

    def test_accounting_attached_by_call_id(self):
        txn = build_udp_frame(
            SRC_MAC, DST_MAC, A, B, 9091, 9090,
            b"TXN action=start call_id=call-7 from=alice@example.com to=bob@example.com",
        )
        manager, __ = self._distill([(sip_frame(), 0.0), (txn, 0.5)])
        session = manager.session_for("call-7")
        assert session.trail_for(Protocol.ACCOUNTING) is not None

    def test_media_endpoints_recorded_per_party(self):
        manager, __ = self._distill([(sip_frame(), 0.0)])
        session = manager.session_for("call-7")
        assert session.media_endpoints["alice@example.com"] == Endpoint(A, 40000)

    def test_trail_eviction_bounds_memory(self):
        manager = TrailManager()
        distiller = Distiller()
        pushed = 3 * TRAIL_TAIL
        for i in range(pushed):
            fp = distiller.distill(rtp_frame(seq=i), 1.0 + i * 0.02)
            trail = manager.push(fp)
            assert len(trail) <= TRAIL_TAIL
        assert trail.evicted > 0
        assert len(trail) + trail.evicted == pushed
        # The counters outlive the footprints they were read from.
        assert trail.first_seen == 1.0
        assert trail.last_seen == fp.timestamp
        assert trail.last is trail.footprints[-1] is fp

    def test_trail_timestamps(self):
        manager, trails = self._distill([(sip_frame(), 1.0), (sip_frame(), 2.0)])
        trail = trails[0]
        assert trail.first_seen == 1.0
        assert trail.last_seen == 2.0
        assert trail.last is trail.footprints[-1]


_TAIL_STEP = st.one_of(
    st.tuples(st.just("rtp"), st.sampled_from([40000, 40002, 40004]), st.integers(1, 2 * TRAIL_TAIL)),
    st.tuples(st.just("sip"), st.sampled_from(["c1", "c2"]), st.integers(1, TRAIL_TAIL + 2)),
    st.tuples(st.just("expire"), st.sampled_from([0.5, 5.0, 50.0])),
    st.tuples(st.just("checkpoint")),
)


class TestTrailTailModel:
    """A trail is the last ``len(trail)`` footprints of everything filed
    under its key since it was created, plus counters for the rest."""

    @given(steps=st.lists(_TAIL_STEP, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_tail_and_counters_match_a_model_list(self, steps):
        distiller, manager = Distiller(), TrailManager()
        model: dict[tuple, list] = {}
        now, filed = 0.0, 0
        for step in steps:
            now += 1.0
            if step[0] == "expire":
                stale = [key for key, fps in model.items() if now - fps[-1].timestamp > step[1]]
                assert manager.expire_idle(now, step[1]) == len(stale)
                for key in stale:
                    del model[key]
            elif step[0] == "checkpoint":
                manager = pickle.loads(pickle.dumps(manager))
            else:
                kind, which, burst = step
                for n in range(burst):
                    frame = (
                        rtp_frame(seq=filed, dst_port=which) if kind == "rtp"
                        else sdp_frame(call_id=which, port=40000 + 2 * (n % 3))
                    )
                    footprint = distiller.distill(frame, now + n * 0.001)
                    trail = manager.push(footprint)
                    model.setdefault(trail.key, []).append(footprint)
                    filed += 1
                    assert trail.last is footprint
            assert manager.trails.keys() == model.keys()
            for key, everything in model.items():
                trail = manager.trails[key]
                assert 1 <= len(trail) <= TRAIL_TAIL
                assert trail.footprints == everything[-len(trail):]
                assert len(trail) + trail.evicted == len(everything)
                assert trail.first_seen == everything[0].timestamp
                assert trail.last_seen == everything[-1].timestamp
            sizes = manager.size_stats()
            assert sizes["footprints_filed"] == filed
            assert sizes["footprints_retained"] == sum(map(len, manager.trails.values()))


class TestAddressTables:
    """One address object per distinct wire value, in bounded tables."""

    @staticmethod
    def _tables(distiller: Distiller) -> tuple[dict, dict, dict]:
        return distiller._ips, distiller._endpoints, distiller._macs

    def test_frames_of_one_flow_share_their_address_objects(self):
        distiller = Distiller()
        first, second = (distiller.distill(rtp_frame(seq=n), n * 0.02) for n in (1, 2))
        reverse = distiller.distill(rtp_frame(seq=1, src=A, dst=B), 0.05)
        for name in ("src", "dst", "src_mac", "dst_mac"):
            assert getattr(first, name) is getattr(second, name)
        assert first.src.ip is second.src.ip is reverse.dst.ip
        assert first.src is reverse.dst and first.dst is reverse.src

    def test_reassembled_datagrams_use_the_same_tables(self):
        distiller = Distiller()
        whole = distiller.distill(sip_frame(), 0.0)
        udp = UdpDatagram(5060, 5060, SIP_INVITE % len(SDP_BODY) + SDP_BODY).encode(A, B)
        packet = IPv4Packet(A, B, IPPROTO_UDP, udp, identification=45)
        footprints = [
            distiller.distill(
                EthernetFrame(DST_MAC, SRC_MAC, ETHERTYPE_IPV4, frag.encode()).encode(), 0.1
            )
            for frag in fragment(packet, mtu=200)
        ]
        reassembled = footprints[-1]
        assert isinstance(reassembled, SipFootprint)
        assert reassembled.src is whole.src and reassembled.dst is whole.dst

    def test_address_objects_grow_with_flows_not_frames(self):
        """The deterministic guard behind the peak-RSS claim: what the
        collector tracks per retained footprint."""
        flows, frames = 20, 2000
        wire = [
            rtp_frame(seq=n, src_port=40000 + 2 * (n % flows), dst_port=42000 + 2 * (n % flows))
            for n in range(frames)
        ]

        def census() -> int:
            gc.collect()
            return sum(
                isinstance(obj, (IPv4Address, Endpoint, MacAddress))
                for obj in gc.get_objects()
            )

        before = census()
        distiller = Distiller()
        kept = [distiller.distill(frame, n * 0.001) for n, frame in enumerate(wire)]
        assert len(kept) == frames and all(isinstance(fp, RtpFootprint) for fp in kept)
        # Two endpoints per flow, plus the two hosts and their two MACs.
        assert census() - before <= 2 * flows + 4

    def test_spoofed_sources_cannot_grow_the_tables(self):
        distiller = Distiller()
        payload = RtpPacket(payload_type=0, sequence=1, timestamp=160, ssrc=5, payload=b"x").encode()
        for n in range(50_000):
            frame = build_udp_frame(
                MacAddress.from_bytes(b"\x02\x00" + n.to_bytes(4, "big")), DST_MAC,
                IPv4Address(0x0B000000 + n), A, 10_000 + n % 50_000, 40000, payload,
            )
            footprint = distiller.distill(frame, n * 0.001)
            assert footprint == Distiller().distill(frame, n * 0.001)
            assert max(map(len, self._tables(distiller))) <= ADDRESS_TABLE_CAP
        stats = distiller.table_stats()
        assert stats["address_table_drops"] >= 3 * (50_000 // ADDRESS_TABLE_CAP - 1)
        assert stats["endpoint_table"] == len(distiller._endpoints) > 0


class FullScanTrailManager(TrailManager):
    """The TrailManager before the unlinked-media index: an SDP adopts
    earlier media by walking every live trail.  Kept as the oracle."""

    def _learn_sdp(self, footprint: SipFootprint, session: Session) -> None:
        message = footprint.message
        content_type = message.headers.get("Content-Type") or ""
        if "application/sdp" not in content_type.lower() or not message.body:
            return
        try:
            endpoint = SessionDescription.parse(message.body).audio_endpoint()
        except SdpError:
            return
        try:
            if isinstance(message, SipRequest):
                party = message.from_addr.uri.address_of_record
            else:
                party = message.to_addr.uri.address_of_record
        except Exception:
            party = ""
        session.media_endpoints[party] = endpoint
        self._media_index[_media_index_key(endpoint)] = session.call_id
        for trail in self.trails.values():
            if trail.protocol in (Protocol.RTP, Protocol.RTCP) and trail.call_id is None:
                last = trail.footprints[-1]
                if any(
                    Endpoint(e.ip, e.port - 1 if e.port % 2 else e.port) == endpoint
                    for e in (last.src, last.dst)
                ):
                    session.attach(trail)


def assert_index_invariant(manager: TrailManager) -> None:
    """Filed == exactly the live unlinked media trails, each under the
    even-port keys of its last footprint, serials in creation order."""
    filed: dict[tuple, tuple[set, set]] = {}  # trail key -> (index keys, serials)
    for index_key, bucket in manager._unlinked_media.items():
        assert bucket, "empty buckets are deleted"
        for trail_key, (serial, trail) in bucket.items():
            assert manager.trails.get(trail_key) is trail
            index_keys, serials = filed.setdefault(trail_key, (set(), set()))
            index_keys.add(index_key)
            serials.add(serial)
    expected = {}
    for key, trail in manager.trails.items():
        if trail.call_id is None and trail.protocol in (Protocol.RTP, Protocol.RTCP):
            last = trail.footprints[-1]
            expected[key] = {
                (e.ip.packed, e.port - e.port % 2) for e in (last.src, last.dst)
            }
    assert {key: index_keys for key, (index_keys, _) in filed.items()} == expected
    assert all(len(serials) == 1 for _, serials in filed.values())
    in_creation_order = [min(filed[key][1]) for key in manager.trails if key in filed]
    assert in_creation_order == sorted(set(in_creation_order))


class TestRetroAdoption:
    """Media that arrives *before* the SDP advertising its endpoint —
    the branch no ledger workload exercises."""

    def _run(self, steps):
        distiller, manager = Distiller(), TrailManager()
        trails = []
        for n, step in enumerate(steps):
            if callable(step):
                step(manager)
                continue
            trails.append(manager.push(distiller.distill(step, n * 0.1)))
            assert_index_invariant(manager)
        return manager, trails

    def test_rtp_before_its_sdp_is_adopted(self):
        manager, trails = self._run([rtp_frame(dst=A, dst_port=40000), sdp_frame()])
        assert trails[0].call_id == "call-7"
        assert manager.session_for("call-7").trails == [trails[1], trails[0]]
        assert manager.size_stats()["unlinked_media_index"] == 0

    def test_rtcp_on_the_odd_port_is_adopted_under_the_even_one(self):
        manager, trails = self._run([rtcp_frame(dst=A, dst_port=40001), sdp_frame()])
        assert trails[0].protocol is Protocol.RTCP
        assert trails[0].call_id == "call-7"

    def test_sdp_advertising_an_odd_port_adopts_nothing(self):
        manager, trails = self._run([
            rtp_frame(dst=A, dst_port=40001),
            rtcp_frame(dst=A, dst_port=40001),
            rtp_frame(dst=A, dst_port=40000, src_port=40002),
            sdp_frame(port=40001),
        ])
        assert [t.call_id for t in trails[:3]] == [None, None, None]
        assert manager.session_for("call-7").trails == [trails[3]]
        assert manager.size_stats()["unlinked_media_index"] > 0

    def test_malformed_media_trail_follows_its_last_destination(self):
        adopted, trails = self._run([garbage_frame(dst_port=40000), sdp_frame()])
        assert trails[0].key[0] == "malformed-rtp" and trails[0].call_id == "call-7"
        # The same source then turned to another port: the trail's last
        # packet no longer touches the advertised endpoint.
        moved, trails = self._run([
            garbage_frame(dst_port=40000),
            garbage_frame(dst_port=40010),
            sdp_frame(port=40000),
        ])
        assert trails[0] is trails[1] and trails[0].call_id is None
        moved.push(Distiller().distill(sdp_frame(call_id="call-8", port=40010), 1.0))
        assert trails[0].call_id == "call-8"

    def test_idle_expired_trail_is_not_adopted(self):
        manager, trails = self._run([
            rtp_frame(dst=A, dst_port=40000),
            lambda manager: manager.expire_idle(now=100.0, idle_timeout=10.0),
            sdp_frame(),
        ])
        assert manager.trail_count == 1
        assert trails[0].call_id is None
        assert manager.session_for("call-7").trails == [trails[1]]

    def test_matching_trails_attach_in_creation_order(self):
        manager, trails = self._run([
            garbage_frame(dst_port=40010),              # created first, elsewhere
            rtp_frame(dst=A, dst_port=40000),
            rtcp_frame(dst=A, dst_port=40001),
            garbage_frame(dst_port=40000),              # ...and moves onto the endpoint last
            rtp_frame(src=A, dst=B, src_port=40000, dst_port=40006),
            sdp_frame(),
        ])
        session = manager.session_for("call-7")
        assert session.trails == [trails[5], trails[0], trails[1], trails[2], trails[4]]

    def test_media_linked_by_its_next_packet_leaves_the_index(self):
        """H.225 fast-connect media is indexed without retro-adoption: the
        waiting flow is linked by its own next packet (``_link_media``)."""
        setup = H225Message(
            message_type=MessageType.SETUP, call_reference=7, calling_party="alice",
            media=Endpoint(A, 40000),
        )
        manager, trails = self._run([
            rtp_frame(seq=1, dst=A, dst_port=40000),
            build_udp_frame(SRC_MAC, DST_MAC, A, B, H225_PORT, H225_PORT, setup.encode()),
            rtp_frame(seq=2, dst=A, dst_port=40000),
        ])
        assert trails[0] is trails[2] and trails[0].call_id == "h323-crv-7"
        assert manager.size_stats()["unlinked_media_index"] == 0

    def test_restored_manager_finds_its_trails(self):
        manager, trails = self._run([
            rtp_frame(dst=A, dst_port=40000), rtcp_frame(dst=A, dst_port=40001),
        ])
        restored = pickle.loads(pickle.dumps(manager))
        assert_index_invariant(restored)
        assert not {"_unlinked_media", "_media_serial"} & manager.__getstate__().keys()
        restored.push(Distiller().distill(sdp_frame(), 1.0))
        assert [t.key for t in restored.session_for("call-7").trails] == [
            ("sip", "call-7"), trails[0].key, trails[1].key,
        ]


_HOSTS = st.sampled_from([A, B, C])
_PORTS = st.sampled_from([40000, 40001, 40002, 40003])
_FLOW = st.tuples(_HOSTS, _PORTS, _HOSTS, _PORTS)
_STEP = st.one_of(
    st.tuples(st.just("sdp"), st.sampled_from(["c1", "c2", "c3"]), _HOSTS, _PORTS, st.booleans()),
    st.tuples(st.just("rtp"), _FLOW),
    st.tuples(st.just("rtcp"), _FLOW),
    st.tuples(st.just("garbage"), _FLOW),
    st.tuples(st.just("expire"), st.sampled_from([0.15, 0.45, 2.0])),
    st.tuples(st.just("checkpoint")),
)


def _linkage(manager: TrailManager) -> dict:
    return {
        "trails": [(key, trail.call_id, len(trail)) for key, trail in manager.trails.items()],
        "sessions": {
            call_id: ([t.key for t in session.trails], session.media_endpoints)
            for call_id, session in manager.sessions.items()
        },
        "media_index": manager._media_index,
    }


class TestIndexedAdoptionEqualsFullScan:
    @given(steps=st.lists(_STEP, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving(self, steps):
        distiller = Distiller()
        indexed, reference = TrailManager(), FullScanTrailManager()
        now = 0.0
        for step in steps:
            now += 0.1
            kind = step[0]
            if kind == "expire":
                assert indexed.expire_idle(now, step[1]) == reference.expire_idle(now, step[1])
            elif kind == "checkpoint":
                indexed = pickle.loads(pickle.dumps(indexed))
                reference = pickle.loads(pickle.dumps(reference))
            else:
                if kind == "sdp":
                    frame = sdp_frame(*step[1:])
                else:
                    src, src_port, dst, dst_port = step[1]
                    make = {"rtp": rtp_frame, "rtcp": rtcp_frame, "garbage": garbage_frame}[kind]
                    frame = make(src=src, dst=dst, src_port=src_port, dst_port=dst_port)
                footprint = distiller.distill(frame, now)
                assert indexed.push(footprint).key == reference.push(footprint).key
            assert _linkage(indexed) == _linkage(reference)
            assert_index_invariant(indexed)
