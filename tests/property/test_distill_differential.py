"""Differential tests for the Distiller's single-pass decode.

``Distiller.distill`` reads the wire headers in place and fills an
``RtpFootprint`` straight from the validated RTP header.  The object
chain it replaced survives here, and only here, as the reference: every
frame goes through the public codecs (``EthernetFrame.decode`` →
``IPv4Packet.decode`` → ``Reassembler.push`` → ``UdpDatagram.decode`` →
decoder chain, RTP through ``RtpPacket.decode``) and the two must agree
on the footprint and on the ``DistillerStats`` bucket, frame by frame.

The cheap primitives underneath get their own references: the RFC 1071
word-sum loop for ``internet_checksum``, the validating constructors for
the ``from_bytes`` ones, and the ``split``-based sniff for
``looks_like_sip``.
"""

from __future__ import annotations

from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distiller import CLAIMED, DEFAULT_DECODERS, Distiller, DistillerStats
from repro.core.footprint import MalformedFootprint, Protocol, RtpFootprint
from repro.net.addr import Endpoint, IPv4Address, MacAddress
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.fragmentation import Reassembler, fragment
from repro.net.packet import (
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    EthernetFrame,
    IPv4Packet,
    PacketError,
    UdpDatagram,
    build_udp_frame,
)
from repro.rtp.packet import RtpError, RtpPacket, looks_like_rtp
from repro.rtp.rtcp import Bye, SenderReport
from repro.sip.message import looks_like_sip
from repro.workload import generate_workload, load_scenario
from tests.property.test_distiller_fuzz import A, B, CRASH_CORPUS, MAC1, MAC2, _SIP, _patch

_ETH = 14
_IP = _ETH + 20  # no IP options in any base frame: UDP starts here
_UDP = _IP + 8  # ... and the application payload here


# -- references --------------------------------------------------------------


def reference_checksum(data: bytes) -> int:
    """RFC 1071, one 16-bit word at a time."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def reference_looks_like_sip(payload: bytes) -> bool:
    if payload.startswith(b"SIP/2.0 "):
        return True
    head = payload.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
    return head.endswith(b" SIP/2.0")


def _reference_decode_rtp(distiller, payload, common):
    """The RTP decoder by way of a full ``RtpPacket``."""
    if looks_like_rtp(payload):
        try:
            packet = RtpPacket.decode(payload)
        except RtpError as exc:
            return MalformedFootprint(
                claimed_protocol=Protocol.RTP, reason=str(exc), **common
            )
        return RtpFootprint(
            ssrc=packet.ssrc,
            sequence=packet.sequence,
            rtp_timestamp=packet.timestamp,
            payload_type=packet.payload_type,
            payload_len=len(packet.payload),
            marker=packet.marker,
            **common,
        )
    ports = (common["src"].port, common["dst"].port)
    if any(distiller.rtp_port_min <= p <= distiller.rtp_port_max for p in ports):
        return MalformedFootprint(
            claimed_protocol=Protocol.RTP, reason="not RTP/RTCP on media port", **common
        )
    return None


class SlowDistiller:
    """``Distiller.distill`` as a chain of public codec objects."""

    decoders = DEFAULT_DECODERS[:-1] + (_reference_decode_rtp,)

    def __init__(self) -> None:
        self.config = Distiller()  # ports the decoders steer by
        self.reassembler = Reassembler()
        self.stats = DistillerStats()

    def distill(self, frame: bytes, timestamp: float):
        stats = self.stats
        stats.frames += 1
        try:
            eth = EthernetFrame.decode(frame)
        except PacketError:
            stats.ignored += 1
            return None
        if eth.ethertype != ETHERTYPE_IPV4:
            stats.non_ip += 1
            return None
        try:
            packet = IPv4Packet.decode(eth.payload)
        except PacketError:
            stats.ignored += 1
            return None
        whole = self.reassembler.push(packet, timestamp)
        if whole is None:
            stats.fragments_held += 1
            return None
        if whole.protocol != IPPROTO_UDP:
            stats.non_udp += 1
            return None
        try:
            udp = UdpDatagram.decode(whole.payload, whole.src, whole.dst)
        except PacketError:
            stats.ignored += 1
            return None
        common = dict(
            timestamp=timestamp,
            src=Endpoint(whole.src, udp.src_port),
            dst=Endpoint(whole.dst, udp.dst_port),
            src_mac=eth.src,
            dst_mac=eth.dst,
            wire_bytes=len(frame),
        )
        for decoder in self.decoders:
            result = decoder(self.config, udp.payload, common)
            if result is CLAIMED:
                break
            if result is not None:
                if isinstance(result, MalformedFootprint):
                    stats.malformed += 1
                stats.footprints += 1
                return result
        stats.ignored += 1
        return None


def assert_agree(frames: list[tuple[float, bytes]]) -> DistillerStats:
    """Feed ``frames`` to both implementations; they must never differ."""
    fast, slow = Distiller(), SlowDistiller()
    for n, (timestamp, frame) in enumerate(frames):
        got = fast.distill(frame, timestamp)
        want = slow.distill(frame, timestamp)
        assert got == want, (n, frame.hex())
        assert type(got) is type(want)
        assert fast.stats == slow.stats, (n, frame.hex())
        assert fast._reassembler.pending == slow.reassembler.pending
        assert fast._reassembler.expired == slow.reassembler.expired
    return fast.stats


# -- base frames -------------------------------------------------------------


def _udp(payload: bytes, sport: int, dport: int, ident: int = 1) -> bytes:
    return build_udp_frame(MAC1, MAC2, A, B, sport, dport, payload, identification=ident)


def _fragments(frame: bytes, mtu: int = 64) -> list[bytes]:
    eth = EthernetFrame.decode(frame)
    return [
        EthernetFrame(eth.dst, eth.src, ETHERTYPE_IPV4, piece.encode()).encode()
        for piece in fragment(IPv4Packet.decode(eth.payload), mtu)
    ]


_RTP = RtpPacket(0, 7, 1600, 0xCAFE, b"\x55" * 40, marker=True, csrcs=(1, 2)).encode()
# Header with X set, a one-word extension, and four bytes of padding.
_RTP_EXT_PAD = (
    bytes([0xB0, 0x08]) + _RTP[2:12] + b"\xbe\xde\x00\x01" + b"\x00" * 4
    + b"\x55" * 20 + b"\x00\x00\x00\x04"
)  # fmt: skip
_RTCP = SenderReport(0xCAFE, 1 << 40, 1600, 10, 1600).encode() + Bye((0xCAFE,)).encode()

# Each base is a short capture; a mutation hits one of its frames.
BASES: dict[str, list[bytes]] = {
    "sip": [_udp(_SIP, 5060, 5060)],
    "rtp": [_udp(_RTP, 40000, 40002)],
    "rtp-ext-pad": [_udp(_RTP_EXT_PAD, 40000, 40002)],
    "rtcp": [_udp(_RTCP, 40001, 40003)],
    "sip-fragmented": _fragments(_udp(_SIP, 5060, 5060, ident=9)),
    # A whole datagram arrives while another's fragments are pending.
    "rtp-between-fragments": (
        _fragments(_udp(_SIP, 5060, 5060, ident=9))[:2]
        + [_udp(_RTP, 40000, 40002)]
        + _fragments(_udp(_SIP, 5060, 5060, ident=9))[2:]
    ),
}

# Header sites the decode path validates, as (offset in frame, width).
HEADER_SITES = {
    "ethertype": (12, 2),
    "version-ihl": (_ETH, 1),
    "total-length": (_ETH + 2, 2),
    "flags-offset": (_ETH + 6, 2),
    "protocol": (_ETH + 9, 1),
    "ip-checksum": (_ETH + 10, 2),
    "src-ip": (_ETH + 12, 4),
    "udp-ports": (_IP, 4),
    "udp-length": (_IP + 4, 2),
    "udp-checksum": (_IP + 6, 2),
    "payload-head": (_UDP, 2),
}


# -- the properties ----------------------------------------------------------


class TestChecksum:
    @given(data=st.binary(max_size=2048))
    @example(data=b"")
    @example(data=b"\x01")
    @example(data=bytes(64))
    @example(data=b"\xff" * 64)
    @example(data=b"\xff" * 63)
    @example(data=b"\x00\x00\xff\xff")
    @settings(max_examples=300)
    def test_matches_rfc1071_word_sum(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @pytest.mark.parametrize("fill", [b"\x00", b"\xff", b"\xa5\x5a\x01"])
    @pytest.mark.parametrize("size", [65536, 65537, 200_001])
    def test_matches_beyond_64k(self, fill, size):
        data = (fill * size)[:size]
        assert internet_checksum(data) == reference_checksum(data)

    @given(prefix=st.binary(max_size=12), data=st.binary(max_size=128))
    def test_initial_sums_as_leading_words(self, prefix, data):
        """How the UDP pseudo-header goes in without building its bytes."""
        if len(prefix) % 2:
            prefix += b"\x00"
        got = internet_checksum(data, int.from_bytes(prefix, "big"))
        assert got == reference_checksum(prefix + data)

    @given(data=st.binary(min_size=2, max_size=256))
    def test_verify_accepts_exactly_the_embedded_checksum(self, data):
        body = data if len(data) % 2 == 0 else data + b"\x00"
        good = internet_checksum(body).to_bytes(2, "big")
        assert verify_checksum(body + good)
        bad = ((int.from_bytes(good, "big") ^ 0x0100)).to_bytes(2, "big")
        assert not verify_checksum(body + bad)


class TestWireAddresses:
    @given(raw=st.binary(min_size=6, max_size=6))
    def test_mac_from_bytes_is_the_validating_constructor(self, raw):
        mac = MacAddress.from_bytes(raw)
        assert mac == MacAddress(raw.hex(":"))
        assert hash(mac) == hash(MacAddress(raw.hex(":")))
        assert mac.to_bytes() == raw

    @given(raw=st.binary(min_size=4, max_size=4))
    def test_ipv4_from_bytes_is_the_validating_constructor(self, raw):
        addr = IPv4Address.from_bytes(raw)
        assert addr == IPv4Address(int.from_bytes(raw, "big"))
        assert addr == IPv4Address.parse(".".join(str(b) for b in raw))
        assert addr.to_bytes() == raw

    @given(raw=st.binary(max_size=9))
    def test_wrong_length_still_rejected(self, raw):
        for cls, size in ((MacAddress, 6), (IPv4Address, 4)):
            if len(raw) != size:
                with pytest.raises(ValueError):
                    cls.from_bytes(raw)


class TestSipSniff:
    @given(
        payload=st.one_of(
            st.binary(max_size=80),
            st.lists(
                st.sampled_from(
                    [b"INVITE sip:a@b", b" SIP/2.0", b"SIP/2.0 ", b"\r", b"\n", b"\r\n", b"x"]
                ),
                max_size=6,
            ).map(b"".join),
        )
    )
    @settings(max_examples=300)
    def test_matches_split_reference(self, payload):
        assert looks_like_sip(payload) == reference_looks_like_sip(payload)


class TestDistillAgreesWithCodecChain:
    def test_crash_corpus(self):
        stats = assert_agree([(float(n), f) for n, (_, f) in enumerate(CRASH_CORPUS)])
        assert stats.malformed and stats.ignored and stats.non_ip

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_unmutated_bases(self, name):
        stats = assert_agree([(0.5, frame) for frame in BASES[name]])
        assert stats.footprints >= 1 and stats.malformed == 0

    @pytest.mark.parametrize("name", sorted(BASES))
    @pytest.mark.parametrize("site, index", [("ip-checksum", -1), ("udp-checksum", 0)])
    def test_one_bit_checksum_error_is_ignored(self, name, site, index):
        """Both checksums are verified on every frame: a flipped bit in
        the IP header checksum loses that frame, one in the UDP checksum
        (carried by the first fragment) loses the datagram."""
        clean = assert_agree([(0.5, frame) for frame in BASES[name]])
        frames = list(BASES[name])
        offset, _ = HEADER_SITES[site]
        frames[index] = _patch(frames[index], offset, bytes([frames[index][offset] ^ 0x01]))
        stats = assert_agree([(0.5, frame) for frame in frames])
        assert stats.ignored == clean.ignored + 1
        assert stats.footprints == clean.footprints - 1

    @given(
        name=st.sampled_from(sorted(BASES)),
        which=st.integers(min_value=0, max_value=7),
        site=st.sampled_from(sorted(HEADER_SITES)),
        value=st.binary(min_size=4, max_size=4),
    )
    @settings(max_examples=400, deadline=None)
    def test_header_site_mutations(self, name, which, site, value):
        frames = list(BASES[name])
        index = which % len(frames)
        offset, width = HEADER_SITES[site]
        frames[index] = _patch(frames[index], offset, value[:width])
        assert_agree([(0.5 + n, frame) for n, frame in enumerate(frames)])

    @given(
        base=st.sampled_from([_RTP, _RTP_EXT_PAD, _RTCP]),
        b0=st.integers(min_value=0, max_value=255),
        ext_words=st.integers(min_value=0, max_value=0xFFFF),
        pad=st.integers(min_value=0, max_value=255),
        cut=st.integers(min_value=0, max_value=80),
    )
    @example(base=_RTP_EXT_PAD, b0=0xB0, ext_words=1, pad=4, cut=80)
    @example(base=_RTP_EXT_PAD, b0=0xB0, ext_words=1, pad=0, cut=80)
    @example(base=_RTP, b0=0xAF, ext_words=0, pad=200, cut=20)
    @settings(max_examples=400, deadline=None)
    def test_rtp_framing_mutations(self, base, b0, ext_words, pad, cut):
        """CSRC count, extension and padding bits, with valid checksums so
        the frame reaches the RTP decoder."""
        payload = bytearray(base)
        payload[0] = b0
        payload[14:16] = ext_words.to_bytes(2, "big")  # the length, when CC is 0
        payload = payload[: max(cut, 1)]
        payload[-1] = pad
        assert_agree([(0.5, _udp(bytes(payload), 40000, 40002))])

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fragment_order_loss_and_expiry(self, data):
        """Shuffled, duplicated and lost fragments of several datagrams,
        interleaved with whole ones, on a clock that can jump past the
        reassembly timeout."""
        pool: list[bytes] = []
        for ident in range(3):
            pool += _fragments(_udp(_SIP, 5060, 5060, ident=ident))
        pool += [_udp(_RTP, 40000, 40002), _udp(_RTCP, 40001, 40003)]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=24))
        steps = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.01, 1.0, 31.0]),
                min_size=len(picks),
                max_size=len(picks),
            )
        )
        now, frames = 0.0, []
        for pick, step in zip(picks, steps):
            now += step
            frames.append((now, pool[pick]))
        assert_agree(frames)


class TestGeneratedTrace:
    @pytest.fixture(scope="class")
    def head(self) -> list[tuple[float, bytes]]:
        spec = Path(__file__).resolve().parents[2] / "workloads" / "ci.workload"
        trace = generate_workload(load_scenario(str(spec)), seed=3).trace
        return [(r.timestamp, r.frame) for r in trace.records[:2000]]

    def test_first_2k_frames_of_the_mixed_workload(self, head):
        stats = assert_agree(head)
        assert stats.footprints == len(head)

    def test_same_frames_refragmented_out_of_order(self, head):
        rng = Random(3)
        frames: list[tuple[float, bytes]] = []
        for timestamp, frame in head:
            pieces = _fragments(frame, mtu=128)
            if rng.random() < 0.5:
                rng.shuffle(pieces)
            frames += [(timestamp, piece) for piece in pieces]
        stats = assert_agree(frames)
        assert stats.fragments_held > 0
        assert stats.footprints == len(head)
