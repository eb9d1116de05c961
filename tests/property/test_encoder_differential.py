"""Differential tests for the wire encoders against reference encodings.

``build_udp_frame`` packs the 42 Ethernet/IPv4/UDP header bytes at once
from the two header packers (``ipv4_header``, ``udp_header``), whose
checksums are summed from field values.  The reference here is the
straightforward composition: encode the UDP datagram with a zero
checksum, checksum those bytes under the pseudo-header and splice the
result in; wrap it the same way in an IPv4 header; prepend the Ethernet
header.  Both must give the same bytes and refuse the same sizes with
the same message.

``encode_header`` (the RTP header packer) must round-trip through
``RtpPacket.decode`` and refuse out-of-range fields with ``RtpError``;
``MacAddress.to_bytes`` must agree with ``from_bytes``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import IPv4Address, MacAddress
from repro.net.checksum import internet_checksum
from repro.net.packet import (
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    EthernetFrame,
    IPv4Packet,
    PacketError,
    UdpDatagram,
    build_udp_frame,
)
from repro.rtp.packet import RtpError, RtpPacket, encode_header

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
macs = st.binary(min_size=6, max_size=6).map(MacAddress.from_bytes)
ports = st.integers(min_value=0, max_value=0xFFFF)
u16 = st.integers(min_value=0, max_value=0xFFFF)


def reference_udp_frame(
    src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload, identification, ttl
) -> bytes:
    """Ethernet(IPv4(UDP(payload))), each header packed, checksummed over
    its own bytes and spliced."""
    length = 8 + len(payload)
    if length > 0xFFFF:
        raise PacketError(f"UDP datagram too large: {length} bytes")
    header = struct.pack("!HHHH", src_port, dst_port, length, 0)
    pseudo = src_ip.packed + dst_ip.packed + IPPROTO_UDP + length
    checksum = internet_checksum(header + payload, pseudo) or 0xFFFF
    udp = header[:6] + checksum.to_bytes(2, "big") + payload

    total_length = 20 + len(udp)
    if total_length > 0xFFFF:
        raise PacketError(f"IPv4 packet too large: {total_length} bytes")
    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        0,
        total_length,
        identification,
        0,
        ttl,
        IPPROTO_UDP,
        0,
        src_ip.packed.to_bytes(4, "big"),
        dst_ip.packed.to_bytes(4, "big"),
    )
    checksum = internet_checksum(header)
    ip = header[:10] + checksum.to_bytes(2, "big") + header[12:] + udp

    dst, src = (
        bytes(int(part, 16) for part in mac.value.split(":")) for mac in (dst_mac, src_mac)
    )
    return struct.pack("!6s6sH", dst, src, ETHERTYPE_IPV4) + ip


def composed_udp_frame(
    src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload, identification, ttl
) -> bytes:
    """The same frame through the value objects' own encoders."""
    udp = UdpDatagram(src_port, dst_port, payload).encode(src_ip, dst_ip)
    ip = IPv4Packet(
        src_ip, dst_ip, IPPROTO_UDP, udp, identification=identification, ttl=ttl
    ).encode()
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip).encode()


def _outcome(encode, *args):
    try:
        return encode(*args)
    except PacketError as exc:
        return ("PacketError", str(exc))


class TestUdpFrame:
    @given(
        src_mac=macs,
        dst_mac=macs,
        src_ip=ips,
        dst_ip=ips,
        src_port=ports,
        dst_port=ports,
        payload=st.binary(max_size=600),
        identification=u16,
        ttl=st.integers(min_value=0, max_value=255),
    )
    def test_equals_the_reference_composition(
        self, src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload, identification, ttl
    ):
        args = (src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload, identification, ttl)
        frame = build_udp_frame(*args)
        assert frame == reference_udp_frame(*args)
        assert frame == composed_udp_frame(*args)
        assert len(frame) == 42 + len(payload)

    @pytest.mark.parametrize("length", [0, 1, 37, 65_507, 65_508, 65_528])
    def test_sizes_at_the_edges(self, length):
        args = (
            MacAddress("02:00:0A:64:00:01"),
            MacAddress("ff:ff:ff:ff:ff:ff"),
            IPv4Address.parse("10.100.0.1"),
            IPv4Address.parse("10.0.0.10"),
            5060,
            5060,
            bytes(range(256)) * (length // 256) + bytes(length % 256),
            0xFFFF,
            64,
        )
        built = _outcome(build_udp_frame, *args)
        assert built == _outcome(reference_udp_frame, *args)
        assert built == _outcome(composed_udp_frame, *args)
        if length <= 65_507:
            assert isinstance(built, bytes)
        else:
            assert built[0] == "PacketError"

    def test_the_oversize_messages(self):
        mac, ip = MacAddress("02:00:00:00:00:01"), IPv4Address(1)
        with pytest.raises(PacketError, match=r"^IPv4 packet too large: 65536 bytes$"):
            build_udp_frame(mac, mac, ip, ip, 1, 2, bytes(65_508))
        with pytest.raises(PacketError, match=r"^UDP datagram too large: 65536 bytes$"):
            build_udp_frame(mac, mac, ip, ip, 1, 2, bytes(65_528))


class TestRtpHeader:
    @given(
        payload_type=st.integers(min_value=0, max_value=0x7F),
        sequence=u16,
        timestamp=st.integers(min_value=0, max_value=0xFFFFFFFF),
        ssrc=st.integers(min_value=0, max_value=0xFFFFFFFF),
        marker=st.booleans(),
        csrcs=st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=15
        ).map(tuple),
        payload=st.binary(max_size=200),
    )
    def test_decode_round_trips(
        self, payload_type, sequence, timestamp, ssrc, marker, csrcs, payload
    ):
        raw = encode_header(payload_type, sequence, timestamp, ssrc, marker, csrcs) + payload
        packet = RtpPacket.decode(raw)
        assert packet == RtpPacket(
            payload_type=payload_type,
            sequence=sequence,
            timestamp=timestamp,
            ssrc=ssrc,
            payload=payload,
            marker=marker,
            csrcs=csrcs,
        )
        assert packet.encode() == raw

    @pytest.mark.parametrize(
        "fields",
        [
            {"payload_type": 0x80},
            {"payload_type": -1},
            {"sequence": 0x10000},
            {"sequence": -1},
            {"timestamp": 1 << 32},
            {"ssrc": 1 << 32},
            {"ssrc": -1},
            {"csrcs": tuple(range(16))},
        ],
    )
    def test_out_of_range_fields_raise_rtp_error(self, fields):
        values = {"payload_type": 0, "sequence": 1, "timestamp": 2, "ssrc": 3, **fields}
        with pytest.raises(RtpError):
            encode_header(**values)


class TestMacBytes:
    @given(st.binary(min_size=6, max_size=6))
    def test_to_bytes_inverts_from_bytes(self, raw):
        assert MacAddress.from_bytes(raw).to_bytes() == raw

    @given(st.binary(min_size=6, max_size=6), st.lists(st.booleans(), min_size=17, max_size=17))
    def test_mixed_case_text_gives_the_same_bytes(self, raw, upper):
        text = "".join(
            ch.upper() if up else ch for ch, up in zip(raw.hex(":"), upper)
        )
        mac = MacAddress(text)
        assert mac.to_bytes() == raw
        assert mac == MacAddress.from_bytes(raw)
