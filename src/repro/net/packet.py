"""Byte-accurate Ethernet II, IPv4 and UDP codecs.

The Distiller consumes real wire bytes, so the simulator produces real
wire bytes: 14-byte Ethernet headers, 20-byte IPv4 headers with correct
checksums and fragmentation fields, and 8-byte UDP headers with the
pseudo-header checksum.  Parsing raises :class:`PacketError` on malformed
input — the IDS treats undecodable packets as an event in itself.

Header validation lives in :func:`parse_ipv4_header` and
:func:`parse_udp`, which read a header at an offset of a larger buffer
and return plain fields.  The ``decode`` classmethods wrap them into
value objects; the Distiller, which keeps none of those objects, calls
them on the captured frame directly — one set of checks either way.

Encoding mirrors that: :func:`ipv4_header` and :func:`udp_header` are
the one packer of each header — its field values, its checksum (through
``internet_checksum(..., initial=)``, so no header is packed twice) and
its size check.  :meth:`IPv4Packet.encode`, :meth:`UdpDatagram.encode`
and :func:`build_udp_frame` all serialise what they return;
:func:`build_udp_frame` packs the whole 42-byte Ethernet/IPv4/UDP header
with one ``struct`` and builds no value object.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.net.addr import IPv4Address, MacAddress
from repro.net.checksum import internet_checksum

ETHERTYPE_IPV4 = 0x0800
IPPROTO_UDP = 17
IPPROTO_ICMP = 1
IP_FRAGMENT_MASK = 0x3FFF  # MF flag + 13-bit offset of the flags/offset word

_ETH_FIELDS = "6s6sH"
_IPV4_FIELDS = "BBHHHBBH4s4s"
_UDP_FIELDS = "HHHH"
_ETH_HEADER = struct.Struct("!" + _ETH_FIELDS)
_IPV4_HEADER = struct.Struct("!" + _IPV4_FIELDS)
_UDP_HEADER = struct.Struct("!" + _UDP_FIELDS)
# Ethernet + IPv4 (no options) + UDP: the 42 bytes before a UDP payload.
_UDP_FRAME_HEADER = struct.Struct("!" + _ETH_FIELDS + _IPV4_FIELDS + _UDP_FIELDS)


class PacketError(ValueError):
    """Raised when bytes cannot be decoded as the expected protocol."""


def parse_ipv4_header(
    raw: bytes, offset: int = 0, verify: bool = True
) -> tuple[int, int, int, int, int, int, int, bytes, bytes]:
    """Validate the IPv4 header at ``raw[offset:]`` and return its fields.

    Checks version, IHL, total length against the bytes available and
    (unless ``verify`` is off) the header checksum.  Returns ``(ihl,
    total_length, tos, identification, flags_frag, ttl, protocol, src,
    dst)``: ``ihl`` in bytes, ``flags_frag`` the raw flags/offset word,
    addresses as 4 wire bytes.  The payload is
    ``raw[offset + ihl : offset + total_length]``.
    """
    available = len(raw) - offset
    if available < 20:
        raise PacketError(f"packet too short for IPv4: {available} bytes")
    (
        ver_ihl,
        tos,
        total_length,
        identification,
        flags_frag,
        ttl,
        protocol,
        _checksum,
        src,
        dst,
    ) = _IPV4_HEADER.unpack_from(raw, offset)
    if ver_ihl >> 4 != 4:
        raise PacketError(f"not IPv4: version={ver_ihl >> 4}")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or available < ihl:
        raise PacketError(f"bad IPv4 header length: {ihl}")
    if total_length < ihl or total_length > available:
        raise PacketError(
            f"bad IPv4 total length: {total_length} (frame payload {available})"
        )
    if verify and internet_checksum(raw[offset : offset + ihl]) != 0:
        raise PacketError("IPv4 header checksum mismatch")
    return ihl, total_length, tos, identification, flags_frag, ttl, protocol, src, dst


def _udp_checksum(src_ip: IPv4Address, dst_ip: IPv4Address, segment: bytes) -> int:
    """Checksum of a UDP segment under its IPv4 pseudo-header (RFC 768)."""
    return internet_checksum(
        segment, src_ip.packed + dst_ip.packed + IPPROTO_UDP + len(segment)
    )


def ipv4_header(
    src: IPv4Address,
    dst: IPv4Address,
    protocol: int,
    payload_length: int,
    identification: int = 0,
    ttl: int = 64,
    flags_frag: int = 0,
    tos: int = 0,
) -> tuple[int, int, int, int, int, int, int, int, bytes, bytes]:
    """The ten field values of a 20-byte IPv4 header, checksum included.

    ``flags_frag`` is the raw flags/offset word.  The checksum is summed
    from the field values (their 16-bit words, as
    :func:`internet_checksum` reads an ``initial`` partial sum), so the
    header is packed once, with the checksum in place.  Raises
    :class:`PacketError` when the packet would exceed 65,535 bytes.
    """
    total_length = 20 + payload_length
    if total_length > 0xFFFF:
        raise PacketError(f"IPv4 packet too large: {total_length} bytes")
    src_packed, dst_packed = src.packed, dst.packed
    checksum = internet_checksum(
        b"",
        0x4500  # version 4, IHL 5
        + tos
        + total_length
        + identification
        + flags_frag
        + (ttl << 8)
        + protocol
        + src_packed
        + dst_packed,
    )
    return (
        0x45,
        tos,
        total_length,
        identification,
        flags_frag,
        ttl,
        protocol,
        checksum,
        src_packed.to_bytes(4, "big"),
        dst_packed.to_bytes(4, "big"),
    )


def udp_header(
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> tuple[int, int, int, int]:
    """The four field values of the UDP header carrying ``payload``.

    The checksum covers the IPv4 pseudo-header, the header's own words
    and the payload, summed by one :func:`internet_checksum` call over
    the payload bytes.  A computed zero is sent as 0xFFFF (RFC 768: zero
    means "no checksum").  Raises :class:`PacketError` when the datagram
    would exceed 65,535 bytes.
    """
    length = 8 + len(payload)
    if length > 0xFFFF:
        raise PacketError(f"UDP datagram too large: {length} bytes")
    checksum = internet_checksum(
        payload,
        src_ip.packed + dst_ip.packed + IPPROTO_UDP + length  # pseudo-header
        + src_port + dst_port + length,  # header, checksum field zero
    )
    return src_port, dst_port, length, checksum or 0xFFFF


def parse_udp(
    raw: bytes,
    offset: int,
    end: int,
    src_ip: IPv4Address | None = None,
    dst_ip: IPv4Address | None = None,
    verify: bool = True,
) -> tuple[int, int, int, bytes]:
    """Validate the UDP datagram in ``raw[offset:end]``.

    Checks the length field against the bytes available and, when both
    addresses are given and the sender computed one, the pseudo-header
    checksum.  Returns ``(src_port, dst_port, checksum, payload)``.
    """
    available = end - offset
    if available < 8:
        raise PacketError(f"datagram too short for UDP: {available} bytes")
    src_port, dst_port, length, checksum = _UDP_HEADER.unpack_from(raw, offset)
    if length < 8 or length > available:
        raise PacketError(f"bad UDP length: {length} (buffer {available})")
    segment = raw[offset : offset + length]
    if verify and checksum != 0 and src_ip is not None and dst_ip is not None:
        if _udp_checksum(src_ip, dst_ip, segment) not in (0, 0xFFFF):
            raise PacketError("UDP checksum mismatch")
    return src_port, dst_port, checksum, segment[8:]


@dataclass(frozen=True, slots=True)
class EthernetFrame:
    """An Ethernet II frame."""

    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: bytes

    def encode(self) -> bytes:
        return _ETH_HEADER.pack(self.dst.to_bytes(), self.src.to_bytes(), self.ethertype) + self.payload

    @classmethod
    def decode(cls, raw: bytes) -> "EthernetFrame":
        if len(raw) < _ETH_HEADER.size:
            raise PacketError(f"frame too short for Ethernet: {len(raw)} bytes")
        dst, src, ethertype = _ETH_HEADER.unpack_from(raw)
        return cls(
            dst=MacAddress.from_bytes(dst),
            src=MacAddress.from_bytes(src),
            ethertype=ethertype,
            payload=raw[_ETH_HEADER.size :],
        )


@dataclass(frozen=True, slots=True)
class IPv4Packet:
    """An IPv4 packet (no options support — header is always 20 bytes)."""

    src: IPv4Address
    dst: IPv4Address
    protocol: int
    payload: bytes
    identification: int = 0
    ttl: int = 64
    flags_df: bool = False
    flags_mf: bool = False
    fragment_offset: int = 0  # in 8-byte units
    tos: int = 0

    def encode(self) -> bytes:
        flags_frag = (int(self.flags_df) << 14) | (int(self.flags_mf) << 13) | self.fragment_offset
        header = ipv4_header(
            self.src,
            self.dst,
            self.protocol,
            len(self.payload),
            self.identification,
            self.ttl,
            flags_frag,
            self.tos,
        )
        return _IPV4_HEADER.pack(*header) + self.payload

    @classmethod
    def decode(cls, raw: bytes, verify: bool = True) -> "IPv4Packet":
        header = parse_ipv4_header(raw, 0, verify)
        return cls.from_header(header, raw[header[0] : header[1]])

    @classmethod
    def from_header(cls, header: tuple, payload: bytes) -> "IPv4Packet":
        """The packet for a :func:`parse_ipv4_header` result and its payload."""
        _ihl, _total_length, tos, identification, flags_frag, ttl, protocol, src, dst = header
        return cls(
            src=IPv4Address.from_bytes(src),
            dst=IPv4Address.from_bytes(dst),
            protocol=protocol,
            payload=payload,
            identification=identification,
            ttl=ttl,
            flags_df=bool(flags_frag & 0x4000),
            flags_mf=bool(flags_frag & 0x2000),
            fragment_offset=flags_frag & 0x1FFF,
            tos=tos,
        )

    @property
    def is_fragment(self) -> bool:
        return self.flags_mf or self.fragment_offset > 0


@dataclass(frozen=True, slots=True)
class UdpDatagram:
    """A UDP datagram.  Checksums use the IPv4 pseudo-header."""

    src_port: int
    dst_port: int
    payload: bytes
    checksum: int = field(default=0)

    def encode(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bytes:
        header = udp_header(src_ip, dst_ip, self.src_port, self.dst_port, self.payload)
        return _UDP_HEADER.pack(*header) + self.payload

    @classmethod
    def decode(
        cls,
        raw: bytes,
        src_ip: IPv4Address | None = None,
        dst_ip: IPv4Address | None = None,
        verify: bool = True,
    ) -> "UdpDatagram":
        src_port, dst_port, checksum, payload = parse_udp(
            raw, 0, len(raw), src_ip, dst_ip, verify
        )
        return cls(src_port=src_port, dst_port=dst_port, payload=payload, checksum=checksum)


def build_udp_frame(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
    identification: int = 0,
    ttl: int = 64,
) -> bytes:
    """Wrap an application payload into Ethernet/IPv4/UDP bytes.

    The same bytes as encoding a :class:`UdpDatagram` inside an
    :class:`IPv4Packet` inside an :class:`EthernetFrame`, with the same
    size checks, but the 42 header bytes are packed at once.
    """
    udp = udp_header(src_ip, dst_ip, src_port, dst_port, payload)
    ip = ipv4_header(src_ip, dst_ip, IPPROTO_UDP, udp[2], identification, ttl)
    return (
        _UDP_FRAME_HEADER.pack(
            dst_mac.to_bytes(), src_mac.to_bytes(), ETHERTYPE_IPV4, *ip, *udp
        )
        + payload
    )
