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

_ETH_HEADER = struct.Struct("!6s6sH")
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")
_UDP_HEADER = struct.Struct("!HHHH")


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
        total_length = 20 + len(self.payload)
        if total_length > 0xFFFF:
            raise PacketError(f"IPv4 packet too large: {total_length} bytes")
        flags_frag = (int(self.flags_df) << 14) | (int(self.flags_mf) << 13) | self.fragment_offset
        header = _IPV4_HEADER.pack(
            0x45,  # version 4, IHL 5
            self.tos,
            total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        checksum = internet_checksum(header)
        header = header[:10] + checksum.to_bytes(2, "big") + header[12:]
        return header + self.payload

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
        length = 8 + len(self.payload)
        if length > 0xFFFF:
            raise PacketError(f"UDP datagram too large: {length} bytes")
        header = _UDP_HEADER.pack(self.src_port, self.dst_port, length, 0)
        checksum = _udp_checksum(src_ip, dst_ip, header + self.payload)
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
        header = header[:6] + checksum.to_bytes(2, "big")
        return header + self.payload

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
    """Convenience: wrap an application payload into Ethernet/IPv4/UDP bytes."""
    udp = UdpDatagram(src_port, dst_port, payload).encode(src_ip, dst_ip)
    ip = IPv4Packet(
        src=src_ip,
        dst=dst_ip,
        protocol=IPPROTO_UDP,
        payload=udp,
        identification=identification,
        ttl=ttl,
    ).encode()
    return EthernetFrame(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4, payload=ip).encode()
