"""The Distiller: raw frames → Footprints (paper §3.1, Figure 2).

"Incoming network flows first pass through the Distiller, which
translates packets into protocol dependent information units called
Footprints.  The Distiller is responsible for doing IP fragmentation,
reassembly, decoding protocols, and finally generating the corresponding
Footprints."

Classification is a chain of per-protocol *decoders* — plain functions
``(distiller, payload, common) -> footprint | None | CLAIMED`` that a
:class:`~repro.core.protocols.ProtocolModule` contributes.  Chain order
matters: SIP is text with a recognisable start line; RTCP must be
sniffed before RTP (both carry version 2 in the top bits, RTCP is
distinguished by its payload-type range); the accounting line protocol
rides a dedicated port.  Anything on a VoIP-relevant port that fails to
decode becomes a :class:`MalformedFootprint` tagged with the protocol
it pretended to be.  A decoder returns :data:`CLAIMED` to consume a
datagram without producing a footprint (H.225 RAS replies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.fastpath import FLOW_KEY_END, FLOW_KEY_OFFSET
from repro.core.footprint import (
    AccountingFootprint,
    AnyFootprint,
    H225Footprint,
    MalformedFootprint,
    Protocol,
    RtcpFootprint,
    RtpFootprint,
    SipFootprint,
)
from repro.h323.h225 import H225_PORT, H225Error, H225Message, looks_like_h225
from repro.h323.ras import RAS_PORT
from repro.net.addr import Endpoint, IPv4Address, MacAddress, ValueTable
from repro.net.fragmentation import Reassembler
from repro.net.packet import (
    ETHERTYPE_IPV4,
    IP_FRAGMENT_MASK,
    IPPROTO_UDP,
    PacketError,
    IPv4Packet,
    parse_ipv4_header,
    parse_udp,
)
from repro.rtp.packet import RtpError, decode_header, looks_like_rtp
from repro.rtp.rtcp import RtcpError, decode_compound, looks_like_rtcp
from repro.sip.message import SipParseError, looks_like_sip, parse_message
from repro.sip.uri import URI_TABLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fastpath import MediaFastPath, MediaProfile

ACCOUNTING_PORT = 9090

_ETH_HEADER_LEN = 14  # dst MAC, src MAC, ethertype
_IPV4_MIN_HEADER_LEN = 20
# Where an option-less IPv4/UDP frame's payload starts: the first byte
# of an RTP header, whose top two bits are the version.
MEDIA_PAYLOAD_OFFSET = _ETH_HEADER_LEN + _IPV4_MIN_HEADER_LEN + 8

# Returned by a decoder that consumed the datagram without producing a
# footprint: the chain stops, the frame counts as ignored.
CLAIMED = object()

# A decoder inspects one UDP payload.  ``common`` carries the Footprint
# constructor keywords (timestamp, src, dst, macs, wire_bytes); decoders
# read ``common["src"]`` / ``common["dst"]`` for port steering.
Decoder = Callable[["Distiller", bytes, dict[str, Any]], object]


def decode_sip(distiller: "Distiller", payload: bytes, common: dict[str, Any]):
    """SIP: content sniff wins, the configured ports force a decode."""
    sip_ports = distiller.sip_ports
    if not (
        common["dst"].port in sip_ports
        or common["src"].port in sip_ports
        or looks_like_sip(payload)
    ):
        return None
    try:
        return SipFootprint(message=parse_message(payload), **common)
    except SipParseError as exc:
        return MalformedFootprint(claimed_protocol=Protocol.SIP, reason=str(exc), **common)


def decode_h323(distiller: "Distiller", payload: bytes, common: dict[str, Any]):
    """H.225 call signalling, plus RAS consumed without a footprint."""
    src_port, dst_port = common["src"].port, common["dst"].port
    if src_port == H225_PORT or dst_port == H225_PORT or looks_like_h225(payload):
        try:
            return H225Footprint(message=H225Message.decode(payload), **common)
        except H225Error as exc:
            return MalformedFootprint(
                claimed_protocol=Protocol.H225, reason=str(exc), **common
            )
    if src_port == RAS_PORT or dst_port == RAS_PORT:
        # H.225 RAS (gatekeeper registration/admission).  Not used by
        # any rule; claimed here so its ephemeral-port replies are not
        # mistaken for garbage on a media port.
        return CLAIMED
    return None


def decode_accounting(distiller: "Distiller", payload: bytes, common: dict[str, Any]):
    """The billing line protocol on its dedicated port."""
    port = distiller.accounting_port
    if common["src"].port != port and common["dst"].port != port:
        return None
    parsed = _parse_accounting(payload)
    if parsed is None:
        return MalformedFootprint(
            claimed_protocol=Protocol.ACCOUNTING, reason="bad TXN line", **common
        )
    call_id, from_aor, to_aor, action = parsed
    return AccountingFootprint(
        call_id=call_id, from_aor=from_aor, to_aor=to_aor, action=action, **common
    )


def decode_rtcp(distiller: "Distiller", payload: bytes, common: dict[str, Any]):
    """RTCP — must run before the RTP decoder (shared version bits)."""
    if not looks_like_rtcp(payload):
        return None
    try:
        return RtcpFootprint(packets=tuple(decode_compound(payload)), **common)
    except RtcpError as exc:
        return MalformedFootprint(claimed_protocol=Protocol.RTCP, reason=str(exc), **common)


def decode_rtp(distiller: "Distiller", payload: bytes, common: dict[str, Any]):
    """RTP, with the media-port garbage fallback — runs last."""
    src, dst = common["src"], common["dst"]
    if looks_like_rtp(payload):
        # Header fields only: the footprint is filled from the validated
        # header, no RtpPacket (or copy of the media payload) in between.
        try:
            _b0, b1, sequence, rtp_timestamp, ssrc, start, end = decode_header(payload)
        except RtpError as exc:
            return MalformedFootprint(
                claimed_protocol=Protocol.RTP, reason=str(exc), **common
            )
        return RtpFootprint(
            common["timestamp"],
            src,
            dst,
            common["src_mac"],
            common["dst_mac"],
            common["wire_bytes"],
            ssrc,
            sequence,
            rtp_timestamp,
            b1 & 0x7F,
            end - start,
            bool(b1 & 0x80),
        )
    if (
        distiller.rtp_port_min <= dst.port <= distiller.rtp_port_max
        or distiller.rtp_port_min <= src.port <= distiller.rtp_port_max
    ):
        # On a media port but not valid RTP/RTCP: the garbage packets
        # of the RTP attack land here.
        return MalformedFootprint(
            claimed_protocol=Protocol.RTP, reason="not RTP/RTCP on media port", **common
        )
    return None


# The stock chain, in sniffing-priority order (see module docstring).
DEFAULT_DECODERS: tuple[Decoder, ...] = (
    decode_sip,
    decode_h323,
    decode_accounting,
    decode_rtcp,
    decode_rtp,
)


@dataclass(slots=True)
class DistillerStats:
    frames: int = 0
    footprints: int = 0
    non_ip: int = 0
    non_udp: int = 0
    fragments_held: int = 0
    malformed: int = 0
    ignored: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counter snapshot for gauge export (repro.obs)."""
        return {
            "frames": self.frames,
            "footprints": self.footprints,
            "non_ip": self.non_ip,
            "non_udp": self.non_udp,
            "fragments_held": self.fragments_held,
            "malformed": self.malformed,
            "ignored": self.ignored,
        }


@dataclass(slots=True)
class Distiller:
    """Stateful frame decoder.

    ``sip_ports`` / ``rtp_port_range`` steer classification for payloads
    whose content sniffing is ambiguous; content checks still win.
    """

    sip_ports: frozenset[int] = frozenset({5060})
    rtp_port_min: int = 10000
    rtp_port_max: int = 65534
    accounting_port: int = ACCOUNTING_PORT
    # The decoder chain, tried in order until one claims the payload.
    # ProtocolModule registration replaces this with the decoders of the
    # registered modules (see repro.core.protocols.distiller_from).
    decoders: tuple[Decoder, ...] = DEFAULT_DECODERS
    stats: DistillerStats = field(default_factory=DistillerStats)
    _reassembler: Reassembler = field(default_factory=Reassembler)
    # Exception firewall (repro.resilience.firewall), wired by the
    # engine.  With or without one, a throwing decoder never escapes
    # _classify — the frame degrades to a MalformedFootprint; the
    # firewall adds error accounting and circuit-breaks a decoder that
    # keeps throwing (it leaves the chain).
    firewall: object | None = None
    # Address objects by wire value: ``raw4`` → IPv4Address, ``(raw4,
    # port)`` → Endpoint, ``raw6`` → MacAddress.  Derived state, bounded,
    # never checkpointed.
    _ips: ValueTable = field(init=False, repr=False, compare=False)
    _endpoints: ValueTable = field(init=False, repr=False, compare=False)
    _macs: ValueTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ips = self._ips = ValueTable(IPv4Address.from_bytes)
        self._endpoints = ValueTable(lambda key: Endpoint(ips[key[0]], key[1]))
        self._macs = ValueTable(MacAddress.from_bytes)

    def table_stats(self) -> dict[str, int]:
        """Value-table sizes and full-table drops, plus oversize
        fragments refused, for gauge export (repro.obs) — kept out of the
        checkpointed ``DistillerStats``.

        ``uri_table`` / ``uri_table_drops`` are not this engine's: they
        read the SIP parser's one table per process
        (repro.sip.uri.URI_TABLE), so engines sharing a process (the
        ``serial`` cluster backend, tests) all report the same values and
        summing them over engines counts the table more than once.  The
        other entries are per engine."""
        return {
            "ip_table": len(self._ips),
            "endpoint_table": len(self._endpoints),
            "mac_table": len(self._macs),
            "address_table_drops": (
                self._ips.drops + self._endpoints.drops + self._macs.drops
            ),
            "uri_table": len(URI_TABLE),
            "uri_table_drops": URI_TABLE.drops,
            "reassembly_oversize": self._reassembler.oversize,
        }

    def distill(self, frame: bytes, timestamp: float) -> AnyFootprint | None:
        """Decode one captured frame into a Footprint (or None for non-VoIP).

        The headers are read in place — the ethertype at its offset,
        IPv4 and UDP through the validating parsers the public codecs are
        built on — and the footprint's addresses come from the address
        tables, so a frame of a known flow makes no object but the
        footprint itself.  A fragment (or any datagram while partials are
        pending, so their expiry clock runs) detours through an
        ``IPv4Packet`` and the ``Reassembler`` and rejoins the same code
        below.
        """
        stats = self.stats
        stats.frames += 1
        if len(frame) < _ETH_HEADER_LEN:
            stats.ignored += 1
            return None
        if frame[12] << 8 | frame[13] != ETHERTYPE_IPV4:
            stats.non_ip += 1
            return None
        try:
            header = parse_ipv4_header(frame, _ETH_HEADER_LEN)
        except PacketError:
            stats.ignored += 1
            return None
        ihl, total_length, _tos, _ident, flags_frag, _ttl, protocol, src_raw, dst_raw = header
        datagram = frame
        start = _ETH_HEADER_LEN + ihl
        end = _ETH_HEADER_LEN + total_length
        if flags_frag & IP_FRAGMENT_MASK or self._reassembler.pending:
            whole = self._reassembler.push(
                IPv4Packet.from_header(header, frame[start:end]), timestamp
            )
            if whole is None:
                stats.fragments_held += 1
                return None
            datagram, start, end = whole.payload, 0, len(whole.payload)
            protocol = whole.protocol
            src_raw, dst_raw = whole.src.to_bytes(), whole.dst.to_bytes()
        if protocol != IPPROTO_UDP:
            stats.non_udp += 1
            return None
        ips = self._ips
        try:
            src_port, dst_port, _checksum, payload = parse_udp(
                datagram, start, end, ips[src_raw], ips[dst_raw]
            )
        except PacketError:
            stats.ignored += 1
            return None
        endpoints, macs = self._endpoints, self._macs
        footprint = self._classify(
            payload,
            timestamp,
            endpoints[src_raw, src_port],
            endpoints[dst_raw, dst_port],
            macs[frame[6:12]],
            macs[frame[0:6]],
            len(frame),
        )
        if footprint is None:
            stats.ignored += 1
            return None
        if isinstance(footprint, MalformedFootprint):
            stats.malformed += 1
        stats.footprints += 1
        return footprint

    def media_profile(
        self, frame: bytes, profiles: "MediaFastPath"
    ) -> "tuple[MediaProfile, int] | None":
        """The profile of the flow ``frame`` is an in-profile RTP frame
        of, with the frame's RTP sequence number — or None when the frame
        is not provably one, and then :meth:`distill` decodes it.
        Writes nothing (the media fast path, :mod:`repro.core.fastpath`).

        The frame must decode as :meth:`distill` would decode it into an
        ``RtpFootprint`` of that flow: an unfragmented option-less
        IPv4/UDP datagram with no partials pending, both checksums
        verified, an RTP header ``decode_header`` accepts carrying the
        profile's SSRC, and classified by the same chain.  The profile
        was learned under this very chain from a footprint of the flow,
        so the port-steered decoders passed its ports over; of the
        payload sniffs, SIP and RTCP run before RTP, and H.225's cannot
        match a first byte with RTP's version bits.
        """
        if self.decoders is not profiles.decoders or self._reassembler.pending:
            return None
        # Version 4 with a 20-byte header puts the flow key at its offset;
        # a frame of no learned flow leaves before any checksum is summed.
        if frame[_ETH_HEADER_LEN] != 0x45:
            return None
        profile = profiles.get(frame[FLOW_KEY_OFFSET:FLOW_KEY_END])
        if profile is None or frame[12] << 8 | frame[13] != ETHERTYPE_IPV4:
            return None
        try:
            _ihl, total_length, _tos, _ident, flags_frag, _ttl, protocol, _src, _dst = (
                parse_ipv4_header(frame, _ETH_HEADER_LEN)
            )
        except PacketError:
            return None
        if protocol != IPPROTO_UDP or flags_frag & IP_FRAGMENT_MASK:
            return None
        learned = profile.footprint
        try:
            _sport, _dport, _checksum, payload = parse_udp(
                frame,
                _ETH_HEADER_LEN + _IPV4_MIN_HEADER_LEN,
                _ETH_HEADER_LEN + total_length,
                learned.src.ip,
                learned.dst.ip,
            )
        except PacketError:
            return None
        if looks_like_sip(payload) or looks_like_rtcp(payload):
            return None
        try:
            _b0, _b1, sequence, _rtp_timestamp, ssrc, _start, _end = decode_header(payload)
        except RtpError:
            return None
        if ssrc != learned.ssrc:
            return None
        return profile, sequence

    # -- classification -----------------------------------------------------

    def _classify(
        self,
        payload: bytes,
        timestamp: float,
        src: Endpoint,
        dst: Endpoint,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        wire_bytes: int,
    ) -> AnyFootprint | None:
        common = {
            "timestamp": timestamp,
            "src": src,
            "dst": dst,
            "src_mac": src_mac,
            "dst_mac": dst_mac,
            "wire_bytes": wire_bytes,
        }
        for decoder in self.decoders:
            try:
                result = decoder(self, payload, common)
            except Exception as exc:
                # A decoder crash is the classic IDS evasion vector: one
                # poisoned frame must not abort the path (or let the
                # frame through unclassified).  Quarantine it as
                # malformed evidence instead.
                name = getattr(decoder, "__name__", repr(decoder))
                firewall = self.firewall
                if firewall is not None and firewall.record_error(
                    "decoder", name, exc, timestamp
                ):
                    self.decoders = tuple(
                        d for d in self.decoders if d is not decoder
                    )
                return MalformedFootprint(
                    claimed_protocol=Protocol.OTHER,
                    reason=f"decoder {name} crashed: {type(exc).__name__}: {exc}",
                    **common,
                )
            if result is CLAIMED:
                return None
            if result is not None:
                return result
        return None


def _parse_accounting(payload: bytes) -> tuple[str, str, str, str] | None:
    """Parse the billing line protocol: ``TXN action=.. call_id=.. from=.. to=..``."""
    try:
        text = payload.decode("utf-8").strip()
    except UnicodeDecodeError:
        return None
    if not text.startswith("TXN "):
        return None
    fields: dict[str, str] = {}
    for chunk in text[4:].split():
        key, eq, value = chunk.partition("=")
        if not eq:
            return None
        fields[key] = value
    if not {"action", "call_id", "from", "to"} <= fields.keys():
        return None
    return fields["call_id"], fields["from"], fields["to"], fields["action"]
