"""IPv4 fragmentation and reassembly.

The paper's Distiller "is responsible for doing IP fragmentation,
reassembly, decoding protocols, and finally generating the corresponding
Footprints".  This module supplies both halves: :func:`fragment` splits an
oversized IPv4 packet along an MTU, and :class:`Reassembler` rebuilds
original packets from fragments arriving in any order, with a timeout so
half-delivered packets do not leak memory (and so fragment-starvation
attacks surface as an explicit expiry count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.net.addr import IPv4Address
from repro.net.packet import IPv4Packet, PacketError

DEFAULT_REASSEMBLY_TIMEOUT = 30.0  # seconds, mirroring common OS defaults


def fragment(packet: IPv4Packet, mtu: int = 1500) -> list[IPv4Packet]:
    """Split ``packet`` into fragments that fit ``mtu`` (incl. 20B header).

    Returns ``[packet]`` unchanged when it already fits.  Raises
    :class:`PacketError` when the packet has DF set but does not fit, like
    a router generating ICMP "fragmentation needed" would.
    """
    if mtu < 28:  # 20B header + at least one 8-byte data unit
        raise ValueError(f"mtu too small to fragment: {mtu}")
    max_payload = mtu - 20
    if len(packet.payload) <= max_payload:
        return [packet]
    if packet.flags_df:
        raise PacketError("packet needs fragmenting but DF is set")
    # Fragment payload sizes must be multiples of 8 except the last.
    chunk = (max_payload // 8) * 8
    fragments: list[IPv4Packet] = []
    offset = 0
    payload = packet.payload
    while offset < len(payload):
        piece = payload[offset : offset + chunk]
        more = (offset + len(piece)) < len(payload)
        fragments.append(
            IPv4Packet(
                src=packet.src,
                dst=packet.dst,
                protocol=packet.protocol,
                payload=piece,
                identification=packet.identification,
                ttl=packet.ttl,
                flags_df=False,
                flags_mf=more,
                fragment_offset=(packet.fragment_offset * 8 + offset) // 8,
                tos=packet.tos,
            )
        )
        offset += len(piece)
    return fragments


@dataclass(slots=True)
class _PartialPacket:
    first_seen: float
    pieces: dict[int, bytes] = field(default_factory=dict)  # offset(bytes) -> data
    total_length: int | None = None  # set once the MF=0 fragment arrives
    template: IPv4Packet | None = None

    def add(self, frag: IPv4Packet) -> None:
        offset = frag.fragment_offset * 8
        self.pieces[offset] = frag.payload
        if not frag.flags_mf:
            self.total_length = offset + len(frag.payload)
        if self.template is None or frag.fragment_offset == 0:
            self.template = frag

    def try_assemble(self) -> bytes | None:
        if self.total_length is None:
            return None
        covered = 0
        buf = bytearray(self.total_length)
        for offset in sorted(self.pieces):
            data = self.pieces[offset]
            if offset > covered:
                return None  # hole
            end = offset + len(data)
            buf[offset:end] = data
            covered = max(covered, end)
        if covered < self.total_length:
            return None
        return bytes(buf[: self.total_length])


class Reassembler:
    """Stateful IPv4 reassembly keyed by (src, dst, protocol, id)."""

    def __init__(self, timeout: float = DEFAULT_REASSEMBLY_TIMEOUT) -> None:
        self.timeout = timeout
        self._partials: dict[tuple[IPv4Address, IPv4Address, int, int], _PartialPacket] = {}
        self.expired = 0
        self.reassembled = 0
        # A lower bound on every pending partial's first_seen (exact after
        # each scan, +inf when none was ever held): until ``now`` is more
        # than ``timeout`` past it, nothing can be stale and _expire is
        # one comparison instead of a walk over all partials.
        self._oldest = math.inf

    def push(self, packet: IPv4Packet, now: float) -> IPv4Packet | None:
        """Feed one IPv4 packet; return a whole packet when available.

        Non-fragments pass straight through.  Returns ``None`` while a
        fragmented packet is still incomplete.
        """
        self._expire(now)
        if not packet.is_fragment:
            return packet
        key = (packet.src, packet.dst, packet.protocol, packet.identification)
        partial = self._partials.get(key)
        if partial is None:
            partial = _PartialPacket(first_seen=now)
            self._partials[key] = partial
            if now < self._oldest:
                self._oldest = now
        partial.add(packet)
        payload = partial.try_assemble()
        if payload is None:
            return None
        del self._partials[key]
        self.reassembled += 1
        template = partial.template
        assert template is not None
        return IPv4Packet(
            src=template.src,
            dst=template.dst,
            protocol=template.protocol,
            payload=payload,
            identification=template.identification,
            ttl=template.ttl,
            tos=template.tos,
        )

    def _expire(self, now: float) -> None:
        if now - self._oldest <= self.timeout:
            return
        stale = [k for k, p in self._partials.items() if now - p.first_seen > self.timeout]
        for key in stale:
            del self._partials[key]
            self.expired += 1
        self._oldest = min(
            (p.first_seen for p in self._partials.values()), default=math.inf
        )

    @property
    def pending(self) -> int:
        return len(self._partials)
