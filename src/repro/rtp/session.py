"""RTP sessions: paced senders and stateful receivers over UDP.

An :class:`RtpSession` owns a UDP port pair (RTP on an even port, RTCP
on the next odd port, per convention), sends one codec frame every 20 ms
toward the negotiated remote endpoint, and feeds incoming packets into
per-SSRC statistics plus a playout buffer.  SIP signalling (the soft-
phone layer) starts/stops/redirects sessions — redirection on re-INVITE
is precisely the behaviour the Call Hijack attack abuses.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.net.addr import Endpoint
from repro.net.stack import HostStack, UdpSocket
from repro.rtp import rtcp
from repro.rtp.codec import FRAME_DURATION, SAMPLES_PER_FRAME, ToneSource
from repro.rtp.jitter import PlayoutBuffer
from repro.rtp.packet import PT_PCMU, RtpError, RtpPacket
from repro.rtp.stats import StreamStats
from repro.sim.eventloop import EventHandle, EventLoop


class FrameSource(Protocol):
    def next_frame(self) -> bytes: ...


@dataclass(slots=True)
class SenderState:
    ssrc: int
    sequence: int
    timestamp: int
    packets_sent: int = 0
    octets_sent: int = 0


class RtpSession:
    """One bidirectional audio session bound to a host."""

    def __init__(
        self,
        stack: HostStack,
        loop: EventLoop,
        local_port: int,
        rng: random.Random | None = None,
        source: FrameSource | None = None,
        payload_type: int = PT_PCMU,
        rtcp_interval: float = 1.0,
    ) -> None:
        if local_port % 2:
            raise ValueError(f"RTP port must be even: {local_port}")
        self.stack = stack
        self.loop = loop
        self.local_port = local_port
        if rng is None:
            # crc32, not hash(): str hashing is salted per process, and the
            # SSRC, first sequence number and timestamp drawn here must be
            # the same on every run.
            rng = random.Random(zlib.crc32(stack.name.encode("utf-8")))
        self.rng = rng
        self.source: FrameSource = source if source is not None else ToneSource()
        self.payload_type = payload_type
        self.rtcp_interval = rtcp_interval
        self.rtp_socket: UdpSocket = stack.bind(local_port, self._on_rtp)
        self.rtcp_socket: UdpSocket = stack.bind(local_port + 1, self._on_rtcp)
        self.remote: Endpoint | None = None
        self.sender = SenderState(
            ssrc=self.rng.getrandbits(32),
            sequence=self.rng.getrandbits(16),
            timestamp=self.rng.getrandbits(32),
        )
        self.streams: dict[int, StreamStats] = {}
        self.playout = PlayoutBuffer()
        self.decode_errors = 0
        self.rtcp_received: list[rtcp.RtcpPacket] = []
        self.terminated_ssrcs: set[int] = set()
        self.on_packet: Callable[[RtpPacket, Endpoint, float], None] | None = None
        self._send_handle: EventHandle | None = None
        self._rtcp_handle: EventHandle | None = None
        self._playout_handle: EventHandle | None = None
        self.sending = False

    # -- control -----------------------------------------------------------

    def start_sending(self, remote: Endpoint) -> None:
        """Begin the 20 ms frame cadence toward ``remote``."""
        self.remote = remote
        if self.sending:
            return
        self.sending = True
        self._send_frame()
        self._rtcp_handle = self.loop.call_later(self.rtcp_interval, self._send_rtcp)
        self._playout_handle = self.loop.call_later(FRAME_DURATION, self._playout_tick)

    def redirect(self, remote: Endpoint) -> None:
        """Point the outgoing stream at a new endpoint (mobility/hijack)."""
        self.remote = remote

    def stop_sending(self, send_bye: bool = True) -> None:
        if not self.sending:
            return
        self.sending = False
        for handle in (self._send_handle, self._rtcp_handle, self._playout_handle):
            if handle is not None:
                handle.cancel()
        if send_bye and self.remote is not None:
            bye = rtcp.Bye(ssrcs=(self.sender.ssrc,), reason="session ended")
            self.rtcp_socket.send_to(Endpoint(self.remote.ip, self.remote.port + 1), bye.encode())

    def close(self) -> None:
        self.stop_sending(send_bye=False)
        self.rtp_socket.close()
        self.rtcp_socket.close()

    # -- sender ----------------------------------------------------------------

    def _send_frame(self) -> None:
        if not self.sending or self.remote is None:
            return
        payload = self.source.next_frame()
        packet = RtpPacket(
            payload_type=self.payload_type,
            sequence=self.sender.sequence,
            timestamp=self.sender.timestamp,
            ssrc=self.sender.ssrc,
            payload=payload,
            marker=self.sender.packets_sent == 0,
        )
        self.rtp_socket.send_to(self.remote, packet.encode())
        self.sender.sequence = (self.sender.sequence + 1) & 0xFFFF
        self.sender.timestamp = (self.sender.timestamp + SAMPLES_PER_FRAME) & 0xFFFFFFFF
        self.sender.packets_sent += 1
        self.sender.octets_sent += len(payload)
        self._send_handle = self.loop.call_later(FRAME_DURATION, self._send_frame)

    def _send_rtcp(self) -> None:
        if not self.sending or self.remote is None:
            return
        now = self.loop.now()
        ntp = int(now * (1 << 32))  # seconds . fraction, epoch = sim start
        # The RC field is 5 bits (RFC 3550 §6.4.1): at most 31 report
        # blocks fit in one SR.  Under an SSRC flood we report on the 31
        # most recently learned sources rather than overflowing the header.
        reported = list(self.streams.values())[-31:]
        reports = tuple(
            rtcp.ReportBlock(
                ssrc=stats.ssrc,
                fraction_lost=int(stats.fraction_lost * 255),
                cumulative_lost=max(0, stats.lost) & 0xFFFFFF,
                highest_seq=stats.extended_max_seq,
                jitter=int(stats.jitter.jitter),
            )
            for stats in reported
        )
        sr = rtcp.SenderReport(
            ssrc=self.sender.ssrc,
            ntp_timestamp=ntp & 0xFFFFFFFFFFFFFFFF,
            rtp_timestamp=self.sender.timestamp,
            packet_count=self.sender.packets_sent,
            octet_count=self.sender.octets_sent,
            reports=reports,
        )
        sdes = rtcp.SourceDescription(
            ssrc=self.sender.ssrc, cname=f"{self.stack.name}@{self.stack.ip}"
        )
        compound = sr.encode() + sdes.encode()
        self.rtcp_socket.send_to(Endpoint(self.remote.ip, self.remote.port + 1), compound)
        self._rtcp_handle = self.loop.call_later(self.rtcp_interval, self._send_rtcp)

    # -- receiver -----------------------------------------------------------------

    def _on_rtp(self, payload: bytes, src: Endpoint, now: float) -> None:
        try:
            packet = RtpPacket.decode(payload)
        except RtpError:
            self.decode_errors += 1
            return
        stats = self.streams.get(packet.ssrc)
        if stats is None:
            stats = StreamStats(ssrc=packet.ssrc)
            self.streams[packet.ssrc] = stats
        stats.update(packet, now)
        self.playout.push(packet)
        if self.on_packet is not None:
            self.on_packet(packet, src, now)

    def _playout_tick(self) -> None:
        if not self.sending:
            return
        self.playout.pop_ready()
        self._playout_handle = self.loop.call_later(FRAME_DURATION, self._playout_tick)

    def _on_rtcp(self, payload: bytes, src: Endpoint, now: float) -> None:
        try:
            packets = rtcp.decode_compound(payload)
        except rtcp.RtcpError:
            self.decode_errors += 1
            return
        self.rtcp_received.extend(packets)
        for packet in packets:
            if isinstance(packet, rtcp.Bye):
                # A real client removes the participant: subsequent audio
                # from these SSRCs would be discarded/unrendered.  A
                # forged BYE therefore mutes a live talker.
                self.terminated_ssrcs.update(packet.ssrcs)

    # -- introspection ----------------------------------------------------------------

    @property
    def total_received(self) -> int:
        return sum(s.packets_received for s in self.streams.values())

    def primary_stream(self) -> StreamStats | None:
        """The stream with the most packets (the talking peer)."""
        if not self.streams:
            return None
        return max(self.streams.values(), key=lambda s: s.packets_received)
