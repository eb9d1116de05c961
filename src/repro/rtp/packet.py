"""RTP packet codec (RFC 3550 §5.1).

The RTP attack in the paper injects packets whose "header and payload are
filled with random bytes"; detection keys off the sequence-number field.
The codec therefore validates the version bits strictly (garbage usually
fails them) while still exposing the raw header fields the IDS inspects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

RTP_VERSION = 2
_RTP_HEADER = struct.Struct("!BBHII")

PT_PCMU = 0  # G.711 mu-law
PT_PCMA = 8  # G.711 A-law


class RtpError(ValueError):
    """Raised when bytes cannot be decoded as RTP."""


@dataclass(frozen=True, slots=True)
class RtpPacket:
    """One RTP packet."""

    payload_type: int
    sequence: int
    timestamp: int
    ssrc: int
    payload: bytes
    marker: bool = False
    csrcs: tuple[int, ...] = field(default=())
    padding: bool = False
    extension: bool = False

    def __post_init__(self) -> None:
        _check_fields(
            self.payload_type, self.sequence, self.timestamp, self.ssrc, self.csrcs
        )

    def encode(self) -> bytes:
        return (
            encode_header(
                self.payload_type,
                self.sequence,
                self.timestamp,
                self.ssrc,
                self.marker,
                self.csrcs,
                self.padding,
                self.extension,
            )
            + self.payload
        )

    @classmethod
    def decode(cls, raw: bytes) -> "RtpPacket":
        b0, b1, sequence, timestamp, ssrc, start, end = decode_header(raw)
        first_csrc = _RTP_HEADER.size
        return cls(
            payload_type=b1 & 0x7F,
            sequence=sequence,
            timestamp=timestamp,
            ssrc=ssrc,
            payload=raw[start:end],
            marker=bool(b1 & 0x80),
            csrcs=tuple(
                int.from_bytes(raw[i : i + 4], "big")
                for i in range(first_csrc, first_csrc + 4 * (b0 & 0x0F), 4)
            ),
            padding=bool(b0 & 0x20),
            extension=bool(b0 & 0x10),
        )


def _check_fields(
    payload_type: int, sequence: int, timestamp: int, ssrc: int, csrcs: tuple[int, ...]
) -> None:
    if not 0 <= payload_type <= 0x7F:
        raise RtpError(f"payload type out of range: {payload_type}")
    if not 0 <= sequence <= 0xFFFF:
        raise RtpError(f"sequence out of range: {sequence}")
    if not 0 <= timestamp <= 0xFFFFFFFF:
        raise RtpError(f"timestamp out of range: {timestamp}")
    if not 0 <= ssrc <= 0xFFFFFFFF:
        raise RtpError(f"SSRC out of range: {ssrc}")
    if len(csrcs) > 15:
        raise RtpError(f"too many CSRCs: {len(csrcs)}")


def encode_header(
    payload_type: int,
    sequence: int,
    timestamp: int,
    ssrc: int,
    marker: bool = False,
    csrcs: tuple[int, ...] = (),
    padding: bool = False,
    extension: bool = False,
) -> bytes:
    """The wire bytes of one RTP header: the fixed 12 bytes and the CSRC list.

    The mirror of :func:`decode_header`, and the one RTP header packer:
    :meth:`RtpPacket.encode` is built on it, and traffic generators that
    emit thousands of packets call it directly instead of building an
    :class:`RtpPacket` per packet.  The payload (and any extension or
    padding bytes the flags announce) follows it on the wire.  Raises
    :class:`RtpError` for a field out of its range, as constructing an
    :class:`RtpPacket` does.
    """
    _check_fields(payload_type, sequence, timestamp, ssrc, csrcs)
    header = _RTP_HEADER.pack(
        (RTP_VERSION << 6) | (padding << 5) | (extension << 4) | len(csrcs),
        (marker << 7) | payload_type,
        sequence,
        timestamp,
        ssrc,
    )
    if csrcs:
        header += b"".join(c.to_bytes(4, "big") for c in csrcs)
    return header


def decode_header(raw: bytes) -> tuple[int, int, int, int, int, int, int]:
    """Validate one RTP packet's framing without building an :class:`RtpPacket`.

    Checks the version bits, that the CSRC list and any header extension
    fit, and the padding count.  Returns ``(b0, b1, sequence, timestamp,
    ssrc, payload_start, payload_end)``: the two flag bytes as they are
    on the wire (V/P/X/CC and M/PT) and the payload's bounds in ``raw``
    after extension and padding are taken off.  :meth:`RtpPacket.decode`
    is built on it; the Distiller, which keeps header fields only, fills
    an ``RtpFootprint`` from the tuple.
    """
    if len(raw) < _RTP_HEADER.size:
        raise RtpError(f"packet too short for RTP: {len(raw)} bytes")
    b0, b1, sequence, timestamp, ssrc = _RTP_HEADER.unpack_from(raw)
    if b0 >> 6 != RTP_VERSION:
        raise RtpError(f"not RTP version 2: version={b0 >> 6}")
    end = len(raw)
    start = _RTP_HEADER.size + 4 * (b0 & 0x0F)
    if end < start:
        raise RtpError(f"truncated CSRC list: {end} bytes, cc={b0 & 0x0F}")
    if b0 & 0x10:  # extension: 16-bit profile id, 16-bit length in words
        if end < start + 4:
            raise RtpError("truncated extension header")
        start += 4 + 4 * int.from_bytes(raw[start + 2 : start + 4], "big")
        if end < start:
            raise RtpError("truncated extension body")
    if b0 & 0x20 and end > start:  # padding: the last byte counts itself
        pad_len = raw[end - 1]
        if pad_len == 0 or pad_len > end - start:
            raise RtpError(f"bad padding length: {pad_len}")
        end -= pad_len
    return b0, b1, sequence, timestamp, ssrc, start, end


def looks_like_rtp(payload: bytes) -> bool:
    """Cheap sniff used by the Distiller: version bits + sane length."""
    return len(payload) >= _RTP_HEADER.size and (payload[0] >> 6) == RTP_VERSION


def seq_delta(later: int, earlier: int) -> int:
    """Signed distance ``later - earlier`` in 16-bit sequence space.

    Returns a value in ``[-32768, 32767]``; positive means ``later`` is
    ahead of ``earlier`` after unwrapping.  The paper's RTP rule alarms
    when consecutive packets differ by more than 100.
    """
    return ((later - earlier + 0x8000) & 0xFFFF) - 0x8000
