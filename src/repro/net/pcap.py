"""Minimal libpcap-format reader and writer.

Traces captured in the simulator round-trip through standard pcap files
(magic ``0xA1B2C3D4``, LINKTYPE_ETHERNET), so captures can be inspected
with external tools and, conversely, recorded traces can be replayed into
the IDS offline — the same "capture once, analyse many" workflow used
with the paper's physical testbed.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import Trace

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class PcapError(ValueError):
    """Raised on malformed pcap input."""


def split_timestamp(timestamp: float) -> tuple[int, int]:
    """The ``(seconds, microseconds)`` pair a pcap record stores."""
    seconds = int(timestamp)
    micros = int(round((timestamp - seconds) * 1_000_000))
    if micros >= 1_000_000:
        seconds += 1
        micros -= 1_000_000
    return seconds, micros


def quantize_timestamp(timestamp: float) -> float:
    """Round ``timestamp`` to what a pcap write/read round-trip yields.

    Anything derived from a timestamp before writing (ground-truth
    labels, digests) must quantize through here first, or it will
    disagree with the same computation on the read-back trace.
    """
    seconds, micros = split_timestamp(timestamp)
    return seconds + micros / 1_000_000


def write_pcap(path: str | Path, trace: "Trace", snaplen: int = 65535) -> None:
    """Write ``trace`` to ``path`` in little-endian pcap format."""
    write_pcap_frames(
        path, ((record.timestamp, record.frame) for record in trace), snaplen
    )


def write_pcap_frames(
    path: str | Path, frames: Iterable[tuple[float, bytes]], snaplen: int = 65535
) -> None:
    """Write ``(timestamp, frame)`` pairs to ``path`` in little-endian
    pcap format, in the order given."""
    pack_record = _RECORD_HEADER.pack
    with open(path, "wb") as fh:
        write = fh.write
        write(_GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET))
        for timestamp, frame in frames:
            seconds, micros = split_timestamp(timestamp)
            data = frame[:snaplen]
            write(pack_record(seconds, micros, len(data), len(frame)))
            write(data)


def read_pcap(path: str | Path, name: str | None = None) -> "Trace":
    """Read a pcap file into a :class:`Trace`.

    Handles both byte orders.  Only LINKTYPE_ETHERNET captures are
    accepted since the Distiller expects Ethernet framing.
    """
    from repro.sim.trace import Trace

    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _GLOBAL_HEADER.size:
        raise PcapError(f"file too short for pcap header: {len(raw)} bytes")
    magic = struct.unpack("<I", raw[:4])[0]
    if magic == PCAP_MAGIC:
        endian = "<"
    elif magic == PCAP_MAGIC_SWAPPED:
        endian = ">"
    else:
        raise PcapError(f"bad pcap magic: {magic:#x}")
    global_hdr = struct.Struct(endian + "IHHiIII")
    record_hdr = struct.Struct(endian + "IIII")
    _, major, minor, _tz, _sig, _snaplen, linktype = global_hdr.unpack_from(raw)
    if (major, minor) != (2, 4):
        raise PcapError(f"unsupported pcap version: {major}.{minor}")
    if linktype != LINKTYPE_ETHERNET:
        raise PcapError(f"unsupported linktype: {linktype}")
    trace = Trace(name=name or path.stem)
    offset = global_hdr.size
    while offset < len(raw):
        if offset + record_hdr.size > len(raw):
            raise PcapError("truncated pcap record header")
        seconds, micros, caplen, _origlen = record_hdr.unpack_from(raw, offset)
        offset += record_hdr.size
        if offset + caplen > len(raw):
            raise PcapError("truncated pcap record body")
        trace.append(seconds + micros / 1_000_000, raw[offset : offset + caplen])
        offset += caplen
    return trace
