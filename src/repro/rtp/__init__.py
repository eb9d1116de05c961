"""RTP media substrate: packet/RTCP codecs, G.711, jitter machinery,
receiver statistics and paced sessions."""

from repro.rtp.codec import (
    FRAME_DURATION,
    SAMPLE_RATE,
    SAMPLES_PER_FRAME,
    SilenceSource,
    ToneSource,
    mulaw_decode,
    mulaw_encode,
)
from repro.rtp.jitter import JitterEstimator, PlayoutBuffer, PlayoutStats
from repro.rtp.packet import PT_PCMA, PT_PCMU, RtpError, RtpPacket, looks_like_rtp, seq_delta
from repro.rtp.rtcp import (
    Bye,
    ReceiverReport,
    ReportBlock,
    RtcpError,
    SenderReport,
    SourceDescription,
    decode_compound,
    looks_like_rtcp,
)
from repro.rtp.stats import StreamStats

__all__ = [
    "Bye",
    "FRAME_DURATION",
    "JitterEstimator",
    "PT_PCMA",
    "PT_PCMU",
    "PlayoutBuffer",
    "PlayoutStats",
    "ReceiverReport",
    "ReportBlock",
    "RtcpError",
    "RtpError",
    "RtpPacket",
    "SAMPLE_RATE",
    "SAMPLES_PER_FRAME",
    "SenderReport",
    "SilenceSource",
    "SourceDescription",
    "StreamStats",
    "ToneSource",
    "decode_compound",
    "looks_like_rtcp",
    "looks_like_rtp",
    "mulaw_decode",
    "mulaw_encode",
    "seq_delta",
]
