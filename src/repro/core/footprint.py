"""Footprints: protocol-dependent information units (paper §3.1).

"A Footprint is a protocol dependent information unit, which, for
example, could be composed of a SIP message or an RTP packet."  The
Distiller turns every captured frame into exactly one Footprint (or a
:class:`MalformedFootprint` when decoding fails — itself a signal: the
billing-fraud rule's first condition is a badly formatted SIP message).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.net.addr import Endpoint, MacAddress
from repro.rtp.rtcp import RtcpPacket
from repro.sip.message import SipRequest, SipResponse


class Protocol(enum.Enum):
    SIP = "sip"
    H225 = "h225"
    RTP = "rtp"
    RTCP = "rtcp"
    ACCOUNTING = "accounting"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class Footprint:
    """Base class: where/when one protocol unit was observed."""

    timestamp: float
    src: Endpoint
    dst: Endpoint
    src_mac: MacAddress
    dst_mac: MacAddress
    wire_bytes: int  # size of the original frame

    @property
    def protocol(self) -> Protocol:  # pragma: no cover - overridden
        return Protocol.OTHER


@dataclass(frozen=True, slots=True)
class SipFootprint(Footprint):
    """One parsed SIP message."""

    message: SipRequest | SipResponse = None  # type: ignore[assignment]

    @property
    def protocol(self) -> Protocol:
        return Protocol.SIP

    @property
    def is_request(self) -> bool:
        return isinstance(self.message, SipRequest)

    @property
    def method(self) -> str | None:
        """The request method, or the method the response answers."""
        if isinstance(self.message, SipRequest):
            return self.message.method
        try:
            return self.message.cseq.method
        except Exception:
            return None

    @property
    def status(self) -> int | None:
        return self.message.status if isinstance(self.message, SipResponse) else None

    def call_id(self) -> str | None:
        try:
            return self.message.call_id
        except Exception:
            return None


@dataclass(frozen=True, slots=True)
class RtpFootprint(Footprint):
    """One RTP packet (header fields only; payload stays out of the IDS)."""

    ssrc: int = 0
    sequence: int = 0
    rtp_timestamp: int = 0
    payload_type: int = 0
    payload_len: int = 0
    marker: bool = False

    @property
    def protocol(self) -> Protocol:
        return Protocol.RTP


@dataclass(frozen=True, slots=True)
class RtcpFootprint(Footprint):
    """One RTCP compound datagram."""

    packets: tuple[RtcpPacket, ...] = ()

    @property
    def protocol(self) -> Protocol:
        return Protocol.RTCP

    @property
    def has_bye(self) -> bool:
        from repro.rtp.rtcp import Bye

        return any(isinstance(p, Bye) for p in self.packets)


@dataclass(frozen=True, slots=True)
class AccountingFootprint:
    """One accounting transaction observed between billing and its DB.

    Not a subclass quirk: accounting events share the Footprint shape so
    they flow through the same trails, but carry call attribution fields.
    """

    timestamp: float
    src: Endpoint
    dst: Endpoint
    src_mac: MacAddress
    dst_mac: MacAddress
    wire_bytes: int
    call_id: str = ""
    from_aor: str = ""
    to_aor: str = ""
    action: str = "start"  # start | stop

    @property
    def protocol(self) -> Protocol:
        return Protocol.ACCOUNTING


@dataclass(frozen=True, slots=True)
class H225Footprint(Footprint):
    """One H.225 call-signalling message (the H.323 CMP)."""

    message: "object" = None  # repro.h323.h225.H225Message

    @property
    def protocol(self) -> Protocol:
        return Protocol.H225

    @property
    def message_type(self):
        return self.message.message_type

    @property
    def call_reference(self) -> int:
        return self.message.call_reference


@dataclass(frozen=True, slots=True)
class MalformedFootprint(Footprint):
    """A frame that failed protocol decoding — kept, never dropped."""

    claimed_protocol: Protocol = Protocol.OTHER
    reason: str = ""

    @property
    def protocol(self) -> Protocol:
        return self.claimed_protocol


AnyFootprint = (
    SipFootprint
    | RtpFootprint
    | RtcpFootprint
    | AccountingFootprint
    | H225Footprint
    | MalformedFootprint
)


from repro.fastpickle import install_fast_pickle

# Footprints cross multiprocessing queues (cluster) and dominate state
# checkpoints; pickle them without the per-instance fields() tax.
install_fast_pickle(
    Footprint,
    SipFootprint,
    RtpFootprint,
    RtcpFootprint,
    AccountingFootprint,
    H225Footprint,
    MalformedFootprint,
)
