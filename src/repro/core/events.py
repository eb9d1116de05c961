"""Events and the Event Generator framework (paper §3.1, Figure 2).

"The Event Generator maps footprints into a single event ... it is just
a layer of abstraction, which correlates the information in footprints
and concentrates the information into a single event.  It helps
performance by hiding some computationally expensive matching."

An :class:`Event` names something semantically interesting that one or
more footprints imply (``OrphanRtpAfterBye``, ``ImSourceMismatch``, …).
Generators are stateful objects fed every footprint in arrival order;
they return zero or more events.  The engine fans footprints out to all
registered generators and forwards the produced events to the rule
matching engine.  Per-call state lives on the call table's records
(:mod:`repro.core.state`); what a generator keeps of its own — per-flow
sequence anchors, SSRC owners, IM senders, armed watches, H.323 calls —
housekeeping drops through :meth:`EventGenerator.expire_idle`: by the
idle rule the call table follows, once a watch's window has closed, or
with the call record the state belongs to.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.footprint import AnyFootprint, Protocol
from repro.core.state import SipStateTracker
from repro.core.trail import Trail, TrailManager
from repro.net.addr import IPv4Address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fastpath import MediaHold


def _plain(value: Any) -> Any:
    """Coerce attribute values to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# Canonical event names, so rules and generators cannot drift apart.
EVENT_CALL_ESTABLISHED = "CallEstablished"
EVENT_CALL_TORN_DOWN = "CallTornDown"
EVENT_MEDIA_REDIRECTED = "MediaRedirected"
EVENT_ORPHAN_RTP_AFTER_BYE = "OrphanRtpAfterBye"
EVENT_ORPHAN_RTP_AFTER_REINVITE = "OrphanRtpAfterReinvite"
EVENT_RTP_SEQ_ANOMALY = "RtpSeqAnomaly"
EVENT_RTP_SOURCE_MISMATCH = "RtpSourceMismatch"
EVENT_RTP_JITTER = "RtpJitter"
EVENT_MALFORMED_RTP = "MalformedRtp"
EVENT_MALFORMED_SIP = "MalformedSip"
EVENT_IM_RECEIVED = "ImReceived"
EVENT_IM_SENT = "ImSent"
EVENT_IM_SOURCE_MISMATCH = "ImSourceMismatch"
EVENT_REPEATED_UNAUTH_REGISTER = "RepeatedUnauthRegister"
EVENT_AUTH_FAILURE = "AuthFailure"
EVENT_ACCOUNTING_MISMATCH = "AccountingMismatch"
EVENT_ACCOUNTING_TXN = "AccountingTxn"
EVENT_RTCP_BYE = "RtcpBye"
EVENT_RTP_AFTER_RTCP_BYE = "RtpAfterRtcpBye"
EVENT_SSRC_COLLISION = "SsrcCollision"


@dataclass(frozen=True, slots=True)
class Event:
    """One semantic occurrence derived from footprints."""

    name: str
    time: float
    session: str  # Call-ID or another session discriminator ("" = global)
    attrs: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)
    # The footprints that caused this event (evidence for the analyst).
    evidence: tuple[AnyFootprint, ...] = field(default=(), hash=False, compare=False)

    def __str__(self) -> str:
        return f"[{self.time:9.4f}] {self.name} session={self.session or '-'} {self.attrs}"

    def to_dict(self) -> dict[str, Any]:
        """The one JSON shape for events (see ``Alert.to_dict``)."""
        return {
            "type": "event",
            "name": self.name,
            "time": round(self.time, 6),
            "session": self.session,
            "attrs": _plain(self.attrs),
            "evidence_count": len(self.evidence),
        }


@dataclass(slots=True)
class GeneratorContext:
    """Shared state every generator may consult."""

    trails: TrailManager
    sip_state: SipStateTracker
    vantage_ip: str | None = None  # IP of the protected endpoint (client A)
    # MAC of the protected endpoint's NIC.  A host-based IDS knows which
    # frames its own host actually transmitted; an IP-spoofed frame from
    # elsewhere on the segment carries a foreign source MAC and must not
    # count as outbound.  None = trust the IP (network-tap deployment).
    vantage_mac: str | None = None
    # Parsed once at construction: direction checks run per footprint on
    # the hot path, so they compare packed ints, not formatted strings.
    _vantage_packed: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._vantage_packed = (
            IPv4Address.parse(self.vantage_ip).packed
            if self.vantage_ip is not None
            else None
        )

    def is_inbound(self, footprint: AnyFootprint) -> bool:
        """Does this footprint arrive at the protected endpoint?"""
        packed = self._vantage_packed
        return packed is None or footprint.dst.ip.packed == packed

    def media_changed(self) -> None:
        """A generator armed a watch or re-keyed per-flow state that an
        in-profile media frame's verdict reads: a media-table write."""
        self.trails.media.writes += 1

    def is_outbound(self, footprint: AnyFootprint) -> bool:
        packed = self._vantage_packed
        if packed is None or footprint.src.ip.packed != packed:
            return False
        return self.vantage_mac is None or footprint.src_mac.value == self.vantage_mac


class EventGenerator(ABC):
    """Base class for all generators."""

    name: str = "generator"
    # The protocols this generator consumes.  The engine dispatches a
    # footprint only to generators whose set contains its protocol;
    # None means "every footprint" (broadcast, the pre-indexing default).
    # Malformed footprints dispatch under their *claimed* protocol, so a
    # SIP-interested generator still sees malformed SIP.
    protocols: frozenset[Protocol] | None = None

    @abstractmethod
    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        """Consume one footprint, emit zero or more events."""

    def expire_idle(self, now: float, idle_timeout: float, ctx: GeneratorContext) -> int:
        """Drop state last touched more than ``idle_timeout`` before
        ``now``, or whose call record has left ``ctx``'s call table
        (housekeeping); returns how many entries went."""
        return 0

    def media_hold(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> "MediaHold | None":
        """What the next in-profile frame of ``footprint``'s flow changes
        here, asked after ``footprint`` raised no event (the media fast
        path, :mod:`repro.core.fastpath`): a hold, ``NO_HOLD`` when such
        a frame changes nothing here, or None when this generator cannot
        vouch that it raises no event — the default, so a generator that
        does not answer keeps every frame on the full path."""
        return None


def expire_entries(table: dict, stamp: str, now: float, idle_timeout: float) -> int:
    """Drop the entries of ``table`` whose ``stamp`` attribute is more
    than ``idle_timeout`` before ``now``; returns how many went."""
    stale = [
        key for key, entry in table.items()
        if now - getattr(entry, stamp) > idle_timeout
    ]
    for key in stale:
        del table[key]
    return len(stale)


def expire_watches(watches: list, now: float) -> int:
    """Drop the watches whose window closed before ``now`` — the rule a
    generator's per-packet check applies; returns how many went."""
    live = [watch for watch in watches if watch.expires_at >= now]
    swept = len(watches) - len(live)
    watches[:] = live
    return swept


from repro.fastpickle import install_fast_pickle

# Events are the bulk of a state checkpoint's object count.
install_fast_pickle(Event)
