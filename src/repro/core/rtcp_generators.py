"""RTCP-aware event generators — the §3.1 three-protocol chain.

The paper's motivating sentence for cross-protocol detection chains
"a pattern in a SIP packet followed by one in a succeeding RTP packet
followed by one in an RTCP packet".  Two generators realise the
RTCP-side of that chain:

* :class:`RtcpByeGenerator` — after an RTCP BYE announces that SSRC X
  stopped sending, RTP packets carrying SSRC X are orphans
  (``RtpAfterRtcpBye``).  A forged RTCP BYE — trivial to craft, since
  RTCP is unauthenticated — silences a participant in real clients;
  the continuing genuine stream exposes the forgery.
* :class:`SsrcTrackGenerator` — the §2.2 impersonation vector: "An
  attack can also fake the SSRC field ... to impersonate another
  participant".  The generator remembers which network source owns each
  SSRC per destination flow; a second source producing the same SSRC is
  an ``SsrcCollision``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import (
    EVENT_RTCP_BYE,
    EVENT_RTP_AFTER_RTCP_BYE,
    EVENT_SSRC_COLLISION,
    Event,
    EventGenerator,
    GeneratorContext,
    expire_entries,
)
from repro.core.fastpath import NO_HOLD, MediaHold
from repro.core.footprint import AnyFootprint, Protocol, RtcpFootprint, RtpFootprint
from repro.core.trail import Trail
from repro.net.addr import Endpoint
from repro.rtp.rtcp import Bye


@dataclass(slots=True)
class _ByeWatch:
    ssrc: int
    session: str
    armed_at: float
    expires_at: float
    fired: int = 0


class RtcpByeGenerator(EventGenerator):
    """RTP continuing after its own SSRC said goodbye via RTCP."""

    name = "rtcp-bye"
    protocols = frozenset({Protocol.RTCP, Protocol.RTP})

    def __init__(self, monitoring_window: float = 0.5, max_events_per_watch: int = 3) -> None:
        self.monitoring_window = monitoring_window
        self.max_events_per_watch = max_events_per_watch
        self._watches: dict[int, _ByeWatch] = {}

    def expire_idle(self, now: float, idle_timeout: float, ctx: GeneratorContext) -> int:
        # Closed windows, as _on_rtp reads them.
        return expire_entries(self._watches, "expires_at", now, 0.0)

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if isinstance(footprint, RtcpFootprint):
            return self._on_rtcp(footprint, trail, ctx)
        if isinstance(footprint, RtpFootprint):
            return self._on_rtp(footprint)
        return []

    def media_hold(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> MediaHold | None:
        # No watch on this SSRC: its RTP is untouched here until an RTCP
        # BYE (a media_changed write) arms one.
        return None if footprint.ssrc in self._watches else NO_HOLD

    def _on_rtcp(
        self, footprint: RtcpFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        events: list[Event] = []
        for packet in footprint.packets:
            if not isinstance(packet, Bye):
                continue
            for ssrc in packet.ssrcs:
                ctx.media_changed()
                self._watches[ssrc] = _ByeWatch(
                    ssrc=ssrc,
                    session=trail.call_id or "",
                    armed_at=footprint.timestamp,
                    expires_at=footprint.timestamp + self.monitoring_window,
                )
                events.append(
                    Event(
                        name=EVENT_RTCP_BYE,
                        time=footprint.timestamp,
                        session=trail.call_id or "",
                        attrs={"ssrc": ssrc, "reason": packet.reason,
                               "src": str(footprint.src)},
                        evidence=(footprint,),
                    )
                )
        return events

    def _on_rtp(self, footprint: RtpFootprint) -> list[Event]:
        watch = self._watches.get(footprint.ssrc)
        if watch is None:
            return []
        if footprint.timestamp > watch.expires_at:
            del self._watches[footprint.ssrc]
            return []
        if watch.fired >= self.max_events_per_watch:
            return []
        watch.fired += 1
        return [
            Event(
                name=EVENT_RTP_AFTER_RTCP_BYE,
                time=footprint.timestamp,
                session=watch.session,
                attrs={
                    "ssrc": footprint.ssrc,
                    "src": str(footprint.src),
                    "delay": footprint.timestamp - watch.armed_at,
                },
                evidence=(footprint,),
            )
        ]


@dataclass(slots=True)
class _SsrcOwner:
    source: Endpoint
    last_seen: float
    packets: int = 1

    def touch(self, now: float) -> None:
        """Another packet from the owning source."""
        self.last_seen = now
        self.packets += 1


class _OwnerHold:
    """The media fast path's view of one SSRC owner: its own packets
    within ``forget_after`` raise nothing and only touch it."""

    __slots__ = ("owner", "forget_after")

    def __init__(self, owner: _SsrcOwner, forget_after: float) -> None:
        self.owner = owner
        self.forget_after = forget_after

    def admits(self, sequence: int, now: float) -> bool:
        return now - self.owner.last_seen <= self.forget_after

    def advance(self, sequence: int, now: float) -> None:
        self.owner.touch(now)


# Endpoint -> "ip:port" render memo.  The collision branch runs once per
# spoofed packet and its attrs are string-typed (consumers slice and
# compare them); the handful of endpoints in play don't need re-rendering
# each time.  Capped so an attacker cycling spoofed sources can't grow it.
_ENDPOINT_STRS: dict[tuple[int, int], str] = {}


def _endpoint_str(endpoint: Endpoint) -> str:
    key = (endpoint.ip.packed, endpoint.port)
    rendered = _ENDPOINT_STRS.get(key)
    if rendered is None:
        if len(_ENDPOINT_STRS) >= 4096:
            _ENDPOINT_STRS.clear()
        rendered = _ENDPOINT_STRS[key] = str(endpoint)
    return rendered


class SsrcTrackGenerator(EventGenerator):
    """Same SSRC, different network source: participant impersonation."""

    name = "ssrc-track"
    protocols = frozenset({Protocol.RTP})

    def __init__(self, forget_after: float = 30.0) -> None:
        self.forget_after = forget_after
        # Keyed per destination flow so independent sessions that happen
        # to pick the same random SSRC don't cross-talk.  (packed ip,
        # port, ssrc) int keys hash in C on the per-packet path.
        self._owners: dict[tuple[int, int, int], _SsrcOwner] = {}

    def expire_idle(self, now: float, idle_timeout: float, ctx: GeneratorContext) -> int:
        return expire_entries(self._owners, "last_seen", now, idle_timeout)

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if not isinstance(footprint, RtpFootprint) or not ctx.is_inbound(footprint):
            return []
        key = (footprint.dst.ip.packed, footprint.dst.port, footprint.ssrc)
        owner = self._owners.get(key)
        now = footprint.timestamp
        if owner is None or now - owner.last_seen > self.forget_after:
            if owner is not None:
                # Re-anchoring: a fast-path profile may hold the old owner.
                ctx.media_changed()
            self._owners[key] = _SsrcOwner(source=footprint.src, last_seen=now)
            return []
        if owner.source == footprint.src:
            owner.touch(now)
            return []
        # Collision: do NOT re-anchor — keep trusting the incumbent.
        event = Event(
            name=EVENT_SSRC_COLLISION,
            time=now,
            session=trail.call_id or "",
            attrs={
                "ssrc": footprint.ssrc,
                "owner": _endpoint_str(owner.source),
                "intruder": _endpoint_str(footprint.src),
                "owner_packets": owner.packets,
            },
            evidence=(footprint,),
        )
        return [event]

    def media_hold(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> MediaHold | None:
        if not ctx.is_inbound(footprint):
            return None
        dst = footprint.dst
        owner = self._owners.get((dst.ip.packed, dst.port, footprint.ssrc))
        if owner is None or (
            owner.source is not footprint.src and owner.source != footprint.src
        ):
            return None
        return _OwnerHold(owner, self.forget_after)
