"""H.323 event generation: the same abstractions, a different CMP.

The paper claims SCIDIVE "can operate with both classes of protocols
that compose VoIP systems" and can "without substantial system
customization, be extended for detecting new classes of attacks".  This
module is the proof by construction: one generator tracks H.225 call
state (SETUP/CONNECT fast-connect media, RELEASE COMPLETE teardowns)
and arms exactly the same orphan-flow watches the SIP BYE rule uses —
no changes to trails, rules, or the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import Event, EventGenerator, GeneratorContext
from repro.core.footprint import AnyFootprint, H225Footprint, Protocol, RtpFootprint
from repro.core.trail import Trail
from repro.h323.h225 import MessageType
from repro.net.addr import Endpoint

EVENT_H323_CALL_ESTABLISHED = "H323CallEstablished"
EVENT_H323_CALL_RELEASED = "H323CallReleased"
EVENT_ORPHAN_RTP_AFTER_RELEASE = "OrphanRtpAfterRelease"


@dataclass(slots=True)
class _H323CallState:
    crv: int
    caller: str = ""
    callee: str = ""
    media: dict[str, Endpoint] = field(default_factory=dict)
    established: bool = False
    released: bool = False


@dataclass(slots=True)
class _ReleaseWatch:
    session: str
    endpoint: Endpoint
    armed_at: float
    expires_at: float
    fired: int = 0


class H323OrphanGenerator(EventGenerator):
    """Stateful + cross-protocol detection for the H.323 CMP.

    On RELEASE COMPLETE arriving at the protected endpoint, watches the
    *other* party's fast-connect media endpoint; RTP from it within the
    monitoring window is an orphan — the forged-release attack's
    signature, identical in shape to the SIP BYE rule.
    """

    name = "h323-orphan"
    protocols = frozenset({Protocol.H225, Protocol.RTP})

    def __init__(self, monitoring_window: float = 0.5, max_events_per_watch: int = 3) -> None:
        self.monitoring_window = monitoring_window
        self.max_events_per_watch = max_events_per_watch
        self._calls: dict[int, _H323CallState] = {}
        self._watches: list[_ReleaseWatch] = []

    def reset(self) -> None:
        self._calls.clear()
        self._watches.clear()

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if isinstance(footprint, H225Footprint):
            return self._on_h225(footprint, ctx)
        if isinstance(footprint, RtpFootprint):
            return self._check_watches(footprint)
        return []

    # -- signalling state -------------------------------------------------

    def _on_h225(self, footprint: H225Footprint, ctx: GeneratorContext) -> list[Event]:
        message = footprint.message
        call = self._calls.get(footprint.call_reference)
        if call is None:
            call = _H323CallState(crv=footprint.call_reference)
            self._calls[footprint.call_reference] = call
        events: list[Event] = []
        session = f"h323-crv-{footprint.call_reference}"
        if message.message_type == MessageType.SETUP:
            call.caller = message.calling_party or call.caller
            call.callee = message.called_party or call.callee
            if message.media is not None and call.caller:
                call.media[call.caller] = message.media
        elif message.message_type == MessageType.CONNECT:
            answerer = message.called_party or call.callee
            if message.media is not None and answerer:
                call.media[answerer] = message.media
            if not call.established:
                call.established = True
                events.append(
                    Event(
                        name=EVENT_H323_CALL_ESTABLISHED,
                        time=footprint.timestamp,
                        session=session,
                        attrs={"caller": call.caller, "callee": call.callee},
                        evidence=(footprint,),
                    )
                )
        elif message.message_type == MessageType.RELEASE_COMPLETE and not call.released:
            call.released = True
            events.append(
                Event(
                    name=EVENT_H323_CALL_RELEASED,
                    time=footprint.timestamp,
                    session=session,
                    attrs={"source": str(footprint.src), "cause": message.cause},
                    evidence=(footprint,),
                )
            )
            # Arm watches only for releases *arriving at* the protected
            # endpoint (an inbound teardown), on every media endpoint
            # that is not the victim's own.
            inbound = ctx.is_inbound(footprint)
            if inbound:
                for endpoint in call.media.values():
                    if str(endpoint.ip) != str(footprint.dst.ip):
                        self._watches.append(
                            _ReleaseWatch(
                                session=session,
                                endpoint=endpoint,
                                armed_at=footprint.timestamp,
                                expires_at=footprint.timestamp + self.monitoring_window,
                            )
                        )
        return events

    # -- orphan checking ------------------------------------------------------

    def _check_watches(self, footprint: RtpFootprint) -> list[Event]:
        if not self._watches:
            return []
        now = footprint.timestamp
        self._watches = [w for w in self._watches if w.expires_at >= now]
        events: list[Event] = []
        for watch in self._watches:
            if watch.fired >= self.max_events_per_watch:
                continue
            if footprint.src == watch.endpoint:
                watch.fired += 1
                events.append(
                    Event(
                        name=EVENT_ORPHAN_RTP_AFTER_RELEASE,
                        time=now,
                        session=watch.session,
                        attrs={
                            "endpoint": str(watch.endpoint),
                            "delay": now - watch.armed_at,
                        },
                        evidence=(footprint,),
                    )
                )
        return events
