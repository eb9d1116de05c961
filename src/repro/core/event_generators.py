"""Concrete event generators for the paper's attack classes.

Each generator encapsulates one kind of stateful and/or cross-protocol
correlation:

=====================  ====================================================
Generator              Events produced
=====================  ====================================================
DialogEventGenerator   CallEstablished, CallTornDown, MediaRedirected
OrphanRtpGenerator     OrphanRtpAfterBye, OrphanRtpAfterReinvite
                       (cross-protocol: SIP teardown/redirect state ×
                       subsequent RTP footprints, within a monitoring
                       window of ``m`` seconds — §4.3's parameter)
RtpStreamGenerator     RtpSeqAnomaly (paper threshold: Δseq > 100),
                       RtpSourceMismatch (flow without SDP-negotiated
                       source), RtpJitter (out-of-order pair), MalformedRtp
ImSourceGenerator      ImReceived, ImSent, ImSourceMismatch (same AoR,
                       different source IP within the mobility window)
AuthEventGenerator     RepeatedUnauthRegister (DoS), AuthFailure
                       (password guessing: distinct digest responses)
MalformedSipGenerator  MalformedSip
AccountingGenerator    AccountingTxn, AccountingMismatch (billing-fraud
                       condition 2: TXN with no matching call setup)
=====================  ====================================================
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass

from repro.core.events import (
    EVENT_ACCOUNTING_MISMATCH,
    EVENT_ACCOUNTING_TXN,
    EVENT_AUTH_FAILURE,
    EVENT_CALL_ESTABLISHED,
    EVENT_CALL_TORN_DOWN,
    EVENT_IM_RECEIVED,
    EVENT_IM_SENT,
    EVENT_IM_SOURCE_MISMATCH,
    EVENT_MALFORMED_RTP,
    EVENT_MALFORMED_SIP,
    EVENT_MEDIA_REDIRECTED,
    EVENT_ORPHAN_RTP_AFTER_BYE,
    EVENT_ORPHAN_RTP_AFTER_REINVITE,
    EVENT_REPEATED_UNAUTH_REGISTER,
    EVENT_RTP_JITTER,
    EVENT_RTP_SEQ_ANOMALY,
    EVENT_RTP_SOURCE_MISMATCH,
    Event,
    EventGenerator,
    GeneratorContext,
    expire_entries,
    expire_watches,
)
from repro.core.fastpath import NO_HOLD, MediaHold, watch_hold
from repro.core.footprint import (
    AccountingFootprint,
    AnyFootprint,
    MalformedFootprint,
    Protocol,
    RtpFootprint,
    SipFootprint,
)
from repro.core.state import (
    MARK_AUTH_FAILED,
    MARK_ESTABLISHED,
    MARK_REDIRECTED,
    MARK_TORN_DOWN,
    MARK_UNAUTH_RETRY,
    CallEntry,
    CallPhase,
)
from repro.core.trail import MediaEntry, Trail
from repro.net.addr import Endpoint
from repro.rtp.packet import seq_delta
from repro.sip.constants import METHOD_MESSAGE


class DialogEventGenerator(EventGenerator):
    """Call lifecycle events from the transitions the state stage marks
    on each call's record."""

    name = "dialog"
    protocols = frozenset({Protocol.SIP})

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if trail.__class__ is not CallEntry or not trail.mark:
            return []
        call, mark = trail, trail.mark
        if mark == MARK_ESTABLISHED:
            name, attrs = EVENT_CALL_ESTABLISHED, {"caller": call.caller, "callee": call.callee}
        elif mark == MARK_TORN_DOWN:
            name, attrs = EVENT_CALL_TORN_DOWN, {
                "claimed_by": call.teardown.claimed_by,
                "source": str(call.teardown.source),
            }
        elif mark == MARK_REDIRECTED:
            redirect = call.redirects[-1]
            name, attrs = EVENT_MEDIA_REDIRECTED, {
                "party": redirect.party,
                "old": str(redirect.old_endpoint) if redirect.old_endpoint else None,
                "new": str(redirect.new_endpoint),
                "source": str(redirect.source),
            }
        else:
            return []
        return [
            Event(
                name=name,
                time=footprint.timestamp,
                session=call.call_id,
                attrs=attrs,
                evidence=(footprint,),
            )
        ]


@dataclass(slots=True)
class _Watch:
    """One armed orphan-flow monitor."""

    call_id: str
    kind: str  # "bye" | "reinvite"
    party: str  # whose flow must stop
    endpoint: Endpoint  # the endpoint that must go silent
    armed_at: float
    expires_at: float
    fired: int = 0
    # The SIP footprint that armed the watch (the BYE / re-INVITE):
    # orphan events carry it as evidence so alert provenance reaches
    # back to the frame that started the detection window.
    armed_by: SipFootprint | None = None


class OrphanRtpGenerator(EventGenerator):
    """Cross-protocol, stateful: RTP that should have stopped but didn't.

    On a BYE claiming to come from the remote party, or a re-INVITE
    moving the remote party's media away from ``old_endpoint``, a watch is
    armed for ``monitoring_window`` seconds (the paper's ``m``).  Any RTP
    footprint from the watched endpoint while the watch is live produces
    an orphan-flow event.
    """

    name = "orphan-rtp"
    protocols = frozenset({Protocol.SIP, Protocol.RTP})

    def __init__(self, monitoring_window: float = 0.5, max_events_per_watch: int = 3) -> None:
        self.monitoring_window = monitoring_window
        self.max_events_per_watch = max_events_per_watch
        self._watches: list[_Watch] = []

    def expire_idle(self, now: float, idle_timeout: float, ctx: GeneratorContext) -> int:
        return expire_watches(self._watches, now)

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if isinstance(footprint, SipFootprint):
            if trail.__class__ is CallEntry and trail.mark:
                self._maybe_arm(footprint, trail, ctx)
            return []
        if isinstance(footprint, RtpFootprint):
            return self._check_watches(footprint)
        return []

    def media_hold(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> MediaHold | None:
        return watch_hold(self._watches, footprint.src, self.drop_closed)

    def drop_closed(self, now: float) -> None:
        """Drop the watches whose window closed before ``now`` — the
        first thing every RTP frame does here."""
        if self._watches:
            self._watches = [w for w in self._watches if w.expires_at >= now]

    # -- arming ---------------------------------------------------------------

    def _maybe_arm(
        self, footprint: SipFootprint, call: CallEntry, ctx: GeneratorContext
    ) -> None:
        # Only monitor a BYE / re-INVITE arriving at the protected
        # endpoint: when the protected user hangs up, the peer
        # legitimately keeps sending until the BYE reaches it.
        if not ctx.is_inbound(footprint):
            return
        if call.mark == MARK_TORN_DOWN:
            # BYE: watch the claimed sender's media endpoint.
            kind, party, armed_at = "bye", call.teardown.claimed_by, call.teardown.time
            endpoint = call.media.get(party)
        elif call.mark == MARK_REDIRECTED:
            # Re-INVITE: watch the party's *old* endpoint.
            redirect = call.redirects[-1]
            kind, party, armed_at = "reinvite", redirect.party, redirect.time
            endpoint = redirect.old_endpoint
        else:
            return
        if endpoint is not None:
            ctx.media_changed()
            self._watches.append(
                _Watch(
                    call_id=call.call_id,
                    kind=kind,
                    party=party,
                    endpoint=endpoint,
                    armed_at=armed_at,
                    expires_at=armed_at + self.monitoring_window,
                    armed_by=footprint,
                )
            )

    # -- checking --------------------------------------------------------------

    def _check_watches(self, footprint: RtpFootprint) -> list[Event]:
        if not self._watches:
            return []
        now = footprint.timestamp
        self.drop_closed(now)
        events: list[Event] = []
        for watch in self._watches:
            if watch.fired >= self.max_events_per_watch:
                continue
            if footprint.src == watch.endpoint and now >= watch.armed_at:
                watch.fired += 1
                name = (
                    EVENT_ORPHAN_RTP_AFTER_BYE
                    if watch.kind == "bye"
                    else EVENT_ORPHAN_RTP_AFTER_REINVITE
                )
                events.append(
                    Event(
                        name=name,
                        time=now,
                        session=watch.call_id,
                        attrs={
                            "party": watch.party,
                            "endpoint": str(watch.endpoint),
                            "delay": now - watch.armed_at,
                        },
                        # The triggering orphan footprint leads (response
                        # policies read the observed source from the first
                        # evidence entry); the arming BYE/re-INVITE rides
                        # along so provenance anchors detection delay at
                        # the teardown frame.
                        evidence=(
                            (footprint, watch.armed_by)
                            if watch.armed_by is not None
                            else (footprint,)
                        ),
                    )
                )
        return events


# What a source absent from a flow's verdict memo reads as.
_UNSEEN = object()


class _FlowHold:
    """The media fast path's view of one flow: an in-order packet within
    the threshold raises nothing and only advances the anchor — while the
    call gating the rogue-source check (if any) keeps the phase it had."""

    __slots__ = ("flow", "threshold", "call", "phase")

    def __init__(
        self, flow: MediaEntry, threshold: int, call: CallEntry | None
    ) -> None:
        self.flow = flow
        self.threshold = threshold
        self.call = call
        self.phase = call.phase if call is not None else None

    def admits(self, sequence: int, now: float) -> bool:
        call = self.call
        return (call is None or call.phase is self.phase) and (
            0 < seq_delta(sequence, self.flow.last_seq) <= self.threshold
        )

    def advance(self, sequence: int, now: float) -> None:
        self.flow.advance(sequence, now)


class RtpStreamGenerator(EventGenerator):
    """Per-destination-flow RTP sanity: sequence jumps, rogue sources, jitter.

    The paper's rule: "if we see two consecutive packets whose sequence
    numbers have a difference greater than 100, the IDS will signal an
    alarm.  The number 100 is empirically observed to be the bound for
    normal traffic."  The check is per destination media port (matching
    the paper's per-victim view), not per SSRC — garbage packets carry
    random SSRCs precisely to evade per-SSRC tracking.
    """

    name = "rtp-stream"
    protocols = frozenset({Protocol.RTP})

    def __init__(self, seq_jump_threshold: int = 100, jitter_reorder_threshold: int = 2) -> None:
        self.seq_jump_threshold = seq_jump_threshold
        self.jitter_reorder_threshold = jitter_reorder_threshold

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if isinstance(footprint, MalformedFootprint) and footprint.claimed_protocol == Protocol.RTP:
            if ctx.is_inbound(footprint):
                # ``src`` stays an Endpoint: it hashes as a rule group key
                # and renders identically via str() at alert-format time,
                # without paying string formatting per flood packet.
                return [
                    Event(
                        name=EVENT_MALFORMED_RTP,
                        time=footprint.timestamp,
                        session=trail.call_id or "",
                        attrs={"src": footprint.src, "reason": footprint.reason},
                        evidence=(footprint,),
                    )
                ]
            return []
        if not isinstance(footprint, RtpFootprint) or not ctx.is_inbound(footprint):
            return []
        events: list[Event] = []
        dst = footprint.dst
        # The flow is the destination's media entry (repro.core.trail).
        flow = ctx.trails.media.entry((dst.ip.packed, dst.port))
        session = trail.call_id or flow.linked or ""
        # -- rogue source check (cross-protocol via SDP state) -------------
        call = flow.role
        if call is not None and call.phase != CallPhase.SETUP and call.media:
            # Media negotiated (call established or already torn down):
            # any source outside the negotiated set is rogue — including
            # strays arriving at a dead session's port.  The verdict for
            # a given source only changes with the entry's role or that
            # call's media, which drop the entry's memo, so it is
            # memoized per entry instead of rescanning call.media per
            # packet.
            src = footprint.src
            src_key = (src.ip.packed, src.port)
            verdicts = flow.verdicts
            if verdicts is None:
                verdicts = flow.verdicts = {}
            attrs = verdicts.get(src_key, _UNSEEN)
            if attrs is _UNSEEN:
                # A tuple, not a set: the negotiated party count is tiny
                # (2), so linear membership beats building a set.
                legitimate = tuple(call.media.values())
                if src not in legitimate:
                    attrs = {
                        "src": src,
                        "expected": tuple(e for e in legitimate if e != dst),
                    }
                else:
                    attrs = None
                if len(verdicts) >= 64:
                    # A spoofer cycling source ports must not grow this
                    # per-flow memo unboundedly.
                    verdicts.clear()
                    ctx.media_changed()
                verdicts[src_key] = attrs
            if attrs is not None:
                events.append(
                    Event(
                        name=EVENT_RTP_SOURCE_MISMATCH,
                        time=footprint.timestamp,
                        session=call.call_id,
                        attrs=attrs,
                        evidence=(footprint,),
                    )
                )
        elif call is None and session:
            # No strictly-parsed call covers this flow; fall back to the
            # trail-level SDP knowledge.  Flows toward a known media
            # endpoint whose source was never negotiated (e.g. the
            # billing-fraud caller, whose INVITE the strict parser
            # rejected) are rogue.
            linked = ctx.trails.calls.get(session)
            if linked is not None and linked.media_endpoints:
                legitimate = tuple(linked.media_endpoints.values())
                if footprint.src not in legitimate:
                    events.append(
                        Event(
                            name=EVENT_RTP_SOURCE_MISMATCH,
                            time=footprint.timestamp,
                            session=session,
                            attrs={
                                "src": footprint.src,
                                "expected": tuple(
                                    e for e in legitimate if e != dst
                                ),
                            },
                            evidence=(footprint,),
                        )
                    )
        # -- sequence continuity ---------------------------------------------
        # Only forward motion within the threshold advances the expected
        # sequence; a single wild packet must not re-anchor the stream
        # (else the *return* of legitimate traffic would alarm a second
        # time).
        if flow.last_seq is None:
            flow.last_seq = footprint.sequence
            flow.last_time = footprint.timestamp
            return events
        delta = seq_delta(footprint.sequence, flow.last_seq)
        if 0 < delta <= self.seq_jump_threshold:
            flow.advance(footprint.sequence, footprint.timestamp)
            return events
        if abs(delta) > self.seq_jump_threshold:
            events.append(
                Event(
                    name=EVENT_RTP_SEQ_ANOMALY,
                    time=footprint.timestamp,
                    session=session,
                    attrs={
                        "delta": delta,
                        "src": footprint.src,
                        "dst": footprint.dst,
                        "seq": footprint.sequence,
                    },
                    evidence=(footprint,),
                )
            )
            flow.reorder_streak = 0
        elif delta < 0:
            # The paper's §3.1 example: two out-of-order RTP
            # footprints map to an RtpJitter event.
            flow.reorder_streak += 1
            if flow.reorder_streak >= self.jitter_reorder_threshold:
                events.append(
                    Event(
                        name=EVENT_RTP_JITTER,
                        time=footprint.timestamp,
                        session=session,
                        attrs={"dst": str(footprint.dst), "streak": flow.reorder_streak},
                        evidence=(footprint,),
                    )
                )
                flow.reorder_streak = 0
        else:
            flow.reorder_streak = 0
        flow.last_time = footprint.timestamp
        return events

    def media_hold(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> MediaHold | None:
        # Asked after an eventless footprint of the flow, possibly some
        # frames later.  The rogue-source verdict for its source must be
        # settled: memoized clean when a negotiated call gates the flow,
        # else unchanged since that footprint (what it reads moves only
        # with a media-table write, which empties the fast path) — until
        # the gating call changes phase, which the hold checks.  What is
        # left is the sequence anchor.
        if not ctx.is_inbound(footprint):
            return None
        dst = footprint.dst
        flow = ctx.trails.media.get((dst.ip.packed, dst.port))
        if flow is None or flow.last_seq is None:
            return None
        call = flow.role
        if call is not None and call.phase != CallPhase.SETUP and call.media:
            src = footprint.src
            if (flow.verdicts or {}).get((src.ip.packed, src.port), _UNSEEN) is not None:
                return None
        return _FlowHold(flow, self.seq_jump_threshold, call)


@dataclass(slots=True)
class _ImSender:
    last_ip: str
    last_seen: float


class ImSourceGenerator(EventGenerator):
    """Fake-IM detection state: source IP consistency per sender AoR.

    "Within a period, messages from B should bear the same source IP
    address ... The rule takes rate of user mobility into account and
    allows for changes in the IP address according to the maximum rate
    of user motion."  ``mobility_window`` encodes that rate: an IP
    change observed *sooner* than the window is suspicious.
    """

    name = "im-source"
    protocols = frozenset({Protocol.SIP})

    def __init__(self, mobility_window: float = 60.0, reregistration_window: float = 120.0) -> None:
        self.mobility_window = mobility_window
        # A source-IP change is legitimate when the registrar was told
        # about the move — "indicated by ... an update of state at the
        # SIP Registrar" (§3.2).  This window bounds how long a
        # re-registration keeps legitimising the new address.
        self.reregistration_window = reregistration_window
        self._senders: dict[str, _ImSender] = {}

    def expire_idle(self, now: float, idle_timeout: float, ctx: GeneratorContext) -> int:
        return expire_entries(self._senders, "last_seen", now, idle_timeout)

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if not isinstance(footprint, SipFootprint) or not footprint.is_request:
            return []
        if footprint.method != METHOD_MESSAGE:
            return []
        message = footprint.message
        try:
            sender = message.from_addr.uri.address_of_record
        except Exception:
            return []
        events: list[Event] = []
        now = footprint.timestamp
        src_ip = str(footprint.src.ip)
        # Body digest lets cooperating detectors match the *same* message
        # across vantage points (see repro.core.correlation).
        digest = hashlib.md5(message.body).hexdigest()
        if ctx.is_outbound(footprint):
            events.append(
                Event(
                    name=EVENT_IM_SENT,
                    time=now,
                    session=footprint.call_id() or "",
                    attrs={"from": sender, "src": src_ip, "digest": digest},
                    evidence=(footprint,),
                )
            )
            return events
        if not ctx.is_inbound(footprint):
            return []
        events.append(
            Event(
                name=EVENT_IM_RECEIVED,
                time=now,
                session=footprint.call_id() or "",
                attrs={"from": sender, "src": src_ip, "digest": digest},
                evidence=(footprint,),
            )
        )
        known = self._senders.get(sender)
        if known is not None and known.last_ip != src_ip:
            user = sender.partition("@")[0]
            if ctx.sip_state.recent_registration_from(
                user, src_ip, now, self.reregistration_window
            ):
                # The registrar knows about the move: legitimate mobility.
                self._senders[sender] = _ImSender(last_ip=src_ip, last_seen=now)
                return events
            if now - known.last_seen < self.mobility_window:
                events.append(
                    Event(
                        name=EVENT_IM_SOURCE_MISMATCH,
                        time=now,
                        session=footprint.call_id() or "",
                        attrs={
                            "from": sender,
                            "expected_ip": known.last_ip,
                            "actual_ip": src_ip,
                            "gap": now - known.last_seen,
                        },
                        evidence=(footprint,),
                    )
                )
                # Keep trusting the established IP: one forged message
                # must not re-anchor the sender's identity.
                return events
        self._senders[sender] = _ImSender(last_ip=src_ip, last_seen=now)
        return events


class AuthEventGenerator(EventGenerator):
    """Registration-auth events from the transition the state stage marks
    on the registration's record: one event per unauthenticated retry
    after a challenge, one per rejected digest response."""

    name = "auth"
    protocols = frozenset({Protocol.SIP})

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if trail.__class__ is not CallEntry or not trail.mark:
            return []
        mark = trail.mark
        if mark == MARK_UNAUTH_RETRY:
            name, session = EVENT_REPEATED_UNAUTH_REGISTER, trail.registration
            attrs = {"user": session.user, "source": str(session.source)}
        elif mark == MARK_AUTH_FAILED:
            name, session = EVENT_AUTH_FAILURE, trail.registration
            attrs = {
                "user": session.user,
                "source": str(session.source),
                "response": session.failed_responses[-1],
                "distinct_responses": len(set(session.failed_responses)),
            }
        else:
            return []
        return [
            Event(
                name=name,
                time=footprint.timestamp,
                session=trail.call_id,
                attrs=attrs,
                evidence=(footprint,),
            )
        ]


class MalformedSipGenerator(EventGenerator):
    """Billing-fraud condition 1: incorrectly formatted SIP messages."""

    name = "malformed-sip"
    protocols = frozenset({Protocol.SIP})

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if (
            isinstance(footprint, MalformedFootprint)
            and footprint.claimed_protocol == Protocol.SIP
        ):
            return [
                Event(
                    name=EVENT_MALFORMED_SIP,
                    time=footprint.timestamp,
                    session="",
                    attrs={"src": str(footprint.src), "reason": footprint.reason},
                    evidence=(footprint,),
                )
            ]
        return []


class AccountingGenerator(EventGenerator):
    """Billing-fraud condition 2: TXNs must match observed call setups.

    "When the accounting software sends out a transaction to denote a
    call from user A to user B, check if user A has sent a SIP Call
    Initialization message to user B."  The state stage records each
    INVITE's (From, To) pair on its call's record; a TXN is checked
    against the record of the Call-ID it bills.
    """

    name = "accounting"
    protocols = frozenset({Protocol.ACCOUNTING})

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if not isinstance(footprint, AccountingFootprint):
            return []
        events = [
            Event(
                name=EVENT_ACCOUNTING_TXN,
                time=footprint.timestamp,
                session=footprint.call_id,
                attrs={
                    "from": footprint.from_aor,
                    "to": footprint.to_aor,
                    "action": footprint.action,
                },
                evidence=(footprint,),
            )
        ]
        if footprint.action == "start":
            call = ctx.trails.calls.get(footprint.call_id)
            if call is None or not call.invited(footprint.from_aor, footprint.to_aor):
                events.append(
                    Event(
                        name=EVENT_ACCOUNTING_MISMATCH,
                        time=footprint.timestamp,
                        session=footprint.call_id,
                        attrs={
                            "billed_from": footprint.from_aor,
                            "billed_to": footprint.to_aor,
                            "reason": "no matching SIP call initialization",
                        },
                        evidence=(footprint,),
                    )
                )
        return events


def default_generators(
    monitoring_window: float = 0.5,
    seq_jump_threshold: int = 100,
    mobility_window: float = 60.0,
) -> list[EventGenerator]:
    """The standard generator set: every default protocol module's
    generators, flattened in module order."""
    from repro.core.protocols import default_modules, generators_from

    return generators_from(
        default_modules(
            monitoring_window=monitoring_window,
            seq_jump_threshold=seq_jump_threshold,
            mobility_window=mobility_window,
        )
    )
