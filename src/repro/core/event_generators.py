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

from dataclasses import dataclass, field

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
)
from repro.core.footprint import (
    AccountingFootprint,
    AnyFootprint,
    MalformedFootprint,
    Protocol,
    RtpFootprint,
    SipFootprint,
)
from repro.core.state import CallPhase
from repro.core.trail import Trail
from repro.net.addr import Endpoint
from repro.rtp.packet import seq_delta
from repro.sip.constants import METHOD_INVITE, METHOD_MESSAGE


class DialogEventGenerator(EventGenerator):
    """Call lifecycle events from the shared SIP state tracker."""

    name = "dialog"
    protocols = frozenset({Protocol.SIP})

    def __init__(self) -> None:
        self._established_emitted: set[str] = set()
        self._torn_down_emitted: set[str] = set()
        self._redirects_emitted: dict[str, int] = {}

    def reset(self) -> None:
        self._established_emitted.clear()
        self._torn_down_emitted.clear()
        self._redirects_emitted.clear()

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if not isinstance(footprint, SipFootprint):
            return []
        call_id = footprint.call_id()
        if call_id is None:
            return []
        call = ctx.sip_state.calls.get(call_id)
        if call is None:
            return []
        events: list[Event] = []
        if call.phase == CallPhase.ESTABLISHED and call_id not in self._established_emitted:
            self._established_emitted.add(call_id)
            events.append(
                Event(
                    name=EVENT_CALL_ESTABLISHED,
                    time=footprint.timestamp,
                    session=call_id,
                    attrs={"caller": call.caller, "callee": call.callee},
                    evidence=(footprint,),
                )
            )
        if call.teardown is not None and call_id not in self._torn_down_emitted:
            self._torn_down_emitted.add(call_id)
            events.append(
                Event(
                    name=EVENT_CALL_TORN_DOWN,
                    time=footprint.timestamp,
                    session=call_id,
                    attrs={
                        "claimed_by": call.teardown.claimed_by,
                        "source": str(call.teardown.source),
                    },
                    evidence=(footprint,),
                )
            )
        seen = self._redirects_emitted.get(call_id, 0)
        if len(call.redirects) > seen:
            for redirect in call.redirects[seen:]:
                events.append(
                    Event(
                        name=EVENT_MEDIA_REDIRECTED,
                        time=footprint.timestamp,
                        session=call_id,
                        attrs={
                            "party": redirect.party,
                            "old": str(redirect.old_endpoint) if redirect.old_endpoint else None,
                            "new": str(redirect.new_endpoint),
                            "source": str(redirect.source),
                        },
                        evidence=(footprint,),
                    )
                )
            self._redirects_emitted[call_id] = len(call.redirects)
        return events


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
        self._handled_teardowns: set[str] = set()
        self._handled_redirects: dict[str, int] = {}

    def reset(self) -> None:
        self._watches.clear()
        self._handled_teardowns.clear()
        self._handled_redirects.clear()

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if isinstance(footprint, SipFootprint):
            self._maybe_arm(footprint, ctx)
            return []
        if isinstance(footprint, RtpFootprint):
            return self._check_watches(footprint)
        return []

    # -- arming ---------------------------------------------------------------

    def _maybe_arm(self, footprint: SipFootprint, ctx: GeneratorContext) -> None:
        call_id = footprint.call_id()
        if call_id is None:
            return
        call = ctx.sip_state.calls.get(call_id)
        if call is None:
            return
        # BYE: watch the claimed sender's media endpoint.
        if call.teardown is not None and call_id not in self._handled_teardowns:
            self._handled_teardowns.add(call_id)
            teardown = call.teardown
            # Only monitor when the BYE claims to come from the *remote*
            # party (an inbound teardown at the protected endpoint); when
            # the protected user hangs up, the peer legitimately keeps
            # sending until the BYE reaches it.
            inbound = ctx.is_inbound(footprint)
            endpoint = call.media.get(teardown.claimed_by)
            if inbound and endpoint is not None:
                self._watches.append(
                    _Watch(
                        call_id=call_id,
                        kind="bye",
                        party=teardown.claimed_by,
                        endpoint=endpoint,
                        armed_at=teardown.time,
                        expires_at=teardown.time + self.monitoring_window,
                        armed_by=footprint,
                    )
                )
        # Re-INVITE: watch the party's *old* endpoint.
        seen = self._handled_redirects.get(call_id, 0)
        if len(call.redirects) > seen:
            for redirect in call.redirects[seen:]:
                inbound = ctx.is_inbound(footprint)
                if inbound and redirect.old_endpoint is not None:
                    self._watches.append(
                        _Watch(
                            call_id=call_id,
                            kind="reinvite",
                            party=redirect.party,
                            endpoint=redirect.old_endpoint,
                            armed_at=redirect.time,
                            expires_at=redirect.time + self.monitoring_window,
                            armed_by=footprint,
                        )
                    )
            self._handled_redirects[call_id] = len(call.redirects)

    # -- checking --------------------------------------------------------------

    def _check_watches(self, footprint: RtpFootprint) -> list[Event]:
        if not self._watches:
            return []
        now = footprint.timestamp
        self._watches = [w for w in self._watches if w.expires_at >= now]
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

    @property
    def active_watches(self) -> int:
        return len(self._watches)


@dataclass(slots=True)
class _FlowState:
    last_seq: int | None = None
    last_time: float = 0.0
    reorder_streak: int = 0
    # Rogue-source verdicts memoized per source endpoint:
    # (src packed ip, src port) -> (media_version, attrs-or-None).
    # attrs None = source was negotiated; a dict = the mismatch event
    # attrs to re-emit.  Entries are only trusted while the tracker's
    # media_version is unchanged, so any SDP/phase-driven media change
    # invalidates every cached verdict at the cost of one int compare.
    rogue_verdicts: dict[tuple[int, int], tuple[int, dict | None]] = field(
        default_factory=dict
    )


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
        # Keyed by destination as (packed ip, port): int tuples hash in C.
        self._flows: dict[tuple[int, int], _FlowState] = {}

    def reset(self) -> None:
        self._flows.clear()

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
        session = trail.call_id or ctx.trails.media_owner(dst) or ""
        flow = self._flows.get((dst.ip.packed, dst.port))
        if flow is None:
            flow = _FlowState()
            self._flows[(dst.ip.packed, dst.port)] = flow
        # -- rogue source check (cross-protocol via SDP state) -------------
        call = ctx.sip_state.call_for_media(dst)
        if call is not None and call.phase != CallPhase.SETUP and call.media:
            # Media negotiated (call established or already torn down):
            # any source outside the negotiated set is rogue — including
            # strays arriving at a dead session's port.  The verdict for
            # a given source only changes when negotiated media does, so
            # it is memoized against the tracker's media_version instead
            # of rescanning call.media per packet.
            src = footprint.src
            src_key = (src.ip.packed, src.port)
            version = ctx.sip_state.media_version
            cached = flow.rogue_verdicts.get(src_key)
            if cached is not None and cached[0] == version:
                attrs = cached[1]
            else:
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
                if len(flow.rogue_verdicts) >= 64:
                    # A spoofer cycling source ports must not grow this
                    # per-flow memo unboundedly.
                    flow.rogue_verdicts.clear()
                flow.rogue_verdicts[src_key] = (version, attrs)
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
            linked = ctx.trails.sessions.get(session)
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
        if flow.last_seq is not None:
            delta = seq_delta(footprint.sequence, flow.last_seq)
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
        # Only advance the expected sequence for forward motion; a single
        # wild packet must not re-anchor the stream (else the *return* of
        # legitimate traffic would alarm a second time).
        if flow.last_seq is None or 0 < seq_delta(footprint.sequence, flow.last_seq) <= self.seq_jump_threshold:
            flow.last_seq = footprint.sequence
        flow.last_time = footprint.timestamp
        return events


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

    def reset(self) -> None:
        self._senders.clear()

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
            if ctx.registrations.recent_registration_from(
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
    """Registration-auth events from the shared registration tracker."""

    name = "auth"
    protocols = frozenset({Protocol.SIP})

    def __init__(self) -> None:
        self._unauth_counts: dict[str, int] = {}  # session -> emitted count
        self._failure_counts: dict[str, int] = {}

    def reset(self) -> None:
        self._unauth_counts.clear()
        self._failure_counts.clear()

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if not isinstance(footprint, SipFootprint):
            return []
        call_id = footprint.call_id()
        if call_id is None:
            return []
        session = ctx.registrations.sessions.get(call_id)
        if session is None:
            return []
        events: list[Event] = []
        emitted = self._unauth_counts.get(call_id, 0)
        if session.unauth_after_challenge > emitted:
            for __ in range(session.unauth_after_challenge - emitted):
                events.append(
                    Event(
                        name=EVENT_REPEATED_UNAUTH_REGISTER,
                        time=footprint.timestamp,
                        session=call_id,
                        attrs={"user": session.user, "source": str(session.source)},
                        evidence=(footprint,),
                    )
                )
            self._unauth_counts[call_id] = session.unauth_after_challenge
        emitted = self._failure_counts.get(call_id, 0)
        if len(session.failed_responses) > emitted:
            for response_value in session.failed_responses[emitted:]:
                events.append(
                    Event(
                        name=EVENT_AUTH_FAILURE,
                        time=footprint.timestamp,
                        session=call_id,
                        attrs={
                            "user": session.user,
                            "source": str(session.source),
                            "response": response_value,
                            "distinct_responses": len(set(session.failed_responses)),
                        },
                        evidence=(footprint,),
                    )
                )
            self._failure_counts[call_id] = len(session.failed_responses)
        return events


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
    Initialization message to user B."
    """

    name = "accounting"
    protocols = frozenset({Protocol.SIP, Protocol.ACCOUNTING})

    def __init__(self) -> None:
        self._invites_seen: set[tuple[str, str, str]] = set()  # (call_id, from, to)

    def reset(self) -> None:
        self._invites_seen.clear()

    def on_footprint(
        self, footprint: AnyFootprint, trail: Trail, ctx: GeneratorContext
    ) -> list[Event]:
        if isinstance(footprint, SipFootprint) and footprint.is_request:
            if footprint.method == METHOD_INVITE:
                message = footprint.message
                try:
                    key = (
                        footprint.call_id() or "",
                        message.from_addr.uri.address_of_record,
                        message.to_addr.uri.address_of_record,
                    )
                    self._invites_seen.add(key)
                except Exception:
                    pass
            return []
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
        key = (footprint.call_id, footprint.from_aor, footprint.to_aor)
        if footprint.action == "start" and key not in self._invites_seen:
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
