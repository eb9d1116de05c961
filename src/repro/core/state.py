"""Passive protocol state tracking — the "stateful" in stateful detection.

The IDS never participates in the protocols; it reconstructs session
state purely from observed footprints (paper §3.3: "the history of all
the state transitions of each session can be easily tracked").  Two
trackers:

* :class:`SipStateTracker` — per-call dialog state: who called whom,
  which media endpoints were negotiated (SDP), whether the call is
  established, who tore it down and when, and any media redirection via
  re-INVITE.  This is the state the orphan-RTP rules (BYE attack, Call
  Hijack) match against.
* :class:`RegistrationTracker` — per registration-session auth progress:
  challenges issued, unauthenticated retries after a challenge, and
  failed digest attempts with their (distinct) response values.  This is
  the state behind the REGISTER-DoS and password-guessing events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.footprint import SipFootprint
from repro.net.addr import Endpoint
from repro.sip.auth import AuthError, DigestCredentials
from repro.sip.constants import (
    METHOD_ACK,
    METHOD_BYE,
    METHOD_INVITE,
    METHOD_REGISTER,
    STATUS_OK,
    STATUS_UNAUTHORIZED,
)
from repro.sip.message import SipRequest, SipResponse


class CallPhase(enum.Enum):
    SETUP = "setup"  # INVITE seen, no 200 yet
    ESTABLISHED = "established"
    TORN_DOWN = "torn_down"


@dataclass(slots=True)
class MediaRedirect:
    """One observed re-INVITE that moved a party's media endpoint."""

    time: float
    party: str  # AoR whose media moved (the re-INVITE's From)
    old_endpoint: Endpoint | None
    new_endpoint: Endpoint
    source: Endpoint  # where the re-INVITE packet actually came from


@dataclass(slots=True)
class Teardown:
    """One observed BYE."""

    time: float
    claimed_by: str  # From AoR of the BYE
    source: Endpoint  # actual packet origin


@dataclass(slots=True)
class ObservedCall:
    """The IDS's reconstruction of one call's state."""

    call_id: str
    caller: str = ""
    callee: str = ""
    phase: CallPhase = CallPhase.SETUP
    invite_seen_at: float | None = None
    established_at: float | None = None
    media: dict[str, Endpoint] = field(default_factory=dict)  # AoR -> endpoint
    teardown: Teardown | None = None
    redirects: list[MediaRedirect] = field(default_factory=list)

    def party_for_media_source(self, src: Endpoint) -> str | None:
        for aor, endpoint in self.media.items():
            if endpoint == src:
                return aor
        return None

    @property
    def parties(self) -> tuple[str, str]:
        return (self.caller, self.callee)


class SipStateTracker:
    """Reconstructs call state from SIP footprints."""

    def __init__(self) -> None:
        self.calls: dict[str, ObservedCall] = {}
        # Reverse index media endpoint -> call, consulted by the RTP
        # generator once per media packet.  Invariant: it is either None
        # (stale; rebuilt on the next call_for_media()) or exactly what
        # that rebuild would produce — each endpoint maps to the
        # earliest-observed call holding it.  A call gaining an endpoint
        # nobody else holds is added in place (_media_changed); anything
        # that removes an entry or contests one sets it to None.  Every
        # media change also bumps media_version, which lets downstream
        # per-flow caches detect that negotiated-media state changed
        # without rescanning it.
        self._media_calls: dict[tuple[int, int], ObservedCall] | None = {}
        self.media_version = 0

    def observe(self, footprint: SipFootprint) -> None:
        message = footprint.message
        call_id = footprint.call_id()
        if call_id is None:
            return
        if isinstance(message, SipRequest):
            self._observe_request(footprint, message, call_id)
        else:
            self._observe_response(footprint, message, call_id)

    # -- requests -----------------------------------------------------------

    def _observe_request(
        self, footprint: SipFootprint, message: SipRequest, call_id: str
    ) -> None:
        if message.method == METHOD_INVITE:
            self._observe_invite(footprint, message, call_id)
        elif message.method == METHOD_BYE:
            call = self.calls.get(call_id)
            if call is None:
                return
            try:
                claimed = message.from_addr.uri.address_of_record
            except Exception:
                claimed = ""
            call.phase = CallPhase.TORN_DOWN
            call.teardown = Teardown(
                time=footprint.timestamp, claimed_by=claimed, source=footprint.src
            )
        elif message.method == METHOD_ACK:
            call = self.calls.get(call_id)
            if call is not None and call.phase == CallPhase.SETUP:
                call.phase = CallPhase.ESTABLISHED
                call.established_at = footprint.timestamp

    def _observe_invite(
        self, footprint: SipFootprint, message: SipRequest, call_id: str
    ) -> None:
        try:
            from_aor = message.from_addr.uri.address_of_record
            to_tag = message.to_addr.tag
            to_aor = message.to_addr.uri.address_of_record
        except Exception:
            return
        call = self.calls.get(call_id)
        if call is None:
            call = ObservedCall(call_id=call_id, caller=from_aor, callee=to_aor)
            call.invite_seen_at = footprint.timestamp
            self.calls[call_id] = call
            endpoint = message.sdp_audio_endpoint()
            if endpoint is not None:
                call.media[from_aor] = endpoint
                self._media_changed(call, None, endpoint)
            return
        if to_tag is not None and call.phase == CallPhase.ESTABLISHED:
            # A re-INVITE inside the dialog: a media move (or a hijack).
            endpoint = message.sdp_audio_endpoint()
            if endpoint is not None:
                old = call.media.get(from_aor)
                if old != endpoint:
                    call.redirects.append(
                        MediaRedirect(
                            time=footprint.timestamp,
                            party=from_aor,
                            old_endpoint=old,
                            new_endpoint=endpoint,
                            source=footprint.src,
                        )
                    )
                    call.media[from_aor] = endpoint
                    self._media_changed(call, old, endpoint)

    # -- responses ------------------------------------------------------------

    def _observe_response(
        self, footprint: SipFootprint, message: SipResponse, call_id: str
    ) -> None:
        try:
            method = message.cseq.method
        except Exception:
            return
        if method != METHOD_INVITE or message.status != STATUS_OK:
            return
        call = self.calls.get(call_id)
        if call is None:
            return
        try:
            answerer = message.to_addr.uri.address_of_record
        except Exception:
            answerer = call.callee
        endpoint = message.sdp_audio_endpoint()
        if endpoint is not None:
            old = call.media.get(answerer)
            call.media[answerer] = endpoint
            self._media_changed(call, old, endpoint)
        if call.phase == CallPhase.SETUP:
            call.phase = CallPhase.ESTABLISHED
            call.established_at = footprint.timestamp

    # -- queries -----------------------------------------------------------------

    @property
    def call_count(self) -> int:
        """Tracked dialogs (the BYE/hijack rules' working-set size)."""
        return len(self.calls)

    def call_for_media(self, endpoint: Endpoint) -> ObservedCall | None:
        """Find the call that negotiated ``endpoint`` for either party.

        When two calls negotiated the same endpoint (port reuse), the
        earliest-observed call wins — the same answer the previous
        linear scan over ``calls`` gave.
        """
        index = self._media_calls
        if index is None:
            index = self._media_calls = self._rebuild_media_calls()
        return index.get((endpoint.ip.packed, endpoint.port))

    def _rebuild_media_calls(self) -> dict[tuple[int, int], ObservedCall]:
        index: dict[tuple[int, int], ObservedCall] = {}
        for call in self.calls.values():
            for media in call.media.values():
                index.setdefault((media.ip.packed, media.port), call)
        return index

    def _media_changed(
        self, call: ObservedCall, old: Endpoint | None, new: Endpoint
    ) -> None:
        """``call`` now advertises ``new`` where it advertised ``old``."""
        self.media_version += 1
        index = self._media_calls
        if index is None or old == new:
            return
        key = (new.ip.packed, new.port)
        if old is not None or index.setdefault(key, call) is not call:
            # An entry went away, or two calls hold one endpoint: only the
            # rebuild knows which call was observed first.
            self._media_calls = None

    def established_calls(self) -> list[ObservedCall]:
        return [c for c in self.calls.values() if c.phase == CallPhase.ESTABLISHED]

    def expire_torn_down(self, now: float, linger: float) -> int:
        """Forget calls torn down more than ``linger`` seconds ago."""
        stale = [
            cid
            for cid, call in self.calls.items()
            if call.teardown is not None and now - call.teardown.time > linger
        ]
        for call_id in stale:
            self.calls.pop(call_id, None)
        if stale:
            self._media_calls = None
            self.media_version += 1
        return len(stale)


# ---------------------------------------------------------------------------
# Registration tracking
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RegistrationSession:
    """Auth progress of one REGISTER session (one Call-ID)."""

    call_id: str
    user: str
    source: Endpoint
    challenged: bool = False
    succeeded: bool = False
    succeeded_at: float | None = None
    registered_contact_ip: str | None = None
    unauth_after_challenge: int = 0
    failed_responses: list[str] = field(default_factory=list)  # digest values
    last_had_credentials: bool = False
    last_response_value: str | None = None


class RegistrationTracker:
    """Tracks every observed REGISTER session."""

    def __init__(self) -> None:
        self.sessions: dict[str, RegistrationSession] = {}

    def observe(self, footprint: SipFootprint) -> RegistrationSession | None:
        """Feed one footprint; returns the touched session, if any."""
        message = footprint.message
        call_id = footprint.call_id()
        if call_id is None:
            return None
        if isinstance(message, SipRequest):
            if message.method != METHOD_REGISTER:
                return None
            return self._observe_register(footprint, message, call_id)
        try:
            if message.cseq.method != METHOD_REGISTER:
                return None
        except Exception:
            return None
        return self._observe_response(message, call_id, footprint.timestamp)

    def _observe_register(
        self, footprint: SipFootprint, message: SipRequest, call_id: str
    ) -> RegistrationSession | None:
        try:
            user = message.to_addr.uri.user
        except Exception:
            return None
        session = self.sessions.get(call_id)
        if session is None:
            session = RegistrationSession(call_id=call_id, user=user, source=footprint.src)
            self.sessions[call_id] = session
        contact = message.contact
        if contact is not None:
            session.registered_contact_ip = contact.uri.host
        header = message.headers.get("Authorization")
        session.last_had_credentials = header is not None
        session.last_response_value = None
        if header is not None:
            try:
                session.last_response_value = DigestCredentials.parse(header).response
            except AuthError:
                session.last_response_value = None
        elif session.challenged:
            session.unauth_after_challenge += 1
        return session

    def _observe_response(
        self, message: SipResponse, call_id: str, timestamp: float
    ) -> RegistrationSession | None:
        session = self.sessions.get(call_id)
        if session is None:
            return None
        if message.status == STATUS_UNAUTHORIZED:
            if session.last_had_credentials and session.last_response_value is not None:
                session.failed_responses.append(session.last_response_value)
            session.challenged = True
        elif message.status == STATUS_OK:
            session.succeeded = True
            session.succeeded_at = timestamp
        return session

    def recent_registration_from(self, user: str, ip: str, now: float, window: float) -> bool:
        """Did ``user`` successfully (re-)register from ``ip`` within
        ``window`` seconds before ``now``?  The mobility legitimiser the
        paper sketches: an IM source change is fine when the registrar
        has been told about the move."""
        for session in self.sessions.values():
            if (
                session.user == user
                and session.succeeded
                and session.succeeded_at is not None
                and 0.0 <= now - session.succeeded_at <= window
                and (
                    str(session.source.ip) == ip
                    or session.registered_contact_ip == ip
                )
            ):
                return True
        return False

    @property
    def session_count(self) -> int:
        """Tracked REGISTER sessions (the DoS/guessing working-set size)."""
        return len(self.sessions)

    def sessions_for_user(self, user: str) -> list[RegistrationSession]:
        return [s for s in self.sessions.values() if s.user == user]

    def expire_succeeded(self, now: float, linger: float) -> int:
        """Forget completed registration sessions older than ``linger``.

        Successful sessions stay around for the mobility legitimiser's
        window; failed/ongoing ones stay for the DoS/guessing counters
        (which are window-bounded anyway at the rule level).
        """
        stale = [
            cid
            for cid, session in self.sessions.items()
            if session.succeeded
            and session.succeeded_at is not None
            and now - session.succeeded_at > linger
        ]
        for call_id in stale:
            del self.sessions[call_id]
        return len(stale)
