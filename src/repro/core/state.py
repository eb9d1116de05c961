"""Passive protocol state tracking — the "stateful" in stateful detection.

The IDS never participates in the protocols; it reconstructs session
state purely from observed footprints (paper §3.3: "the history of all
the state transitions of each session can be easily tracked").

* :class:`CallEntry` — the one record the engine keeps per Call-ID, in
  :attr:`repro.core.trail.TrailManager.calls`.  It is the call's SIP
  trail (an index entry, §3.1), holds the call's other linked trails,
  and carries its dialog role: who called whom, which media endpoints
  were negotiated (SDP), whether the call is established, who tore it
  down and when, any media redirection via re-INVITE, and every
  (From, To) pair its INVITEs named.  One record, one lifetime: it
  lives while anything filed under it is live.
* :class:`SipStateTracker` — writes the role from SIP footprints.  This
  is the state the orphan-RTP rules (BYE attack, Call Hijack) and the
  billing check match against.
* :class:`RegistrationTracker` — per registration-session auth progress:
  challenges issued, unauthenticated retries after a challenge, and
  failed digest attempts with their (distinct) response values.  This is
  the state behind the REGISTER-DoS and password-guessing events.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, ClassVar

from repro.core.footprint import Protocol, SipFootprint
from repro.fastpickle import install_fast_pickle
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.trail import Trail


# What a never-written per-call container reads as: read-only, so a
# stray write fails instead of landing in every call at once.
NO_MEDIA: Mapping[str, Endpoint] = MappingProxyType({})


class CallPhase(enum.Enum):
    SETUP = "setup"  # INVITE seen, no 200 yet
    ESTABLISHED = "established"
    TORN_DOWN = "torn_down"


# The transition a SIP footprint caused (at most one), marked on its call
# by the state stage (CallEntry.mark) for the dialog and orphan-RTP
# generators; 0 = none.
MARK_ESTABLISHED = 1  # the call's first SETUP -> ESTABLISHED
MARK_TORN_DOWN = 2  # its first BYE
MARK_REDIRECTED = 3  # a redirect appended


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
class CallEntry:
    """Everything the engine knows about one Call-ID.

    *The SIP trail*: ``first_seen``, ``count`` and the last footprint's
    ``src``, ``dst`` and ``last_seen``, as a :class:`~repro.core.trail.Trail`
    keeps them; ``count`` 0 means no live SIP trail (none yet, or it went
    idle while a linked trail kept the call).  *Linked trails*: the
    call's media, accounting and H.225 trails.  *The role*: ``phase``
    None means no INVITE was strictly parsed; else ``caller``/``callee``
    are its From/To, the rest follows the dialog, and ``invited`` knows
    every (From, To) pair the call's INVITEs named.

    Two media maps, written by different rules and never merged:
    ``media`` (the role's: the first INVITE, a 200 to an INVITE, an
    established re-INVITE — what a redirect compares against) and
    ``media_endpoints`` (any SDP of the call, H.225 fast-connect media —
    what trail linkage learns).  Every container is allocated on its
    first write, through one writer each; until then it reads as empty
    (most calls of a flood never need one).
    """

    protocol: ClassVar[Protocol] = Protocol.SIP

    call_id: str
    last_seen: float
    first_seen: float = 0.0
    count: int = 0
    src: Endpoint | None = None
    dst: Endpoint | None = None
    caller: str = ""
    callee: str = ""
    phase: CallPhase | None = None
    established_at: float | None = None
    teardown: Teardown | None = None
    mark: int = 0  # the MARK_* of the latest SIP footprint
    _trails: list[Trail] | None = field(default=None, init=False, repr=False)
    _media: dict[str, Endpoint] | None = field(default=None, init=False, repr=False)
    _media_endpoints: dict[str, Endpoint] | None = field(
        default=None, init=False, repr=False
    )
    _redirects: list[MediaRedirect] | None = field(default=None, init=False, repr=False)
    _invites: set[tuple[str, str]] | None = field(default=None, init=False, repr=False)

    @property
    def key(self) -> tuple[str, str]:
        """The key a SIP trail files under."""
        return ("sip", self.call_id)

    def append(self, footprint: SipFootprint) -> None:
        if not self.count:
            self.first_seen = footprint.timestamp
        self.src = footprint.src
        self.dst = footprint.dst
        self.last_seen = footprint.timestamp
        self.count += 1

    @property
    def trails(self) -> Sequence[Trail]:
        """The linked (non-SIP) trails, in linking order."""
        return self._trails or ()

    def attach(self, trail: Trail) -> None:
        if self._trails is None:
            self._trails = []
        if trail not in self._trails:
            self._trails.append(trail)
            trail.call_id = self.call_id

    def detach(self, trail: Trail) -> None:
        if self._trails is not None and trail in self._trails:
            self._trails.remove(trail)

    @property
    def media(self) -> Mapping[str, Endpoint]:
        """AoR -> media endpoint the dialog negotiated."""
        return self._media or NO_MEDIA

    def set_media(self, party: str, endpoint: Endpoint) -> Endpoint | None:
        """Record ``party``'s media endpoint; returns the one it replaced."""
        media = self._media
        if media is None:
            media = self._media = {}
        old = media.get(party)
        media[party] = endpoint
        return old

    @property
    def media_endpoints(self) -> Mapping[str, Endpoint]:
        """Media endpoints advertised over SDP (or H.225), keyed by the
        advertising party's address-of-record ("" when unknown)."""
        return self._media_endpoints or NO_MEDIA

    def set_media_endpoint(self, party: str, endpoint: Endpoint) -> None:
        if self._media_endpoints is None:
            self._media_endpoints = {}
        self._media_endpoints[party] = endpoint

    @property
    def redirects(self) -> Sequence[MediaRedirect]:
        return self._redirects or ()

    def add_redirect(self, redirect: MediaRedirect) -> None:
        if self._redirects is None:
            self._redirects = []
        self._redirects.append(redirect)

    def invited(self, caller: str, callee: str) -> bool:
        """Did an INVITE of this call go from ``caller`` to ``callee``?"""
        pair = (caller, callee)
        if self.phase is None:
            return False
        return pair == (self.caller, self.callee) or pair in (self._invites or ())

    def add_invite(self, caller: str, callee: str) -> None:
        if caller != self.caller or callee != self.callee:
            if self._invites is None:
                self._invites = set()
            self._invites.add((caller, callee))


# A flood checkpoints one record per INVITE: pickle them as a value
# list, not as a dict repeating every slot name.
install_fast_pickle(CallEntry)


class SipStateTracker:
    """Reconstructs each call's role from SIP footprints, on the records
    of the call table it shares with the trail manager."""

    def __init__(self, calls: dict[str, CallEntry]) -> None:
        self._calls = calls
        # Reverse index media endpoint -> call, consulted by the RTP
        # generator once per media packet.  Invariant: it is either None
        # (stale; rebuilt on the next call_for_media()) or exactly what
        # that rebuild would produce — each endpoint maps to the
        # earliest-observed call holding it, in table order.  A call
        # gaining an endpoint nobody else holds is added in place
        # (_media_changed); anything that removes an entry or contests
        # one sets it to None.  Every media change also bumps
        # media_version, which lets downstream per-flow caches detect
        # that negotiated-media state changed without rescanning it.
        self._media_calls: dict[tuple[int, int], CallEntry] | None = {}
        self.media_version = 0

    def observe(self, footprint: SipFootprint, call: CallEntry | Trail) -> None:
        """Apply one SIP footprint to ``call``, the trail it was filed
        in: its :class:`CallEntry`, or a plain trail when the message has
        no Call-ID (and so no call to update)."""
        if call.__class__ is not CallEntry:
            return
        call.mark = 0
        message = footprint.message
        if not isinstance(message, SipRequest):
            self._observe_response(footprint, message, call)
        elif message.method == METHOD_INVITE:
            self._observe_invite(footprint, message, call)
        elif call.phase is None:
            return
        elif message.method == METHOD_BYE:
            try:
                claimed = message.from_addr.uri.address_of_record
            except Exception:
                claimed = ""
            if call.teardown is None:
                call.mark = MARK_TORN_DOWN
            call.phase = CallPhase.TORN_DOWN
            call.teardown = Teardown(
                time=footprint.timestamp, claimed_by=claimed, source=footprint.src
            )
        elif message.method == METHOD_ACK and call.phase == CallPhase.SETUP:
            self._establish(call, footprint.timestamp)

    # -- requests -----------------------------------------------------------

    def _observe_invite(
        self, footprint: SipFootprint, message: SipRequest, call: CallEntry
    ) -> None:
        try:
            from_aor = message.from_addr.uri.address_of_record
            to_tag = message.to_addr.tag
            to_aor = message.to_addr.uri.address_of_record
        except Exception:
            return
        if call.phase is None:
            call.caller, call.callee = from_aor, to_aor
            call.phase = CallPhase.SETUP
            endpoint = message.sdp_audio_endpoint()
            if endpoint is not None:
                call.set_media(from_aor, endpoint)
                self._media_changed(call, None, endpoint)
            return
        call.add_invite(from_aor, to_aor)
        if to_tag is not None and call.phase == CallPhase.ESTABLISHED:
            # A re-INVITE inside the dialog: a media move (or a hijack).
            endpoint = message.sdp_audio_endpoint()
            if endpoint is not None:
                old = call.media.get(from_aor)
                if old != endpoint:
                    call.add_redirect(
                        MediaRedirect(
                            time=footprint.timestamp,
                            party=from_aor,
                            old_endpoint=old,
                            new_endpoint=endpoint,
                            source=footprint.src,
                        )
                    )
                    call.mark = MARK_REDIRECTED
                    call.set_media(from_aor, endpoint)
                    self._media_changed(call, old, endpoint)

    # -- responses ------------------------------------------------------------

    def _observe_response(
        self, footprint: SipFootprint, message: SipResponse, call: CallEntry
    ) -> None:
        if call.phase is None:
            return
        try:
            method = message.cseq.method
        except Exception:
            return
        if method != METHOD_INVITE or message.status != STATUS_OK:
            return
        try:
            answerer = message.to_addr.uri.address_of_record
        except Exception:
            answerer = call.callee
        endpoint = message.sdp_audio_endpoint()
        if endpoint is not None:
            old = call.set_media(answerer, endpoint)
            self._media_changed(call, old, endpoint)
        if call.phase == CallPhase.SETUP:
            self._establish(call, footprint.timestamp)

    @staticmethod
    def _establish(call: CallEntry, timestamp: float) -> None:
        call.phase = CallPhase.ESTABLISHED
        call.established_at = timestamp
        call.mark = MARK_ESTABLISHED

    # -- queries -----------------------------------------------------------------

    @property
    def call_count(self) -> int:
        """Tracked dialogs (the BYE/hijack rules' working-set size): the
        calls with a role."""
        return sum(1 for call in self._calls.values() if call.phase is not None)

    def call_for_media(self, endpoint: Endpoint) -> CallEntry | None:
        """Find the call that negotiated ``endpoint`` for either party.

        When two calls negotiated the same endpoint (port reuse), the
        earliest-observed call (first in the call table) wins — the
        answer a linear scan of the table gives.
        """
        index = self._media_calls
        if index is None:
            index = self._media_calls = self._rebuild_media_calls()
        return index.get((endpoint.ip.packed, endpoint.port))

    def _rebuild_media_calls(self) -> dict[tuple[int, int], CallEntry]:
        index: dict[tuple[int, int], CallEntry] = {}
        for call in self._calls.values():
            for media in call.media.values():
                index.setdefault((media.ip.packed, media.port), call)
        return index

    def _media_changed(
        self, call: CallEntry, old: Endpoint | None, new: Endpoint
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

    def calls_expired(self) -> None:
        """Calls with a role left the table (housekeeping): the media
        index may name one of them."""
        self._media_calls = None
        self.media_version += 1


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
        request = isinstance(message, SipRequest)
        try:
            method = message.method if request else message.cseq.method
        except Exception:
            return None
        # The method first: most footprints are not REGISTER traffic, and
        # the Call-ID is a header lookup.
        if method != METHOD_REGISTER:
            return None
        call_id = footprint.call_id()
        if call_id is None:
            return None
        if request:
            return self._observe_register(footprint, message, call_id)
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
