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
  (From, To) pair its INVITEs named.  A REGISTER's Call-ID gets the same
  record, whose :class:`RegistrationSession` holds the registration's
  auth progress: challenges issued, unauthenticated retries after a
  challenge, and failed digest attempts with their response values —
  the state behind the REGISTER-DoS and password-guessing events.  One
  record, one lifetime: it lives while anything filed under it is live.
* :class:`SipStateTracker` — writes the role and the registration
  progress from SIP footprints.  This is the state the orphan-RTP rules
  (BYE attack, Call Hijack), the billing check and the auth events
  match against.
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
    from repro.core.trail import Trail, TrailManager


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
MARK_UNAUTH_RETRY = 4  # a REGISTER without credentials after a challenge
MARK_AUTH_FAILED = 5  # a 401 rejected the registration's digest response


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
class RegistrationSession:
    """Auth progress of one REGISTER session (one Call-ID)."""

    user: str
    source: Endpoint
    challenged: bool = False
    succeeded_at: float | None = None  # the last 200's time
    registered_contact_ip: str | None = None
    unauth_after_challenge: int = 0
    failed_responses: list[str] = field(default_factory=list)  # digest values
    # The last REGISTER's digest response (None: it carried none).
    last_response_value: str | None = None


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
    every (From, To) pair the call's INVITEs named.  ``registration`` is
    set by the call's first REGISTER.

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
    serial: int = 0  # creation order in the call table
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
    registration: RegistrationSession | None = None
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

    def __init__(self, trails: TrailManager) -> None:
        self._calls = trails.calls
        self._media = trails.media  # this tracker writes the role owners
        # User -> the records whose registration succeeded: a forged-IM
        # flood costs one user's registrations, not the call table.  None
        # (stale) or exactly a rebuild; a first 200 adds its record.
        self._registered: dict[str, list[CallEntry]] | None = {}

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
            return
        method = message.method
        if method == METHOD_INVITE:
            self._observe_invite(footprint, message, call)
        elif method == METHOD_REGISTER:
            self._observe_register(footprint, message, call)
        elif call.phase is None:
            return
        elif method == METHOD_BYE:
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
        elif method == METHOD_ACK and call.phase == CallPhase.SETUP:
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

    def _observe_register(
        self, footprint: SipFootprint, message: SipRequest, call: CallEntry
    ) -> None:
        try:
            user = message.to_addr.uri.user
        except Exception:
            return
        registration = call.registration
        if registration is None:
            registration = call.registration = RegistrationSession(user, footprint.src)
        contact = message.contact
        if contact is not None:
            registration.registered_contact_ip = contact.uri.host
        header = message.headers.get("Authorization")
        registration.last_response_value = None
        if header is not None:
            try:
                registration.last_response_value = DigestCredentials.parse(
                    header
                ).response
            except AuthError:
                pass
        elif registration.challenged:
            registration.unauth_after_challenge += 1
            call.mark = MARK_UNAUTH_RETRY

    # -- responses ------------------------------------------------------------

    def _observe_response(
        self, footprint: SipFootprint, message: SipResponse, call: CallEntry
    ) -> None:
        registration = call.registration
        if call.phase is None and registration is None:
            return
        try:
            method = message.cseq.method
        except Exception:
            return
        if method == METHOD_REGISTER:
            if registration is not None:
                self._observe_register_response(footprint, message, call)
            return
        if method != METHOD_INVITE or message.status != STATUS_OK or call.phase is None:
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

    def _observe_register_response(
        self, footprint: SipFootprint, message: SipResponse, call: CallEntry
    ) -> None:
        registration = call.registration
        if message.status == STATUS_UNAUTHORIZED:
            if registration.last_response_value is not None:
                registration.failed_responses.append(registration.last_response_value)
                call.mark = MARK_AUTH_FAILED
            registration.challenged = True
        elif message.status == STATUS_OK:
            index = self._registered
            if registration.succeeded_at is None and index is not None:
                index.setdefault(registration.user, []).append(call)
            registration.succeeded_at = footprint.timestamp

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

    @property
    def registration_count(self) -> int:
        """Tracked REGISTER sessions (the DoS/guessing working-set size):
        the calls with a registration."""
        return sum(1 for call in self._calls.values() if call.registration is not None)

    def recent_registration_from(self, user: str, ip: str, now: float, window: float) -> bool:
        """Did ``user`` successfully (re-)register from ``ip`` within
        ``window`` seconds before ``now``?  The mobility legitimiser the
        paper sketches: an IM source change is fine when the registrar
        has been told about the move."""
        index = self._registered
        if index is None:
            index = self._registered = self._rebuild_registered()
        for call in index.get(user, ()):
            registration = call.registration
            if 0.0 <= now - registration.succeeded_at <= window and ip in (
                str(registration.source.ip), registration.registered_contact_ip
            ):
                return True
        return False

    def _rebuild_registered(self) -> dict[str, list[CallEntry]]:
        index: dict[str, list[CallEntry]] = {}
        for call in self._calls.values():
            registration = call.registration
            if registration is not None and registration.succeeded_at is not None:
                index.setdefault(registration.user, []).append(call)
        return index

    def call_for_media(self, endpoint: Endpoint) -> CallEntry | None:
        """Find the call that negotiated ``endpoint`` for either party.

        When two calls negotiated the same endpoint (port reuse), the
        earliest-observed call (first in the call table) wins — the
        answer a linear scan of the table gives.
        """
        entry = self._media.get((endpoint.ip.packed, endpoint.port))
        return entry.role if entry is not None else None

    def _media_changed(
        self, call: CallEntry, old: Endpoint | None, new: Endpoint
    ) -> None:
        """``call`` now advertises ``new`` where it advertised ``old``: it
        holds ``new``'s media entry and, unless another party still
        advertises ``old``, releases that one.  The rogue-source verdicts
        memoized at the call's endpoints read its media, so they go."""
        if old == new:
            return
        media = self._media
        held = call.media.values()
        if old is not None and old not in held:
            media.release(old, call)
        media.hold(new, call)
        for endpoint in held:
            media[(endpoint.ip.packed, endpoint.port)].verdicts = None

    def registrations_expired(self) -> None:
        """Records with a registration left the table (housekeeping): the
        registered-user index may name one of them."""
        self._registered = None
