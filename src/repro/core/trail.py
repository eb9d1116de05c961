"""Trails: per-session, per-protocol footprint groupings (paper §3.1).

"Footprints that belong to the same session are typically grouped into a
Trail ... Footprints from the same session may be split into and stored
in multiple Trails."  Cross-protocol detection (§3.2) "is achieved
through keeping multiple trails for each session, one for each protocol".

The :class:`TrailManager` implements that with one call table: each
Call-ID has one :class:`~repro.core.state.CallEntry`, which is the
call's SIP trail and holds the call's other trails — RTP/RTCP trails
keyed by flow, accounting trails keyed by the billed Call-ID, H.225
trails keyed by CRV.  The SIP↔RTP linkage is learned passively from SDP
bodies: whenever a SIP message carries an SDP, its audio endpoint's
:class:`MediaEntry` names the call, so that the RTP flow arriving there
is annotated with the owning Call-ID.  A call lives while its own SIP
trail or any trail linked to it is live; the state tracker's dialog
role, the billing check's INVITE pairs and a REGISTER's auth progress
live and die with it.  One media table holds everything known about a
media endpoint — its owners, the RTP flow toward it and the media trails
waiting for an SDP — with the same lifetime rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.footprint import (
    AccountingFootprint,
    AnyFootprint,
    H225Footprint,
    MalformedFootprint,
    Protocol,
    RtcpFootprint,
    RtpFootprint,
    SipFootprint,
)
from repro.core.state import CallEntry
from repro.fastpickle import install_fast_pickle
from repro.net.addr import Endpoint
from repro.sip.message import SipRequest

# (protocol tag, session discriminator).  Accounting/H.225 trails
# discriminate by a call identifier (a call's own SIP trail is its
# CallEntry, keyed in the call table); flow trails (RTP/RTCP and
# custom protocols) discriminate by the (src ip, src port, dst ip,
# dst port) quad as packed ints — int tuples hash in C, where Endpoint
# pairs would recurse through two dataclass __hash__ calls per lookup.
TrailKey = tuple[str, object]


def _flow_key(src: Endpoint, dst: Endpoint) -> tuple[int, int, int, int]:
    return (src.ip.packed, src.port, dst.ip.packed, dst.port)


# "malformed-<protocol>" tags, interned once: building the f-string per
# packet is measurable under a garbage flood.
_MALFORMED_TAGS: dict[str, str] = {}


def _session_port_key(endpoint: Endpoint) -> tuple[int, int]:
    """An endpoint's media-table key with RTCP's odd port normalised down
    to the RTP session port — the form an SDP-advertised (even) port is
    matched in.  Runs per media packet of an unlinked trail, so no
    Endpoint is built."""
    port = endpoint.port
    return (endpoint.ip.packed, port - 1 if port % 2 else port)


# Trails of these protocols carry media and are linked to their call by
# endpoint rather than by an identifier of their own.  (A tuple: enum
# members hash in Python but compare by identity.)
_MEDIA_PROTOCOLS = (Protocol.RTP, Protocol.RTCP)


@dataclass(slots=True)
class Trail:
    """An index entry for one (sub)session: identity, linkage, a count.

    A trail keeps no footprints (paper §3.1: trail state is "constrained
    in practice by the amount of memory available").  It records how
    many were filed and the last one's endpoints and timestamp — all
    the unlinked-media index and idle expiry read.  Per-packet history
    is the flight recorder's job (repro.obs.forensics).
    """

    key: TrailKey
    protocol: Protocol
    first_seen: float  # timestamp of the footprint that created the trail
    call_id: str | None = None  # cross-protocol linkage, once known
    count: int = 0  # footprints filed
    src: Endpoint | None = None  # the last footprint's endpoints and time
    dst: Endpoint | None = None
    last_seen: float = 0.0

    def append(self, footprint: AnyFootprint) -> None:
        self.touch(footprint.src, footprint.dst, footprint.timestamp)

    def touch(self, src: Endpoint, dst: Endpoint, timestamp: float) -> None:
        """File one more footprint, given its endpoints and time."""
        self.src = src
        self.dst = dst
        self.last_seen = timestamp
        self.count += 1


# A flood checkpoints one Trail per frame: pickle them as a value list,
# not as a dict repeating every slot name.
install_fast_pickle(Trail)


@dataclass(slots=True)
class MediaEntry:
    """Everything the engine knows about one media endpoint.

    Two owners, kept apart as :class:`~repro.core.state.CallEntry` keeps
    ``media_endpoints`` and ``media``: ``linked``, the Call-ID whose SDP
    (or H.225 fast-connect media) last advertised the endpoint, which
    trail linkage follows; ``role``, the earliest call in table order
    whose dialog role negotiated it, which the rogue-source check gates
    on (``contenders``: the later ones, in table order).  The RTP flow
    toward it: the sequence anchor, and ``verdicts``, the rogue-source
    verdict per source ``(packed ip, port)`` (None: negotiated; else the
    mismatch attrs), dropped whenever ``role`` or its call's media
    changes.  ``unlinked``: the media trails no call owns yet whose last
    footprint touched this session port (RTCP's odd port files under the
    even one), as trail key -> (creation serial, trail).
    """

    linked: str | None = None
    role: CallEntry | None = None
    contenders: list[CallEntry] | None = None
    last_seq: int | None = None
    last_time: float = 0.0
    reorder_streak: int = 0
    verdicts: dict[tuple[int, int], dict | None] | None = None
    unlinked: dict[TrailKey, tuple[int, Trail]] | None = None

    def advance(self, sequence: int, now: float) -> None:
        """An in-order packet within the jump threshold: the new anchor."""
        self.last_seq = sequence
        self.last_time = now
        self.reorder_streak = 0


install_fast_pickle(MediaEntry)


def _holders(entry: MediaEntry) -> list[CallEntry]:
    """The calls whose role negotiated ``entry``'s endpoint, in table order."""
    return [entry.role, *(entry.contenders or ())] if entry.role is not None else []


class MediaTable(dict):
    """``(packed ip, port)`` -> :class:`MediaEntry`.

    An entry lives while an owner record lives or something filed under
    it — a flow anchor, an unlinked trail — is younger than the idle
    timeout: the write that leaves it holding none deletes it, and
    :meth:`sweep` resets idle anchors.  ``writes`` counts the writes that
    can change a media fast-path verdict (:mod:`repro.core.fastpath`):
    the owner and unlinked-trail writes, and
    :meth:`~repro.core.events.GeneratorContext.media_changed`.
    """

    __slots__ = ("writes",)

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def entry(self, key: tuple[int, int]) -> MediaEntry:
        entry = self.get(key)
        if entry is None:
            entry = self[key] = MediaEntry()
        return entry

    def linked(self, key: tuple[int, int]) -> str | None:
        entry = self.get(key)
        return entry.linked if entry is not None else None

    def link(self, endpoint: Endpoint, call_id: str) -> MediaEntry:
        """An SDP of ``call_id`` advertised ``endpoint``."""
        entry = self.entry((endpoint.ip.packed, endpoint.port))
        entry.linked = call_id
        self.writes += 1
        return entry

    def hold(self, endpoint: Endpoint, call: CallEntry) -> None:
        """``call``'s dialog role negotiated ``endpoint``."""
        entry = self.entry((endpoint.ip.packed, endpoint.port))
        holders = _holders(entry)
        if not any(holder is call for holder in holders):
            self._set_holders(entry, sorted([*holders, call], key=lambda c: c.serial))

    def release(self, endpoint: Endpoint, call: CallEntry) -> None:
        """``call``'s role no longer negotiates ``endpoint`` (a party's
        media moved)."""
        key = (endpoint.ip.packed, endpoint.port)
        entry = self.get(key)
        if entry is not None and any(holder is call for holder in _holders(entry)):
            self._set_holders(entry, [c for c in _holders(entry) if c is not call])
            self.drop_unused(key, entry)

    def _set_holders(self, entry: MediaEntry, holders: list[CallEntry]) -> None:
        entry.role = holders[0] if holders else None
        entry.contenders = holders[1:] or None
        entry.verdicts = None
        self.writes += 1

    def drop_unused(self, key: tuple[int, int], entry: MediaEntry) -> None:
        """Delete ``entry`` if it holds no owner, anchor or trail."""
        if entry.linked is entry.role is entry.unlinked is entry.last_seq is None:
            del self[key]

    def sweep(self, now: float, idle_timeout: float, calls: dict[str, CallEntry]) -> None:
        """Forget the owners that left ``calls``, reset the flow anchors
        idle past ``idle_timeout`` — a port silent that long starts a new
        sequence anchor — and drop the entries that leaves unused."""
        for key, entry in list(self.items()):
            if entry.linked is not None and entry.linked not in calls:
                entry.linked = None
            holders = _holders(entry)
            live = [call for call in holders if calls.get(call.call_id) is call]
            if len(live) != len(holders):
                self._set_holders(entry, live)
            if entry.last_seq is not None and now - entry.last_time > idle_timeout:
                entry.last_seq = entry.verdicts = None
                entry.reorder_streak = 0
            self.drop_unused(key, entry)


class TrailManager:
    """Groups footprints into trails and links trails into calls."""

    def __init__(self) -> None:
        # Every live trail but the calls' own SIP trails, which are the
        # CallEntry records of self.calls.
        self.trails: dict[TrailKey, Trail] = {}
        # The call table: Call-ID (or H.323 "h323-crv-<CRV>") -> record.
        # The SIP state tracker reads and writes the same records.
        self.calls: dict[str, CallEntry] = {}
        # The media table: SDP linkage and unlinked trails are written
        # here, role owners by the SIP state tracker, flows by the RTP
        # generator.
        self.media = MediaTable()
        # Creation serials of calls and media trails: they order role
        # owners as self.calls does, unlinked trails as self.trails does.
        self._serial = 0
        # Lifetime accounting, exported by repro.obs.
        self.footprints_filed = 0
        self.expired_total = 0
        self.expired_dialogs = 0  # expired calls that had a dialog role
        self.expired_registrations = 0  # ... and that had a registration

    # -- public API ---------------------------------------------------------

    def push(self, footprint: AnyFootprint) -> Trail | CallEntry:
        """File one footprint; returns the trail it landed in — for a SIP
        message with a Call-ID, the call's record."""
        if isinstance(footprint, SipFootprint):
            call_id = footprint.call_id()
            if call_id is not None:
                call = self._call(call_id, footprint.timestamp)
                call.append(footprint)
                self._learn_sdp(footprint, call)
                self.footprints_filed += 1
                return call
        route = _ROUTES.get(type(footprint))
        if route is None:
            route = _ROUTES[type(footprint)] = _resolve_route(footprint)
        key_for, link = route
        key = key_for(footprint)
        trail = self.trails.get(key)
        # The serial to (re)file the trail under as unlinked, when this
        # footprint creates it or moves its last endpoints.
        serial = None
        if trail is None:
            trail = Trail(key, footprint.protocol, footprint.timestamp)
            self.trails[key] = trail
            if trail.protocol in _MEDIA_PROTOCOLS:
                serial = self._serial = self._serial + 1
        elif trail.call_id is None and trail.protocol in _MEDIA_PROTOCOLS:
            # Flow-keyed trails never get here with new endpoints; a
            # malformed-on-media-port trail is keyed by source only, so
            # its destination can move.
            if trail.dst != footprint.dst or trail.src != footprint.src:
                serial = self._unfile_unlinked(trail)
        self.refile(trail, footprint.src, footprint.dst, footprint.timestamp)
        link(self, footprint, trail)
        if serial is not None and trail.call_id is None:
            self._file_unlinked(trail, serial)
        return trail

    def refile(
        self, trail: Trail, src: Endpoint, dst: Endpoint, timestamp: float
    ) -> None:
        """File one footprint in ``trail``, an existing trail of its flow
        (the media fast path files its frames here, ``push`` every other
        footprint's)."""
        trail.touch(src, dst, timestamp)
        self.footprints_filed += 1

    def expire_idle(self, now: float, idle_timeout: float) -> int:
        """Drop trails, calls and media entries idle for ``idle_timeout``.

        The paper notes state is "constrained in practice by the amount
        of memory available"; a long-running IDS must garbage-collect
        dead sessions.  A call dies when its own ``last_seen`` and every
        trail linked to it are idle; its SIP trail alone expires earlier
        (``count`` back to 0) when a live linked trail keeps the call.
        A media entry goes with the last owner, anchor and trail it
        holds (:class:`MediaTable`).  Returns the number of trails
        removed, SIP trails included.
        """
        stale_keys = [
            key
            for key, trail in self.trails.items()
            if now - trail.last_seen > idle_timeout
        ]
        for key in stale_keys:
            trail = self.trails.pop(key)
            if trail.call_id is not None:
                call = self.calls.get(trail.call_id)
                if call is not None:
                    call.detach(trail)
            elif trail.protocol in _MEDIA_PROTOCOLS:
                self._unfile_unlinked(trail)
        reclaimed = len(stale_keys)
        dead_calls = []
        for call_id, call in self.calls.items():
            if now - call.last_seen > idle_timeout:
                if call.count:
                    call.count = 0
                    reclaimed += 1
                if not call.trails:
                    dead_calls.append(call_id)
        for call_id in dead_calls:
            call = self.calls.pop(call_id)
            if call.phase is not None:
                self.expired_dialogs += 1
            if call.registration is not None:
                self.expired_registrations += 1
        # Dead calls take their media owner fields with them.
        self.media.sweep(now, idle_timeout, self.calls)
        self.expired_total += reclaimed
        return reclaimed

    @property
    def trail_count(self) -> int:
        return len(self.trails) + sum(1 for call in self.calls.values() if call.count)

    @property
    def session_count(self) -> int:
        return len(self.calls)

    def size_stats(self) -> dict[str, int]:
        """State-size snapshot for gauge export (repro.obs)."""
        return {
            "trails": self.trail_count,
            "sessions": len(self.calls),
            "media_entries": len(self.media),
            "footprints_filed": self.footprints_filed,
            "expired_total": self.expired_total,
        }

    # -- call linking -------------------------------------------------------------

    def _call(self, call_id: str, timestamp: float) -> CallEntry:
        call = self.calls.get(call_id)
        if call is None:
            self._serial += 1
            call = self.calls[call_id] = CallEntry(call_id, timestamp, self._serial)
        return call

    def _link_accounting(self, footprint: AccountingFootprint, trail: Trail) -> None:
        if footprint.call_id:
            self._call(footprint.call_id, footprint.timestamp).attach(trail)

    def _link_h225(self, footprint: H225Footprint, trail: Trail) -> None:
        # H.323 calls use the CRV as the session discriminator; the
        # fast-connect media IE plays SDP's role for linkage.
        call_id = f"h323-crv-{footprint.call_reference}"
        call = self._call(call_id, footprint.timestamp)
        call.attach(trail)
        message = footprint.message
        if message.media is not None:
            party = message.calling_party or message.called_party or ""
            call.set_media_endpoint(party, message.media)
            self.media.link(message.media, call_id)

    def _link_media(self, footprint: AnyFootprint, trail: Trail) -> None:
        if trail.call_id is None:
            media = self.media
            owner = media.linked(_session_port_key(footprint.dst)) or media.linked(
                _session_port_key(footprint.src)
            )
            if owner is not None:
                self._unfile_unlinked(trail)
                self._call(owner, footprint.timestamp).attach(trail)

    def _link_noop(self, footprint: AnyFootprint, trail: Trail) -> None:
        return None

    # -- unlinked media trails ----------------------------------------------------

    def _file_unlinked(self, trail: Trail, serial: int) -> None:
        media = self.media
        media.writes += 1
        filed = (serial, trail)
        for key in (_session_port_key(trail.src), _session_port_key(trail.dst)):
            entry = media.entry(key)
            if entry.unlinked is None:
                entry.unlinked = {}
            entry.unlinked[trail.key] = filed

    def _unfile_unlinked(self, trail: Trail) -> int | None:
        """Take ``trail`` out of the media table (a no-op when it is not
        filed); returns the serial it was filed under."""
        media = self.media
        serial = None
        for key in (_session_port_key(trail.src), _session_port_key(trail.dst)):
            entry = media.get(key)
            if entry is None or entry.unlinked is None:
                continue
            filed = entry.unlinked.pop(trail.key, None)
            if filed is not None:
                media.writes += 1
                serial = filed[0]
                if not entry.unlinked:
                    entry.unlinked = None
                    media.drop_unused(key, entry)
        return serial

    def _learn_sdp(self, footprint: SipFootprint, call: CallEntry) -> None:
        message = footprint.message
        endpoint = message.sdp_audio_endpoint()
        if endpoint is None:
            return
        # Who advertised this endpoint?  Requests advertise the sender
        # (From); responses advertise the answerer (To).
        try:
            if isinstance(message, SipRequest):
                party = message.from_addr.uri.address_of_record
            else:
                party = message.to_addr.uri.address_of_record
        except Exception:
            party = ""
        call.set_media_endpoint(party, endpoint)
        entry = self.media.link(endpoint, call.call_id)
        # Retroactively adopt any flow trail already touching the
        # endpoint, oldest first.  Trails file under session (even)
        # ports only, so an SDP advertising an odd port adopts nothing.
        if entry.unlinked is not None:
            for _serial, trail in sorted(entry.unlinked.values()):
                self._unfile_unlinked(trail)
                call.attach(trail)


# ---------------------------------------------------------------------------
# Per-footprint-type dispatch.  Keying and linking run once per packet;
# a type() dict probe replaces the isinstance ladder on that path.  The
# ladder survives in _resolve_route so Footprint *subclasses* still route
# like their base class — the resolved pair is cached per concrete type
# on first sight.
# ---------------------------------------------------------------------------


def _sip_key(footprint: SipFootprint) -> TrailKey:
    # Only a message without a Call-ID gets here (push files the others
    # in their call), grouped per source.
    return ("sip", f"?:{footprint.src}")


def _rtp_key(footprint: RtpFootprint) -> TrailKey:
    return ("rtp", _flow_key(footprint.src, footprint.dst))


def _rtcp_key(footprint: RtcpFootprint) -> TrailKey:
    return ("rtcp", _flow_key(footprint.src, footprint.dst))


def _acct_key(footprint: AccountingFootprint) -> TrailKey:
    return ("acct", footprint.call_id)


def _h225_key(footprint: H225Footprint) -> TrailKey:
    return ("h225", footprint.call_reference)


def _malformed_key(footprint: MalformedFootprint) -> TrailKey:
    claimed = footprint.claimed_protocol.value
    tag = _MALFORMED_TAGS.get(claimed)
    if tag is None:
        tag = _MALFORMED_TAGS[claimed] = f"malformed-{claimed}"
    src = footprint.src
    return (tag, (src.ip.packed, src.port))


def _generic_key(footprint: AnyFootprint) -> TrailKey:
    # Footprints from custom protocol modules file under their
    # protocol value, grouped per flow.
    return (footprint.protocol.value, _flow_key(footprint.src, footprint.dst))


def _resolve_route(footprint: AnyFootprint):
    """(key builder, linker) for the footprint's type."""
    if isinstance(footprint, SipFootprint):
        return _sip_key, TrailManager._link_noop
    if isinstance(footprint, RtpFootprint):
        return _rtp_key, TrailManager._link_media
    if isinstance(footprint, RtcpFootprint):
        return _rtcp_key, TrailManager._link_media
    if isinstance(footprint, AccountingFootprint):
        return _acct_key, TrailManager._link_accounting
    if isinstance(footprint, H225Footprint):
        return _h225_key, TrailManager._link_h225
    if isinstance(footprint, MalformedFootprint):
        return _malformed_key, TrailManager._link_noop
    return _generic_key, TrailManager._link_noop


_ROUTES: dict[type, tuple] = {}
