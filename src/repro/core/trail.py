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
bodies: whenever a SIP message carries an SDP, its audio endpoint is
indexed so that the RTP flow arriving there is annotated with the owning
Call-ID.  A call lives while its own SIP trail or any trail linked to it
is live; the state tracker's dialog role, the billing check's INVITE
pairs and a REGISTER's auth progress live and die with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

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


def _media_index_key(endpoint: Endpoint) -> tuple[int, int]:
    """SDP media endpoints index as packed ints (C-speed dict hashing)."""
    return (endpoint.ip.packed, endpoint.port)


def _session_port_key(endpoint: Endpoint) -> tuple[int, int]:
    """_media_index_key with RTCP's odd port normalised down to the RTP
    session port — the form an SDP-advertised (even) port is matched in.
    Runs per media packet of an unlinked trail, so no Endpoint is built."""
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


class TrailManager:
    """Groups footprints into trails and links trails into calls."""

    def __init__(self) -> None:
        # Every live trail but the calls' own SIP trails, which are the
        # CallEntry records of self.calls.
        self.trails: dict[TrailKey, Trail] = {}
        # The call table: Call-ID (or H.323 "h323-crv-<CRV>") -> record.
        # The SIP state tracker reads and writes the same records.
        self.calls: dict[str, CallEntry] = {}
        # SDP-learned media endpoint -> call id, keyed by
        # _media_index_key (packed address ints, hashed in C).
        self._media_index: dict[tuple[int, int], str] = {}
        # Media trails no call owns yet, findable by endpoint so an SDP
        # that arrives after its media adopts them without a walk over
        # every trail.  Invariant: a live trail is filed here iff its
        # protocol is RTP/RTCP and its call_id is None, under the
        # _session_port_key of its src and dst (its last footprint's), as
        # trail key -> (creation serial, trail); serials order a bucket's
        # trails as self.trails orders them.  Derived from self.trails:
        # rebuilt on unpickling, never pickled.
        self._unlinked_media: dict[
            tuple[int, int], dict[TrailKey, tuple[int, Trail]]
        ] = {}
        self._media_serial = count()
        # Writes to the two media indexes above, counted so the engine
        # can tell when a media fast-path verdict may have changed
        # (repro.core.fastpath).  Derived: never pickled.
        self.media_writes = 0
        # Lifetime accounting, exported by repro.obs.
        self.footprints_filed = 0
        self.expired_total = 0
        self.expired_dialogs = 0  # expired calls that had a dialog role
        self.expired_registrations = 0  # ... and that had a registration

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_unlinked_media"], state["_media_serial"], state["media_writes"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._unlinked_media = {}
        self._media_serial = count()
        self.media_writes = 0
        for trail in self.trails.values():
            if trail.call_id is None and trail.protocol in _MEDIA_PROTOCOLS:
                self._file_unlinked(trail, next(self._media_serial))

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
        # The serial to (re)file the trail under in _unlinked_media, when
        # this footprint creates it or moves its last endpoints.
        serial = None
        if trail is None:
            trail = Trail(key, footprint.protocol, footprint.timestamp)
            self.trails[key] = trail
            if trail.protocol in _MEDIA_PROTOCOLS:
                serial = next(self._media_serial)
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

    def media_owner(self, endpoint: Endpoint) -> str | None:
        """Which call (if any) negotiated this media endpoint via SDP."""
        return self._media_index.get(_media_index_key(endpoint))

    def expire_idle(self, now: float, idle_timeout: float) -> int:
        """Drop trails and calls idle for ``idle_timeout``.

        The paper notes state is "constrained in practice by the amount
        of memory available"; a long-running IDS must garbage-collect
        dead sessions.  A call dies when its own ``last_seen`` and every
        trail linked to it are idle; its SIP trail alone expires earlier
        (``count`` back to 0) when a live linked trail keeps the call.
        Returns the number of trails removed, SIP trails included.
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
        # Dead calls take their media index entries with them.
        for call_id in dead_calls:
            call = self.calls.pop(call_id)
            if call.phase is not None:
                self.expired_dialogs += 1
            if call.registration is not None:
                self.expired_registrations += 1
            for endpoint in call.media_endpoints.values():
                index_key = _media_index_key(endpoint)
                if self._media_index.get(index_key) == call_id:
                    del self._media_index[index_key]
                    self.media_writes += 1
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
            "media_index": len(self._media_index),
            "unlinked_media_index": len(self._unlinked_media),
            "footprints_filed": self.footprints_filed,
            "expired_total": self.expired_total,
        }

    # -- call linking -------------------------------------------------------------

    def _call(self, call_id: str, timestamp: float) -> CallEntry:
        call = self.calls.get(call_id)
        if call is None:
            call = self.calls[call_id] = CallEntry(call_id, timestamp)
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
            self._media_index[_media_index_key(message.media)] = call_id
            self.media_writes += 1

    def _link_media(self, footprint: AnyFootprint, trail: Trail) -> None:
        if trail.call_id is None:
            owner = self._media_index.get(
                _session_port_key(footprint.dst)
            ) or self._media_index.get(_session_port_key(footprint.src))
            if owner is not None:
                self._unfile_unlinked(trail)
                self._call(owner, footprint.timestamp).attach(trail)

    def _link_noop(self, footprint: AnyFootprint, trail: Trail) -> None:
        return None

    # -- the unlinked-media index ------------------------------------------------

    def _file_unlinked(self, trail: Trail, serial: int) -> None:
        self.media_writes += 1
        entry = (serial, trail)
        for index_key in (_session_port_key(trail.src), _session_port_key(trail.dst)):
            self._unlinked_media.setdefault(index_key, {})[trail.key] = entry

    def _unfile_unlinked(self, trail: Trail) -> int | None:
        """Take ``trail`` out of the index (a no-op when it is not filed);
        returns the serial it was filed under."""
        serial = None
        for index_key in (_session_port_key(trail.src), _session_port_key(trail.dst)):
            bucket = self._unlinked_media.get(index_key)
            if bucket is not None:
                entry = bucket.pop(trail.key, None)
                if entry is not None:
                    self.media_writes += 1
                    serial = entry[0]
                    if not bucket:
                        del self._unlinked_media[index_key]
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
        index_key = _media_index_key(endpoint)
        self._media_index[index_key] = call.call_id
        self.media_writes += 1
        # Retroactively adopt any flow trail already touching the
        # endpoint, oldest first.  The index holds session (even) ports
        # only, so an SDP advertising an odd port adopts nothing.
        bucket = self._unlinked_media.get(index_key)
        if bucket is not None:
            for _serial, trail in sorted(bucket.values()):
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
