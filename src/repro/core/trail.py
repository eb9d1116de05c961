"""Trails: per-session, per-protocol footprint groupings (paper §3.1).

"Footprints that belong to the same session are typically grouped into a
Trail ... Footprints from the same session may be split into and stored
in multiple Trails."  Cross-protocol detection (§3.2) "is achieved
through keeping multiple trails for each session, one for each protocol".

The :class:`TrailManager` implements that: SIP footprints key by
Call-ID, RTP/RTCP footprints key by flow, accounting footprints key by
the billed Call-ID — and a :class:`Session` object ties together all
trails belonging to one logical call.  The SIP↔RTP linkage is learned
passively from SDP bodies: whenever an INVITE or 200 carries an SDP, its
audio endpoint is indexed so that the RTP flow arriving there is
annotated with the owning Call-ID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.fastpickle import install_fast_pickle
from repro.net.addr import Endpoint
from repro.sip.message import SipRequest

# (protocol tag, session discriminator).  SIP/accounting/H.225 trails
# discriminate by a call identifier string; flow trails (RTP/RTCP and
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

# How many recent footprints a trail keeps (paper §3.1: trail state is
# "constrained in practice by the amount of memory available").  Nothing
# under src/ reads past footprints[-1]; rules that "match on crude
# information directly from the Trails" see this recent tail, and deep
# history is the flight recorder's job (repro.obs.forensics).
TRAIL_TAIL = 32


@dataclass(slots=True)
class Trail:
    """The recent tail of one (sub)session's footprints, plus counters.

    ``footprints`` holds at most ``TRAIL_TAIL`` entries, oldest first;
    ``len(trail) + trail.evicted`` is every footprint ever filed.  A plain
    list trimmed in place rather than a ``deque(maxlen=...)``: a flood
    makes one single-footprint trail per frame, and an empty bounded
    deque alone is 760 B against a one-element list's 88.
    """

    key: TrailKey
    protocol: Protocol
    first_seen: float  # timestamp of the footprint that created the trail
    footprints: list[AnyFootprint] = field(default_factory=list)
    call_id: str | None = None  # cross-protocol linkage, once known
    evicted: int = 0

    def append(self, footprint: AnyFootprint) -> None:
        tail = self.footprints
        if len(tail) >= TRAIL_TAIL:
            # Drop the oldest half in place: one pointer move per
            # footprint amortised, and no second list.
            del tail[: TRAIL_TAIL // 2]
            self.evicted += TRAIL_TAIL // 2
        tail.append(footprint)

    def __len__(self) -> int:
        return len(self.footprints)

    @property
    def last(self) -> AnyFootprint | None:
        return self.footprints[-1] if self.footprints else None

    @property
    def last_seen(self) -> float | None:
        return self.footprints[-1].timestamp if self.footprints else None


# A flood checkpoints one Trail per frame: pickle them as a value list,
# not as a dict repeating every slot name.
install_fast_pickle(Trail)


@dataclass(slots=True)
class Session:
    """All trails of one logical call, keyed by Call-ID."""

    call_id: str
    trails: list[Trail] = field(default_factory=list)
    # Media endpoints negotiated over SDP, keyed by the advertising
    # party's address-of-record ("" when the AoR is unknown).
    media_endpoints: dict[str, Endpoint] = field(default_factory=dict)

    def trail_for(self, protocol: Protocol) -> Trail | None:
        for trail in self.trails:
            if trail.protocol == protocol:
                return trail
        return None

    def trails_for(self, protocol: Protocol) -> list[Trail]:
        return [t for t in self.trails if t.protocol == protocol]

    def attach(self, trail: Trail) -> None:
        if trail not in self.trails:
            self.trails.append(trail)
            trail.call_id = self.call_id


class TrailManager:
    """Groups footprints into trails and links trails into sessions."""

    def __init__(self) -> None:
        self.trails: dict[TrailKey, Trail] = {}
        self.sessions: dict[str, Session] = {}
        # SDP-learned media endpoint -> call id, keyed by
        # _media_index_key (packed address ints, hashed in C).
        self._media_index: dict[tuple[int, int], str] = {}
        # Media trails no call owns yet, findable by endpoint so an SDP
        # that arrives after its media adopts them without a walk over
        # every trail.  Invariant: a live trail is filed here iff its
        # protocol is RTP/RTCP and its call_id is None, under the
        # _session_port_key of both endpoints of its *last* footprint, as
        # trail key -> (creation serial, trail); serials order a bucket's
        # trails as self.trails orders them.  Derived from self.trails:
        # rebuilt on unpickling, never pickled.
        self._unlinked_media: dict[
            tuple[int, int], dict[TrailKey, tuple[int, Trail]]
        ] = {}
        self._media_serial = count()
        # Lifetime accounting, exported by repro.obs.
        self.footprints_filed = 0
        self.expired_total = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_unlinked_media"], state["_media_serial"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._unlinked_media = {}
        self._media_serial = count()
        for trail in self.trails.values():
            if trail.call_id is None and trail.protocol in _MEDIA_PROTOCOLS:
                self._file_unlinked(trail, next(self._media_serial))

    # -- public API ---------------------------------------------------------

    def push(self, footprint: AnyFootprint) -> Trail:
        """File one footprint; returns the trail it landed in."""
        key = self._key_for(footprint)
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
            last = trail.footprints[-1]
            if last.dst != footprint.dst or last.src != footprint.src:
                serial = self._unfile_unlinked(trail)
        trail.append(footprint)
        self._link(footprint, trail)
        if serial is not None and trail.call_id is None:
            self._file_unlinked(trail, serial)
        self.footprints_filed += 1
        return trail

    def session_for(self, call_id: str) -> Session | None:
        return self.sessions.get(call_id)

    def media_owner(self, endpoint: Endpoint) -> str | None:
        """Which call (if any) negotiated this media endpoint via SDP."""
        return self._media_index.get(_media_index_key(endpoint))

    def expire_idle(self, now: float, idle_timeout: float) -> int:
        """Drop trails (and empty sessions) idle for ``idle_timeout``.

        The paper notes state is "constrained in practice by the amount
        of memory available"; a long-running IDS must garbage-collect
        dead sessions.  Returns the number of trails removed.
        """
        stale_keys = [
            key
            for key, trail in self.trails.items()
            if trail.last_seen is not None and now - trail.last_seen > idle_timeout
        ]
        for key in stale_keys:
            trail = self.trails.pop(key)
            if trail.call_id is not None:
                session = self.sessions.get(trail.call_id)
                if session is not None and trail in session.trails:
                    session.trails.remove(trail)
            elif trail.protocol in _MEDIA_PROTOCOLS:
                self._unfile_unlinked(trail)
        # Sessions with no trails left die too, along with their media index.
        dead_sessions = [cid for cid, s in self.sessions.items() if not s.trails]
        for call_id in dead_sessions:
            session = self.sessions.pop(call_id)
            for endpoint in session.media_endpoints.values():
                index_key = _media_index_key(endpoint)
                if self._media_index.get(index_key) == call_id:
                    del self._media_index[index_key]
        self.expired_total += len(stale_keys)
        return len(stale_keys)

    @property
    def trail_count(self) -> int:
        return len(self.trails)

    @property
    def session_count(self) -> int:
        return len(self.sessions)

    def size_stats(self) -> dict[str, int]:
        """State-size snapshot for gauge export (repro.obs)."""
        return {
            "trails": len(self.trails),
            "sessions": len(self.sessions),
            "media_index": len(self._media_index),
            "unlinked_media_index": len(self._unlinked_media),
            "footprints_filed": self.footprints_filed,
            # Summed here, off the per-frame path: <= TRAIL_TAIL per trail.
            "footprints_retained": sum(map(len, self.trails.values())),
            "expired_total": self.expired_total,
        }

    # -- keying ------------------------------------------------------------------

    def _key_for(self, footprint: AnyFootprint) -> TrailKey:
        builder = _KEY_BUILDERS.get(type(footprint))
        if builder is None:
            builder = _resolve_key_builder(footprint)
            _KEY_BUILDERS[type(footprint)] = builder
        return builder(footprint)

    # -- session linking -------------------------------------------------------------

    def _ensure_session(self, call_id: str) -> Session:
        session = self.sessions.get(call_id)
        if session is None:
            session = Session(call_id=call_id)
            self.sessions[call_id] = session
        return session

    def _link(self, footprint: AnyFootprint, trail: Trail) -> None:
        linker = _LINKERS.get(type(footprint))
        if linker is None:
            linker = _resolve_linker(footprint)
            _LINKERS[type(footprint)] = linker
        linker(self, footprint, trail)

    def _link_sip(self, footprint: SipFootprint, trail: Trail) -> None:
        call_id = footprint.call_id()
        if call_id is not None:
            session = self._ensure_session(call_id)
            session.attach(trail)
            self._learn_sdp(footprint, session)

    def _link_accounting(self, footprint: AccountingFootprint, trail: Trail) -> None:
        if footprint.call_id:
            self._ensure_session(footprint.call_id).attach(trail)

    def _link_h225(self, footprint: H225Footprint, trail: Trail) -> None:
        # H.323 calls use the CRV as the session discriminator; the
        # fast-connect media IE plays SDP's role for linkage.
        session_id = f"h323-crv-{footprint.call_reference}"
        session = self._ensure_session(session_id)
        session.attach(trail)
        message = footprint.message
        if message.media is not None:
            party = message.calling_party or message.called_party or ""
            session.media_endpoints[party] = message.media
            self._media_index[_media_index_key(message.media)] = session_id

    def _link_media(self, footprint: AnyFootprint, trail: Trail) -> None:
        if trail.call_id is None:
            owner = self._media_index.get(
                _session_port_key(footprint.dst)
            ) or self._media_index.get(_session_port_key(footprint.src))
            if owner is not None:
                self._unfile_unlinked(trail)
                self._ensure_session(owner).attach(trail)

    def _link_noop(self, footprint: AnyFootprint, trail: Trail) -> None:
        return None

    # -- the unlinked-media index ------------------------------------------------

    def _file_unlinked(self, trail: Trail, serial: int) -> None:
        last = trail.footprints[-1]
        entry = (serial, trail)
        for index_key in (_session_port_key(last.src), _session_port_key(last.dst)):
            self._unlinked_media.setdefault(index_key, {})[trail.key] = entry

    def _unfile_unlinked(self, trail: Trail) -> int | None:
        """Take ``trail`` out of the index (a no-op when it is not filed);
        returns the serial it was filed under."""
        last = trail.footprints[-1]
        serial = None
        for index_key in (_session_port_key(last.src), _session_port_key(last.dst)):
            bucket = self._unlinked_media.get(index_key)
            if bucket is not None:
                entry = bucket.pop(trail.key, None)
                if entry is not None:
                    serial = entry[0]
                    if not bucket:
                        del self._unlinked_media[index_key]
        return serial

    def _learn_sdp(self, footprint: SipFootprint, session: Session) -> None:
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
        session.media_endpoints[party] = endpoint
        index_key = _media_index_key(endpoint)
        self._media_index[index_key] = session.call_id
        # Retroactively adopt any flow trail already touching the
        # endpoint, oldest first.  The index holds session (even) ports
        # only, so an SDP advertising an odd port adopts nothing.
        bucket = self._unlinked_media.get(index_key)
        if bucket is not None:
            for _serial, trail in sorted(bucket.values()):
                self._unfile_unlinked(trail)
                session.attach(trail)


# ---------------------------------------------------------------------------
# Per-footprint-type dispatch.  Keying and linking run once per packet;
# a type() dict probe replaces the isinstance ladder on that path.  The
# ladder survives in the _resolve_* fallbacks so Footprint *subclasses*
# still route like their base class — the resolved handler is cached per
# concrete type on first sight.
# ---------------------------------------------------------------------------


def _sip_key(footprint: SipFootprint) -> TrailKey:
    return ("sip", footprint.call_id() or f"?:{footprint.src}")


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


def _resolve_key_builder(footprint: AnyFootprint):
    if isinstance(footprint, SipFootprint):
        return _sip_key
    if isinstance(footprint, RtpFootprint):
        return _rtp_key
    if isinstance(footprint, RtcpFootprint):
        return _rtcp_key
    if isinstance(footprint, AccountingFootprint):
        return _acct_key
    if isinstance(footprint, H225Footprint):
        return _h225_key
    if isinstance(footprint, MalformedFootprint):
        return _malformed_key
    return _generic_key


_KEY_BUILDERS: dict[type, object] = {}


def _resolve_linker(footprint: AnyFootprint):
    if isinstance(footprint, SipFootprint):
        return TrailManager._link_sip
    if isinstance(footprint, AccountingFootprint):
        return TrailManager._link_accounting
    if isinstance(footprint, H225Footprint):
        return TrailManager._link_h225
    if isinstance(footprint, (RtpFootprint, RtcpFootprint)):
        return TrailManager._link_media
    return TrailManager._link_noop


_LINKERS: dict[type, object] = {}
