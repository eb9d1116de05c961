"""The media fast path: an in-profile RTP frame pays only for what it changes.

Only Events reach the Rule Matching Engine (paper §3.1), so a media
frame that cannot produce one does not need to become a footprint and
visit five generators.  The full pipeline decides which flows are in
that state: after an RTP footprint of a flow raised no event, the
engine files it with its trail under the flow's raw ``(src ip, dst ip,
sport, dport)`` bytes as one :class:`MediaProfile`.  When the flow's
next frame arrives, the engine asks each generator an RTP footprint
visits for a *hold* — what an in-profile frame of the flow changes in
that generator — and the frame is served from the profile when its own
header bytes prove it in profile (see ``ScidiveEngine._serve_media``);
any other frame takes the full pipeline, which stays the only code that
builds an ``RtpFootprint``.

A hold answers two questions for one frame, ``admits(sequence, now)``
(would this frame raise no event and change nothing but what
``advance`` applies?) and ``advance(sequence, now)`` (apply it, through
the same method the full path calls).  A generator that changes nothing
for such a frame answers :data:`NO_HOLD`; one that cannot vouch for it
answers ``None`` and the flow gets no profile.  A generator that does
not know the protocol (the :class:`~repro.core.events.EventGenerator`
default) answers ``None``, so a custom media generator turns the fast
path off rather than missing frames.

The table holds only what the full path wrote since the last write that
can change a verdict: the engine empties it whole on any such write
(see DESIGN §3, "the media fast path") and never checkpoints it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from repro.net.addr import VALUE_TABLE_CAP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.footprint import RtpFootprint
    from repro.core.trail import Trail
    from repro.net.addr import Endpoint


class MediaHold(Protocol):
    """What an in-profile frame of one flow changes in one generator."""

    def admits(self, sequence: int, now: float) -> bool: ...

    def advance(self, sequence: int, now: float) -> None: ...


# The hold of a generator that an in-profile frame leaves untouched.
NO_HOLD: MediaHold = object()  # type: ignore[assignment]


class WatchSweep:
    """The hold of a watch list none of whose watches names the flow's
    source: a frame raises nothing there and only drops the watches that
    closed, as every RTP frame does."""

    __slots__ = ("drop_closed",)

    def __init__(self, drop_closed: Callable[[float], None]) -> None:
        self.drop_closed = drop_closed

    def admits(self, sequence: int, now: float) -> bool:
        return True

    def advance(self, sequence: int, now: float) -> None:
        self.drop_closed(now)


def watch_hold(
    watches: list, src: "Endpoint", drop_closed: Callable[[float], None]
) -> MediaHold | None:
    """The hold of an orphan-flow watch list (watches with an
    ``endpoint``) for a flow from ``src``: None when a watch names
    ``src``.  Arming a watch empties the fast path, so while the hold
    lives the list only loses the watches ``drop_closed`` drops."""
    if not watches:
        return NO_HOLD
    if any(watch.endpoint == src for watch in watches):
        return None
    return WatchSweep(drop_closed)

# A profile's key is the 12 header bytes an option-less IPv4/UDP frame
# carries at offset 26: source and destination address, then the ports.
_FLOW_KEY = struct.Struct("!IIHH")
FLOW_KEY_OFFSET = 26
FLOW_KEY_END = FLOW_KEY_OFFSET + _FLOW_KEY.size


def flow_key(src: "Endpoint", dst: "Endpoint") -> bytes:
    """The wire bytes a frame from ``src`` to ``dst`` carries at
    ``frame[FLOW_KEY_OFFSET:FLOW_KEY_END]``."""
    return _FLOW_KEY.pack(src.ip.packed, dst.ip.packed, src.port, dst.port)


@dataclass(slots=True)
class MediaProfile:
    """One in-profile flow: its last eventless footprint (whose
    endpoints and SSRC a served frame must repeat), its trail, and — once
    the flow's next frame asked for them — the holds and recorder ring."""

    footprint: "RtpFootprint"
    trail: "Trail"
    holds: tuple[MediaHold, ...] | None = None
    ring_key: tuple | None = None


class MediaFastPath(dict):
    """Raw flow key → :class:`MediaProfile`, one table per engine.

    Capped like :class:`~repro.net.addr.ValueTable`: a table holding
    ``VALUE_TABLE_CAP`` profiles is dropped whole on the next new flow
    and ``drops`` counted.  ``served`` counts the frames served from it and
    ``emptied`` how often a verdict-changing write emptied it; both are
    derived counts, kept out of ``EngineStats`` and checkpoints.
    ``decoders`` is the Distiller chain the profiles were classified
    under: a profile holds only while the chain is that very tuple.
    """

    __slots__ = ("decoders", "served", "emptied", "drops")

    def __init__(self) -> None:
        self.decoders: tuple | None = None
        self.served = 0
        self.emptied = 0
        self.drops = 0

    def empty(self) -> None:
        """Forget every profile (a write that can change a verdict)."""
        if self:
            self.clear()
            self.emptied += 1

    def learn(self, key: bytes, profile: MediaProfile, decoders: tuple) -> None:
        """File ``profile`` under ``key``, classified under ``decoders``."""
        if decoders is not self.decoders:
            self.empty()
            self.decoders = decoders
        elif key not in self and len(self) >= VALUE_TABLE_CAP:
            self.clear()
            self.drops += 1
        self[key] = profile
