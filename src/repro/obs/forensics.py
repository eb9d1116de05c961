"""Alert forensics: provenance graphs, flight recorder, evidence bundles.

SCIDIVE's value is *contextual* verdicts — but a bare alert line cannot
answer the operator's first three questions: which frames caused this,
how long did detection take, and what else happened in that session?
This module makes every alert explainable:

* **Provenance**: the causal chain already exists structurally
  (``Alert.events`` → ``Event.evidence`` footprints); the
  :class:`ForensicsRecorder` closes the last gap — footprint back to the
  raw captured frame — and snapshots the whole chain into a
  :class:`ProvenanceGraph` attached to the alert, with sim-clock
  timestamps at every node.  Detection delay per alert is then a
  *derived* quantity (alert time minus the earliest evidence frame) and
  is bucketed into the per-rule ``scidive_detection_delay_seconds``
  histogram when a metrics registry is attached.

* **Flight recorder**: a bounded per-session ring of recent raw frames.
  O(1) memory per session (``ring_capacity`` records), bounded session
  count (LRU eviction past ``max_sessions``), sessions evicted on idle
  by the engine's housekeeping sweep.  A ring holds columns — the frame
  bytes, their timestamps and a ``(record_id, frame_no, token)`` triple
  per frame, ``token`` being ``id()`` of the footprint distilled from
  it — and no footprint: a footprint matters only once an event cites
  it, and then it is alive, so its token still names it (see
  :meth:`_SessionRing.find`).  The malformed quarantine ring is the one
  exception: it keeps its footprints, because it crosses checkpoints
  and its reasons are read from them.

* **Evidence bundles**: when a rule fires and a ``bundle_dir`` is
  configured, the provenance chain plus the session's ring snapshot are
  written as ``<alert-id>.json`` (graph + timeline metadata) and
  ``<alert-id>.pcap`` (the raw frames, replayable by ``repro replay``).
  Provenance frames take the evidence footprint's summary from the
  graph; every other ring frame is re-distilled by one fresh
  :class:`~repro.core.distiller.Distiller` per bundle to describe it.
  ``repro explain <alert-id> --bundle-dir ...`` renders a bundle with
  no access to the original run.

The recorder is default-on (it is how every alert gains provenance) but
deliberately cheap: one append to a bounded ring per frame, no timers,
no index and no serialisation until a rule actually fires — evidence is
resolved to its frames at alert time, by scanning one ring.
"""

from __future__ import annotations

import json
import struct
import time as _time
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.distiller import Distiller
from repro.core.footprint import (
    AccountingFootprint,
    AnyFootprint,
    H225Footprint,
    MalformedFootprint,
    RtcpFootprint,
    RtpFootprint,
    SipFootprint,
)
from repro.net.pcap import write_pcap_frames

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.alerts import Alert
    from repro.obs.registry import Histogram, MetricsRegistry

BUNDLE_FORMAT = 1

# The quarantine ring's session key and the bundle id it is written
# under: ``repro explain malformed --bundle-dir ...``.
MALFORMED_SESSION_KEY = ("malformed",)
MALFORMED_BUNDLE_ID = "malformed"

DEFAULT_RING_CAPACITY = 128
DEFAULT_MAX_SESSIONS = 4096

# Detection delays are sim-clock seconds (paper §4.3: dominated by the
# RTP inter-packet gap and link jitter), not hot-path latencies — so the
# buckets run milliseconds to a minute, unlike the µs-scale stage
# histograms.
DELAY_BUCKETS = (
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


# ---------------------------------------------------------------------------
# Process-wide default configuration
# ---------------------------------------------------------------------------


@dataclass
class ForensicsConfig:
    """Recorder defaults for engines built without explicit forensics
    arguments (the experiment harness, cluster workers, the CLI)."""

    enabled: bool = True
    ring_capacity: int = DEFAULT_RING_CAPACITY
    max_sessions: int = DEFAULT_MAX_SESSIONS
    bundle_dir: str | None = None


_default_config = ForensicsConfig()


def default_forensics_config() -> ForensicsConfig:
    return _default_config


def configure_forensics(**overrides: Any) -> ForensicsConfig:
    """Update the process-wide defaults (e.g. ``bundle_dir`` from the
    CLI before the harness builds its engines).  Returns the config."""
    for name, value in overrides.items():
        if not hasattr(_default_config, name):
            raise TypeError(f"unknown forensics option {name!r}")
        setattr(_default_config, name, value)
    return _default_config


# ---------------------------------------------------------------------------
# Footprint description (human-facing one-liners)
# ---------------------------------------------------------------------------


def describe_footprint(fp: AnyFootprint) -> str:
    """One line an analyst can read in a graph node or timeline row."""
    if isinstance(fp, SipFootprint):
        what = (
            f"request {fp.method}" if fp.is_request
            else f"response {fp.status} ({fp.method})"
        )
        return f"SIP {what} call={fp.call_id() or '-'} {fp.src}->{fp.dst}"
    if isinstance(fp, RtpFootprint):
        return (
            f"RTP ssrc=0x{fp.ssrc:08x} seq={fp.sequence} "
            f"pt={fp.payload_type} {fp.src}->{fp.dst}"
        )
    if isinstance(fp, RtcpFootprint):
        bye = " BYE" if fp.has_bye else ""
        return f"RTCP x{len(fp.packets)}{bye} {fp.src}->{fp.dst}"
    if isinstance(fp, AccountingFootprint):
        return f"ACCT {fp.action} call={fp.call_id or '-'} {fp.from_aor}->{fp.to_aor}"
    if isinstance(fp, H225Footprint):
        return f"H225 {fp.message_type} crv={fp.call_reference} {fp.src}->{fp.dst}"
    if isinstance(fp, MalformedFootprint):
        return f"MALFORMED {fp.claimed_protocol.value}: {fp.reason} {fp.src}->{fp.dst}"
    return f"{fp.protocol.value} {fp.src}->{fp.dst}"  # pragma: no cover


# ---------------------------------------------------------------------------
# Provenance graph
# ---------------------------------------------------------------------------


@dataclass
class ProvenanceGraph:
    """The causal chain behind one alert: frames → footprints → events
    → alert, as plain JSON-safe node/edge lists.

    Node ids are ``frame:<record-id>``, ``footprint:<n>``,
    ``event:<n>`` and ``alert:<alert-id>``; edges point in causal
    direction.  Deliberately a plain (non-slots) dataclass of
    primitives: it crosses process boundaries inside pickled alerts and
    serialises into evidence bundles verbatim.
    """

    alert_id: str = ""
    rule_id: str = ""
    alert_time: float = 0.0
    frames: list[dict] = field(default_factory=list)
    footprints: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    edges: list[list[str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.footprints or self.events or self.frames)

    @property
    def earliest_frame_time(self) -> float | None:
        """Sim-clock timestamp of the oldest evidence frame (the anchor
        for derived detection delay)."""
        if not self.frames:
            return None
        return min(f["timestamp"] for f in self.frames)

    @property
    def detection_delay(self) -> float | None:
        t0 = self.earliest_frame_time
        return self.alert_time - t0 if t0 is not None else None

    def summary(self) -> dict[str, Any]:
        """Counts-only view, shared by ``Alert.to_dict`` and ``/alerts``."""
        out: dict[str, Any] = {
            "frames": len(self.frames),
            "footprints": len(self.footprints),
            "events": len(self.events),
        }
        delay = self.detection_delay
        if delay is not None:
            out["detection_delay"] = round(delay, 6)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "alert_id": self.alert_id,
            "rule_id": self.rule_id,
            "alert_time": round(self.alert_time, 6),
            "frames": self.frames,
            "footprints": self.footprints,
            "events": self.events,
            "edges": self.edges,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProvenanceGraph":
        return cls(
            alert_id=payload.get("alert_id", ""),
            rule_id=payload.get("rule_id", ""),
            alert_time=float(payload.get("alert_time", 0.0)),
            frames=list(payload.get("frames", [])),
            footprints=list(payload.get("footprints", [])),
            events=list(payload.get("events", [])),
            edges=[list(e) for e in payload.get("edges", [])],
        )

    def render(self) -> str:
        """Indented causal tree, leaves (frames) outermost."""
        by_node: dict[str, dict] = {}
        for entry in self.frames + self.footprints + self.events:
            by_node[entry["node"]] = entry
        children: dict[str, list[str]] = {}
        for src, dst in self.edges:
            children.setdefault(dst, []).append(src)
        lines = [f"alert:{self.alert_id} {self.rule_id} t={self.alert_time:.4f}"]

        def walk(node: str, depth: int) -> None:
            for cause in children.get(node, []):
                entry = by_node.get(cause, {})
                when = entry.get("timestamp", entry.get("time"))
                stamp = f" t={when:.4f}" if isinstance(when, (int, float)) else ""
                label = entry.get("summary") or entry.get("name") or cause
                lines.append("  " * (depth + 1) + f"<- {cause}{stamp} {label}")
                walk(cause, depth + 1)

        walk(f"alert:{self.alert_id}", 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


# One record of a session ring as plain values:
# ``(record_id, frame_no, timestamp, frame)``.
RingRow = tuple[int, int, float, bytes]

# A ring's ``(record_id, frame_no, token)`` triple, laid out as three
# items of its ``array('q')``.  Packing the triple is one call where
# three item writes would each convert an int on their own.
_TRIPLE = struct.Struct("=qqq")

# The bundle timeline's summary for a ring frame that a fresh Distiller
# cannot describe on its own.  A datagram that arrived in fragments is
# filed under the fragment that completed its reassembly; alone, that
# fragment is only held for reassembly again.
REASSEMBLED_FRAGMENT_SUMMARY = "IPv4 fragment that completed a reassembled datagram"


@dataclass(slots=True)
class FrameRecord:
    """One captured frame of the quarantine ring, with the footprint
    distilled from it: the value :meth:`ForensicsRecorder.malformed_records`
    builds and the checkpoint carries."""

    record_id: int
    frame_no: int
    timestamp: float
    frame: bytes
    footprint: AnyFootprint


class _SessionRing:
    """The last ``ring_capacity`` records of one session, as columns: the
    frames, their timestamps, and a flat ``array('q')`` of ``(record_id,
    frame_no, token)`` triples, ``token`` being ``id()`` of the footprint
    distilled from the frame when it was recorded.  The ring holds no
    footprint and no per-record object.

    The columns grow to ``capacity`` and then wrap: each new record
    overwrites the oldest in place, and ``head`` is the slot of the
    oldest record (0 until the ring is full), so a full ring never
    shifts or resizes its columns.
    """

    __slots__ = ("frames", "stamps", "ids", "head", "last_seen")

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.stamps = array("d")
        self.ids = array("q")
        self.head = 0
        self.last_seen = 0.0

    def push(
        self, record_id: int, frame_no: int, timestamp: float, frame: bytes,
        footprint: AnyFootprint, capacity: int,
    ) -> None:
        """Append one record; once the ring holds ``capacity``, in place
        of the oldest."""
        frames = self.frames
        if len(frames) < capacity:
            frames.append(frame)
            self.stamps.append(timestamp)
            self.ids.frombytes(_TRIPLE.pack(record_id, frame_no, id(footprint)))
            return
        head = self.head
        frames[head] = frame
        self.stamps[head] = timestamp
        _TRIPLE.pack_into(self.ids, _TRIPLE.size * head, record_id, frame_no, id(footprint))
        self.head = head + 1 if head + 1 < capacity else 0

    def oldest_first(self) -> list[int]:
        """The ring's slot indices, oldest record first."""
        head = self.head
        return [*range(head, len(self.frames)), *range(head)]

    def row(self, slot: int) -> RingRow:
        ids, at = self.ids, 3 * slot
        return ids[at], ids[at + 1], self.stamps[slot], self.frames[slot]

    def rows(self) -> list[RingRow]:
        return [self.row(slot) for slot in self.oldest_first()]

    def find(self, fp: AnyFootprint) -> int | None:
        """Slot of the record ``fp`` was filed under, while the ring
        still holds it: the newest record whose token is ``id(fp)``.

        Sound because ``fp`` is alive when its alert fires, so no
        footprint recorded after ``fp`` shares its address; records
        enter in order and the oldest leaves first, so the newest match
        is ``fp``'s own record, or there is none.  A stale token — a
        dead footprint's, at the same address — can only be older.
        That needs ``fp`` to have been recorded: the engine files every
        footprint before any generator sees it, and a checkpoint is
        restored into an engine whose session rings are empty."""
        token, head = id(fp), self.head
        tokens = self.ids[2::3]
        # Slots before ``head`` were written after the ones from ``head``
        # on; each part is searched newest-first, by a reversed copy.
        for start, stop in ((0, head), (head, len(tokens))):
            part = tokens[start:stop]
            part.reverse()
            try:
                return stop - 1 - part.index(token)
            except ValueError:
                continue
        return None


class _QuarantineRing(_SessionRing):
    """The malformed quarantine ring: the same columns plus the
    footprints.  It alone crosses checkpoints (as :class:`FrameRecord`s)
    and a malformed footprint's ``reason`` may depend on reassembly
    state, so its frames cannot be re-described from their bytes."""

    __slots__ = ("footprints",)

    def __init__(self) -> None:
        super().__init__()
        self.footprints: list[AnyFootprint] = []

    def push(
        self, record_id: int, frame_no: int, timestamp: float, frame: bytes,
        footprint: AnyFootprint, capacity: int,
    ) -> None:
        footprints = self.footprints
        if len(footprints) < capacity:
            footprints.append(footprint)
        else:
            footprints[self.head] = footprint
        super().push(record_id, frame_no, timestamp, frame, footprint, capacity)

    def records(self) -> list[FrameRecord]:
        return [
            FrameRecord(*self.row(slot), self.footprints[slot]) for slot in self.oldest_first()
        ]


def _session_key(fp: AnyFootprint) -> tuple:
    """Mirror of the trail/shard session keying: signalling by call id,
    media by destination flow endpoint, everything else pooled.

    Malformed footprints get their own quarantine ring: hostile input
    the decoders rejected is exactly what an operator wants to inspect
    (``repro explain malformed``), and pooling it with benign misc
    traffic would let a malformed flood evict legitimate evidence.

    The footprint classes are disjoint, so the order of the tests only
    sets their cost: media first, then signalling, as traffic runs."""
    if isinstance(fp, (RtpFootprint, RtcpFootprint)):
        return ("flow", fp.dst.ip.packed, fp.dst.port)
    if isinstance(fp, SipFootprint):
        call_id = fp.call_id()
        return ("call", call_id) if call_id else ("sip", 0)
    if isinstance(fp, MalformedFootprint):
        return ("malformed",)
    if isinstance(fp, AccountingFootprint):
        return ("call", fp.call_id) if fp.call_id else ("acct", 0)
    if isinstance(fp, H225Footprint):
        return ("h225", fp.call_reference)
    return ("misc", 0)


class ForensicsRecorder:
    """Per-engine flight recorder + provenance builder.

    Wiring (done by :class:`~repro.core.engine.ScidiveEngine`):
    ``record_frame`` is called once per distilled frame,
    ``on_alert`` subscribes to the engine's :class:`AlertLog`, and
    ``expire_idle`` rides the housekeeping sweep.
    """

    def __init__(
        self,
        engine_name: str = "scidive",
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        bundle_dir: str | Path | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1 (got {ring_capacity})")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1 (got {max_sessions})")
        self.engine_name = engine_name
        self.ring_capacity = ring_capacity
        self.max_sessions = max_sessions
        self.bundle_dir = str(bundle_dir) if bundle_dir is not None else None
        # LRU by last touch: move_to_end on every record keeps the
        # coldest session first, so both capacity eviction and idle
        # expiry pop from the front in O(1).
        self._sessions: OrderedDict[tuple, _SessionRing] = OrderedDict()
        self._rec_seq = 0
        self._alert_seq = 0
        self.frames_recorded = 0
        self.sessions_evicted = 0
        self.bundles_written = 0
        self.last_frame_monotonic: float | None = None
        self._delay_hist: "Histogram | None" = None
        if registry is not None:
            self._delay_hist = registry.histogram(
                "scidive_detection_delay_seconds",
                "Sim-clock delay from the earliest evidence frame to the alert",
                ("engine", "rule_id"),
                buckets=DELAY_BUCKETS,
            )

    @classmethod
    def from_config(
        cls,
        engine_name: str,
        registry: "MetricsRegistry | None" = None,
        config: ForensicsConfig | None = None,
    ) -> "ForensicsRecorder | None":
        """Build a recorder from the process-wide defaults (None = off)."""
        config = config if config is not None else _default_config
        if not config.enabled:
            return None
        return cls(
            engine_name=engine_name,
            ring_capacity=config.ring_capacity,
            max_sessions=config.max_sessions,
            bundle_dir=config.bundle_dir,
            registry=registry,
        )

    # -- recording (hot path) --------------------------------------------------

    # The ring a footprint's frame is filed in.
    session_key = staticmethod(_session_key)

    def record_frame(
        self, frame_no: int, frame: bytes, timestamp: float, footprint: AnyFootprint
    ) -> None:
        """Append one frame to its session ring (called once per frame)."""
        self.record(_session_key(footprint), frame_no, frame, timestamp, footprint)

    def record(
        self, key: tuple, frame_no: int, frame: bytes, timestamp: float,
        footprint: AnyFootprint | None,
    ) -> None:
        """Append one frame to the ring ``key`` names.  The media fast
        path records its frames here with no footprint: the token it
        files is ``id(None)``, which no footprint can hold."""
        self.last_frame_monotonic = _time.monotonic()
        self.frames_recorded += 1
        sessions = self._sessions
        ring = sessions.get(key)
        if ring is None:
            if len(sessions) >= self.max_sessions:
                sessions.popitem(last=False)
                self.sessions_evicted += 1
            ring = _QuarantineRing() if key == MALFORMED_SESSION_KEY else _SessionRing()
            sessions[key] = ring
        else:
            sessions.move_to_end(key)
        ring.last_seen = timestamp
        self._rec_seq += 1
        ring.push(self._rec_seq, frame_no, timestamp, frame, footprint, self.ring_capacity)

    def expire_idle(self, now: float, timeout: float) -> int:
        """Evict sessions idle past ``timeout`` (housekeeping sweep)."""
        dropped = 0
        horizon = now - timeout
        sessions = self._sessions
        while sessions and next(iter(sessions.values())).last_seen < horizon:
            sessions.popitem(last=False)
            dropped += 1
        self.sessions_evicted += dropped
        return dropped

    # -- the malformed quarantine ---------------------------------------------

    def malformed_records(self) -> list[FrameRecord]:
        """The quarantine ring: recent frames the decoders rejected."""
        ring = self._sessions.get(MALFORMED_SESSION_KEY)
        return ring.records() if ring is not None else []

    def malformed_state(self) -> list[FrameRecord]:
        """The quarantine ring as a picklable snapshot (checkpointing).

        Only this ring crosses checkpoints: the per-session evidence
        rings are archaeology for alerts that already carry their own
        provenance frames, but the quarantine's diagnoses of hostile
        input would otherwise vanish on every worker respawn."""
        return self.malformed_records()

    def load_malformed_state(self, records: list[FrameRecord]) -> None:
        """Rebuild the quarantine ring from a checkpoint snapshot."""
        if not records:
            return
        ring = self._sessions.get(MALFORMED_SESSION_KEY)
        if ring is None:
            ring = _QuarantineRing()
            self._sessions[MALFORMED_SESSION_KEY] = ring
        for r in records:
            ring.push(
                r.record_id, r.frame_no, r.timestamp, r.frame, r.footprint,
                self.ring_capacity,
            )
        ring.last_seen = max(ring.last_seen, max(r.timestamp for r in records))
        self._rec_seq = max(self._rec_seq, max(r.record_id for r in records))

    # -- sizes ----------------------------------------------------------------

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def record_count(self) -> int:
        """Records held across all rings (summed on demand)."""
        return sum(len(ring.frames) for ring in self._sessions.values())

    def last_frame_age(self) -> float | None:
        """Wall-clock seconds since the last recorded frame."""
        if self.last_frame_monotonic is None:
            return None
        return _time.monotonic() - self.last_frame_monotonic

    # -- alert side ------------------------------------------------------------

    def on_alert(self, alert: "Alert") -> None:
        """AlertLog subscriber: attach id + provenance, observe delay,
        write the evidence bundle when configured."""
        self._alert_seq += 1
        alert_id = f"{self.engine_name}-{self._alert_seq}"
        graph, rows = self._build_graph(alert, alert_id)
        object.__setattr__(alert, "alert_id", alert_id)
        object.__setattr__(alert, "provenance", graph)
        if self._delay_hist is not None:
            delay = graph.detection_delay
            if delay is not None:
                self._delay_hist.labels(
                    engine=self.engine_name, rule_id=alert.rule_id
                ).observe(max(delay, 0.0))
        if self.bundle_dir is not None:
            session_ring = self._sessions.get(("call", alert.session))
            write_bundle(
                self.bundle_dir, alert, graph,
                provenance_rows=rows,
                session_rows=session_ring.rows() if session_ring else (),
            )
            self.bundles_written += 1

    def _record_for(self, fp: AnyFootprint) -> RingRow | None:
        """The record ``fp`` was filed under, while its ring still holds
        it.  Footprints are frozen, so the session key computed now is
        the key ``record_frame`` computed; the scan is by token, newest
        first, over at most ``ring_capacity`` records."""
        ring = self._sessions.get(_session_key(fp))
        if ring is not None:
            slot = ring.find(fp)
            if slot is not None:
                return ring.row(slot)
        return None

    def _build_graph(
        self, alert: "Alert", alert_id: str
    ) -> tuple[ProvenanceGraph, list[RingRow]]:
        alert_node = f"alert:{alert_id}"
        frames: list[dict] = []
        footprints: list[dict] = []
        events: list[dict] = []
        edges: list[list[str]] = []
        fp_nodes: dict[int, str] = {}
        rows_used: dict[int, RingRow] = {}
        for index, event in enumerate(alert.events):
            event_node = f"event:{index}"
            events.append({
                "node": event_node,
                "name": event.name,
                "time": round(event.time, 6),
                "session": event.session,
            })
            edges.append([event_node, alert_node])
            for fp in event.evidence:
                node = fp_nodes.get(id(fp))
                if node is None:
                    node = f"footprint:{len(footprints)}"
                    fp_nodes[id(fp)] = node
                    entry = {
                        "node": node,
                        "protocol": fp.protocol.value,
                        "timestamp": round(fp.timestamp, 6),
                        "summary": describe_footprint(fp),
                    }
                    row = self._record_for(fp)
                    if row is not None:
                        record_id, frame_no, timestamp, frame = row
                        if record_id not in rows_used:
                            rows_used[record_id] = row
                            frames.append({
                                "node": f"frame:{record_id}",
                                "frame_no": frame_no,
                                "timestamp": round(timestamp, 6),
                                "bytes": len(frame),
                                "protocol": fp.protocol.value,
                                "summary": describe_footprint(fp),
                            })
                        entry["frame_no"] = frame_no
                        edges.append([f"frame:{record_id}", node])
                    footprints.append(entry)
                edges.append([node, event_node])
        frames.sort(key=lambda f: f["timestamp"])
        graph = ProvenanceGraph(
            alert_id=alert_id,
            rule_id=alert.rule_id,
            alert_time=alert.time,
            frames=frames,
            footprints=footprints,
            events=events,
            edges=edges,
        )
        return graph, list(rows_used.values())


# ---------------------------------------------------------------------------
# Evidence bundles
# ---------------------------------------------------------------------------


def write_bundle(
    bundle_dir: str | Path,
    alert: "Alert",
    graph: ProvenanceGraph,
    provenance_rows: list[RingRow],
    session_rows: "list[RingRow] | tuple" = (),
) -> Path:
    """Write ``<alert-id>.json`` + ``<alert-id>.pcap`` and return the
    JSON path.  The JSON alone suffices for ``repro explain``; the pcap
    holds the raw frames for replay through any pcap tool.

    A provenance frame's summary is its evidence footprint's, as the
    graph holds it; the session ring's other frames are described by
    distilling them, oldest first, through one fresh Distiller."""
    directory = Path(bundle_dir)
    directory.mkdir(parents=True, exist_ok=True)
    summaries = {frame["node"]: frame["summary"] for frame in graph.frames}
    merged = {row[0]: row for row in list(session_rows) + list(provenance_rows)}
    ordered = sorted(merged.values(), key=lambda row: (row[2], row[0]))
    distiller = Distiller()
    timeline = []
    for record_id, frame_no, timestamp, frame in ordered:
        summary = summaries.get(f"frame:{record_id}")
        in_provenance = summary is not None
        if summary is None:
            footprint = distiller.distill(frame, timestamp)
            summary = (
                REASSEMBLED_FRAGMENT_SUMMARY if footprint is None
                else describe_footprint(footprint)
            )
        timeline.append({
            "record_id": record_id,
            "frame_no": frame_no,
            "timestamp": round(timestamp, 6),
            "bytes": len(frame),
            "summary": summary,
            "in_provenance": in_provenance,
        })
    payload = {
        "format": BUNDLE_FORMAT,
        "alert": alert.to_dict(),
        "provenance": graph.to_dict(),
        "frames": timeline,
    }
    json_path = directory / f"{graph.alert_id}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_pcap_frames(
        directory / f"{graph.alert_id}.pcap",
        [(timestamp, frame) for _, _, timestamp, frame in ordered],
    )
    return json_path


def write_malformed_bundle(
    bundle_dir: str | Path, recorder: ForensicsRecorder
) -> Path | None:
    """Write the quarantine ring as ``malformed.json`` + ``malformed.pcap``
    so hostile input survives the run for offline inspection.  Returns
    None (and writes nothing) when the quarantine is empty."""
    records = recorder.malformed_records()
    if not records:
        return None
    directory = Path(bundle_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": BUNDLE_FORMAT,
        "malformed": True,
        "engine": recorder.engine_name,
        "frames": [
            {
                "record_id": record.record_id,
                "frame_no": record.frame_no,
                "timestamp": round(record.timestamp, 6),
                "bytes": len(record.frame),
                "claimed_protocol": record.footprint.protocol.value,
                "reason": getattr(record.footprint, "reason", ""),
                "src": str(record.footprint.src),
                "dst": str(record.footprint.dst),
            }
            for record in records
        ],
    }
    json_path = directory / f"{MALFORMED_BUNDLE_ID}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_pcap_frames(
        directory / f"{MALFORMED_BUNDLE_ID}.pcap",
        [
            (record.timestamp, record.frame)
            for record in sorted(records, key=lambda r: (r.timestamp, r.record_id))
        ],
    )
    return json_path


def format_malformed_bundle(bundle: dict) -> str:
    """Render the quarantine bundle: one line per rejected frame."""
    frames = bundle.get("frames", [])
    lines = [
        f"MALFORMED QUARANTINE — {len(frames)} rejected frame(s) "
        f"(engine {bundle.get('engine', '?')})",
        "",
    ]
    for frame in frames:
        lines.append(
            f"  t={float(frame['timestamp']):10.4f}  frame #{frame['frame_no']:<6} "
            f"{frame['src']} -> {frame['dst']}  "
            f"claimed={frame['claimed_protocol']}  {frame['bytes']}B"
        )
        if frame.get("reason"):
            lines.append(f"      reason: {frame['reason']}")
    lines.append("")
    lines.append("raw frames: malformed.pcap alongside this bundle")
    return "\n".join(lines)


def list_bundles(bundle_dir: str | Path) -> list[str]:
    directory = Path(bundle_dir)
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.json"))


def load_bundle(bundle_dir: str | Path, alert_id: str) -> dict:
    path = Path(bundle_dir) / f"{alert_id}.json"
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != BUNDLE_FORMAT:
        raise ValueError(
            f"unsupported bundle format {payload.get('format')!r} in {path}"
        )
    return payload


def format_bundle(bundle: dict) -> str:
    """Render a bundle (graph + timeline) from its JSON alone."""
    if bundle.get("malformed"):
        return format_malformed_bundle(bundle)
    alert = bundle.get("alert", {})
    graph = ProvenanceGraph.from_dict(bundle.get("provenance", {}))
    lines = [
        f"ALERT {graph.alert_id}  {alert.get('rule_id')} "
        f"({alert.get('severity')}) t={alert.get('time')} "
        f"session={alert.get('session') or '-'}",
        f"  {alert.get('message', '')}",
    ]
    if alert.get("pack_version") or alert.get("rule_source"):
        provenance = alert.get("pack_version", "?")
        source = alert.get("rule_source")
        lines.append(
            f"  rule: {provenance}" + (f"  ({source})" if source else "")
        )
    delay = graph.detection_delay
    if delay is not None:
        lines.append(f"  detection delay: {delay * 1000:.1f} ms")
    lines.append("")
    lines.append("Provenance (causes, leaves outermost):")
    lines.append(graph.render())
    lines.append("")
    lines.append("Timeline:")
    rows: list[tuple[float, str]] = []
    for frame in bundle.get("frames", []):
        marker = "*" if frame.get("in_provenance") else " "
        rows.append((
            float(frame["timestamp"]),
            f"{marker} frame #{frame['frame_no']:<6} {frame['summary']}",
        ))
    for event in graph.events:
        rows.append((float(event["time"]), f"* event {event['name']}"))
    rows.append((
        float(alert.get("time", graph.alert_time)),
        f"* ALERT {alert.get('rule_id')}: {alert.get('message', '')}",
    ))
    rows.sort(key=lambda r: r[0])
    for when, text in rows:
        lines.append(f"  t={when:10.4f}  {text}")
    return "\n".join(lines)
