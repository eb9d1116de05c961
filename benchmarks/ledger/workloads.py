"""The ledger's load: four seeded, labelled traces, built before any timing.

Each workload is a committed ``*.workload`` spec under ``workloads/`` fed
to :func:`repro.workload.generate_workload` with the run's ``--seed``.
``frag-mixed`` is additionally transformed here, with public
``repro.net`` calls only: every IPv4 datagram is re-fragmented at
:data:`FRAGMENT_MTU`, half of the fragmented datagrams are delivered out
of order, and non-VoIP background frames are interleaved.  All fragments
keep their datagram's timestamp, so the reassembled footprints — and
therefore the alerts — must equal those of the unfragmented trace.

``digests.json`` pins the bytes at seed 42: a later change to
``repro.workload`` that alters a trace, its labels or the engine's alert
multiset makes the ledger fail with "workload drifted" instead of quietly
measuring a different load.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

from repro.net.addr import IPv4Address, MacAddress
from repro.net.fragmentation import fragment
from repro.net.packet import (
    ETHERTYPE_IPV4,
    EthernetFrame,
    IPv4Packet,
    build_udp_frame,
)
from repro.net.pcap import write_pcap
from repro.sim.trace import Trace
from repro.workload import (
    GroundTruth,
    generate_workload,
    load_scenario,
    trace_digest,
)

SPEC_DIR = Path(__file__).resolve().parent / "workloads"
DIGESTS_PATH = SPEC_DIR / "digests.json"
PINNED_SEED = 42

# Order is the order of BENCHMARK.json's "workloads".
WORKLOADS = ("mixed", "media-heavy", "sip-flood", "frag-mixed")
FRAGMENTED = frozenset({"frag-mixed"})

# 128 splits every SIP message into 3-4 fragments and leaves the 78-byte
# RTP frames whole, so the reassembly path is paid by signalling only.
FRAGMENT_MTU = 128
REORDER_SHARE = 0.5
BACKGROUND_SHARE = 0.15

_ETH_HEADER_LEN = 14
_BG_MACS = (MacAddress("02:00:5e:00:00:01"), MacAddress("02:00:5e:00:00:02"))
_BG_IPS = (IPv4Address.parse("192.0.2.10"), IPv4Address.parse("192.0.2.20"))


@dataclass(slots=True)
class BuiltWorkload:
    """One generated (and possibly transformed) labelled trace."""

    name: str
    seed: int
    trace: Trace
    truth: GroundTruth
    # The untransformed trace of a fragmented workload: the engine's
    # alerts on it are the reference the fragmented run must reproduce.
    base: Trace | None
    generate_s: float
    transform_s: float


def spec_path(name: str) -> Path:
    return SPEC_DIR / f"{name}.workload"


def _background_pool() -> list[bytes]:
    """Frames the Distiller must ignore, one bucket each: a non-IP
    ethertype, TCP, and UDP between ports no decoder claims (payload byte
    0 is 0x00 so neither the SIP nor the RTP/RTCP content sniff bites)."""
    src_mac, dst_mac = _BG_MACS
    src_ip, dst_ip = _BG_IPS
    pool: list[bytes] = []
    for i in range(16):
        pool.append(
            EthernetFrame(
                dst=dst_mac, src=src_mac, ethertype=0x0806, payload=bytes(28 + i)
            ).encode()
        )
        tcp = IPv4Packet(
            src=src_ip,
            dst=dst_ip,
            protocol=6,
            payload=bytes(20) + b"x" * (8 * i),
            identification=i,
        )
        pool.append(
            EthernetFrame(
                dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4, payload=tcp.encode()
            ).encode()
        )
        pool.append(
            build_udp_frame(
                src_mac,
                dst_mac,
                src_ip,
                dst_ip,
                4000 + i,
                53,
                b"\x00\x01" + bytes(16 + i),
                identification=i,
            )
        )
    return pool


def fragment_and_pad(trace: Trace, seed: int) -> Trace:
    """The ``frag-mixed`` transform (see module docstring)."""
    rng = Random(seed)
    pool = _background_pool()
    out = Trace(name=f"{trace.name}-frag{FRAGMENT_MTU}")
    append = out.append
    for record in trace:
        timestamp, frame = record.timestamp, record.frame
        if rng.random() < BACKGROUND_SHARE:
            append(timestamp, rng.choice(pool))
        if len(frame) - _ETH_HEADER_LEN <= FRAGMENT_MTU:
            append(timestamp, frame)
            continue
        eth = EthernetFrame.decode(frame)
        pieces = fragment(IPv4Packet.decode(eth.payload), FRAGMENT_MTU)
        if rng.random() < REORDER_SHARE:
            rng.shuffle(pieces)
        for piece in pieces:
            append(
                timestamp,
                EthernetFrame(
                    dst=eth.dst,
                    src=eth.src,
                    ethertype=ETHERTYPE_IPV4,
                    payload=piece.encode(),
                ).encode(),
            )
    return out


def build(
    name: str, seed: int, spec: Path | None = None, fragmented: bool | None = None
) -> BuiltWorkload:
    """Generate workload ``name`` at ``seed`` (spec/fragmented override the
    committed table — the self-test builds a toy spec this way)."""
    scenario = load_scenario(str(spec if spec is not None else spec_path(name)))
    if fragmented is None:
        fragmented = name in FRAGMENTED
    started = time.perf_counter()
    result = generate_workload(scenario, seed=seed)
    generated = time.perf_counter()
    trace, base = result.trace, None
    if fragmented:
        trace, base = fragment_and_pad(result.trace, seed), result.trace
    return BuiltWorkload(
        name=name,
        seed=seed,
        trace=trace,
        truth=result.truth,
        base=base,
        generate_s=generated - started,
        transform_s=time.perf_counter() - generated,
    )


def write_inputs(built: BuiltWorkload, workdir: Path) -> float:
    """Write what the measured children receive; returns the pcap write
    seconds (``trace.pcap`` only — the one file a deployment would write)."""
    started = time.perf_counter()
    write_pcap(workdir / "trace.pcap", built.trace)
    write_s = time.perf_counter() - started
    (workdir / "truth.json").write_text(built.truth.to_json(), encoding="utf-8")
    if built.base is not None:
        write_pcap(workdir / "base.pcap", built.base)
    return write_s


# -- digests -----------------------------------------------------------------


def alert_key(alert) -> list:
    """The fields Alert equality compares, as a JSON-able row."""
    return [
        alert.rule_id,
        alert.rule_name,
        alert.time,
        alert.session,
        int(alert.severity),
        alert.attack_class,
        alert.message,
    ]


def alert_multiset_digest(rows: list[list]) -> str:
    """Order-insensitive hash of an alert list (rows from :func:`alert_key`)."""
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def digests_of(built: BuiltWorkload, engine_alerts: list[list]) -> dict[str, str]:
    return {
        "trace_digest": trace_digest(built.trace),
        "truth_digest": built.truth.digest(),
        "alert_digest": alert_multiset_digest(engine_alerts),
    }


def pinned_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
