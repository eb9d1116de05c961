"""The chaos harness behind ``repro chaos``: attack replay under fault.

An IDS earns trust by what it does on its *worst* day, so this module
replays the paper's four attack scenarios while actively trying to break
the pipeline with the faults a hostile or merely unlucky network
produces:

* **frame mutation** — bit flips and truncations of media-plane frames
  (interleaved *copies*; the originals still flow, so the attack's
  signalling evidence is intact and its alerts must still fire);
* **hostile signalling** — synthesized SIP with oversized SDP bodies,
  invalid UTF-8 headers, truncated start lines and raw garbage on the
  SIP port, each under its own Call-ID so it cannot legitimately alter
  the real dialogs;
* **fragment bombs** — IPv4 fragments that never complete, aimed at the
  reassembly buffers;
* **clock skew** — a tail segment replayed one hour in the future and
  then back in the past, after the originals so state expiry cannot
  retroactively suppress alerts that already fired;
* **worker crashes** — in cluster mode, ``inject_crash`` against
  rotating workers with checkpointing on;
* **volumetric flood** — a sustained INVITE/RTP burst from one flood
  host interleaved through the replay (``flood_frames > 0``).  Cluster
  mode runs with the overload control plane enabled and a deliberately
  shallow queue, so the run exercises the penalty box for real: the
  invariant is that the controller *reports shed* while the attack's
  signalling alerts still fire.

Invariants checked per attack (the definition of surviving the day):

1. **no uncaught exception** anywhere on the frame path;
2. **the attack is still detected** — the scenario's headline rule
   appears in the alert output despite the noise;
3. **bounded state** — live trails and pending reassembly buffers end
   the run below their configured bounds (the fragment bombs and skew
   segment exist precisely to test this).

Everything is seeded: the same :class:`ChaosConfig` replays the same
chaos, so a failure found in CI reproduces on a laptop.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.cluster.sharding import PLANE_SIGNALLING, shard_key
from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import (
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    EthernetFrame,
    IPv4Packet,
    build_udp_frame,
)

# The four paper attacks and the rule that *must* survive the chaos.
REQUIRED_RULES = {
    "bye-attack": "BYE-001",
    "call-hijack": "HIJACK-001",
    "fake-im": "FAKEIM-001",
    "rtp-attack": "RTP-003",
}

_CHAOS_MAC = MacAddress("de:ad:be:ef:00:66")
_PROXY_MAC = MacAddress("de:ad:be:ef:00:01")
_CHAOS_IP = IPv4Address.parse("10.66.66.66")
_PROXY_IP = IPv4Address.parse("10.0.0.1")
# The flood host is distinct from the hostile-signalling host so the
# penalty box's heavy-hitter verdict lands on the volume, not the noise.
_FLOOD_MAC = MacAddress("de:ad:be:ef:00:99")
_FLOOD_IP = IPv4Address.parse("10.66.66.99")

_ETH_HEADER_LEN = 14


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible chaos run (every knob feeds the seeded RNG)."""

    seed: int = 7
    attacks: tuple[str, ...] = tuple(sorted(REQUIRED_RULES))
    # 0 = single engine; >= 1 = ScidiveCluster with that many process
    # workers (serial workers cannot crash, so chaos never uses them).
    workers: int = 0
    inject_crashes: bool = True      # cluster mode only
    mutation_rate: float = 0.25      # P(media frame spawns a mutant copy)
    synth_sip: int = 16              # hostile signalling frames per attack
    fragment_bombs: int = 32         # never-completing fragments per attack
    skew_frames: int = 20            # frames replayed under clock skew
    flood_frames: int = 0            # sustained INVITE/RTP flood (0 = off)
    trail_bound: int = 10_000
    reassembly_bound: int = 4_096

    def validate(self) -> "ChaosConfig":
        unknown = [a for a in self.attacks if a not in REQUIRED_RULES]
        if unknown:
            raise ValueError(
                f"unknown attacks {unknown}; known: {sorted(REQUIRED_RULES)}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (got {self.workers})")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1] (got {self.mutation_rate})")
        if self.flood_frames < 0:
            raise ValueError(
                f"flood_frames must be >= 0 (got {self.flood_frames})"
            )
        return self


@dataclass
class AttackOutcome:
    """What one attack's replay-under-fault produced."""

    attack: str
    required_rule: str
    frames: int = 0
    mutants: int = 0
    flood: int = 0
    alerts: int = 0
    detected: bool = False
    exceptions: list = field(default_factory=list)   # (stage, repr) pairs
    live_trails: int = 0
    reassembly_pending: int = 0
    worker_restarts: int = 0
    checkpoints: int = 0
    overload: dict = field(default_factory=dict)     # cluster flood runs only
    violations: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "attack": self.attack,
            "required_rule": self.required_rule,
            "frames": self.frames,
            "mutants": self.mutants,
            "flood": self.flood,
            "alerts": self.alerts,
            "detected": self.detected,
            "exceptions": list(self.exceptions),
            "live_trails": self.live_trails,
            "reassembly_pending": self.reassembly_pending,
            "worker_restarts": self.worker_restarts,
            "checkpoints": self.checkpoints,
            "overload": dict(self.overload),
            "violations": list(self.violations),
        }


@dataclass
class ChaosReport:
    """The harness verdict: per-attack outcomes plus the global gate."""

    config: ChaosConfig
    outcomes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(not outcome.violations for outcome in self.outcomes)

    @property
    def violations(self) -> list:
        return [
            f"{outcome.attack}: {violation}"
            for outcome in self.outcomes
            for violation in outcome.violations
        ]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.config.seed,
            "workers": self.config.workers,
            "backend": "process" if self.config.workers else "engine",
            "attacks": [outcome.as_dict() for outcome in self.outcomes],
            "violations": self.violations,
        }


# ---------------------------------------------------------------------------
# Fault generators
# ---------------------------------------------------------------------------


def _mutate_bit_flip(rng: random.Random, frame: bytes) -> bytes:
    """Flip 1-3 bits past the Ethernet header (the classic line noise)."""
    raw = bytearray(frame)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(_ETH_HEADER_LEN, len(raw)) if len(raw) > _ETH_HEADER_LEN else 0
        raw[at] ^= 1 << rng.randrange(8)
    return bytes(raw)


def _mutate_truncate(rng: random.Random, frame: bytes) -> bytes:
    """Cut the frame mid-packet (a capture or MTU casualty)."""
    if len(frame) <= 2:
        return frame
    return frame[: rng.randrange(1, len(frame))]


_MUTATORS = (_mutate_bit_flip, _mutate_truncate)


def _synth_sip_frames(rng: random.Random, count: int) -> list:
    """Hostile signalling under private Call-IDs: oversized SDP, invalid
    UTF-8 headers, truncated messages, raw garbage on the SIP port."""
    frames = []
    for n in range(count):
        call_id = f"chaos-{rng.randrange(1 << 30)}-{n}@evil"
        shape = n % 4
        if shape == 0:
            # Oversized SDP body — a decoder that buffers naively eats 50 KB.
            body = b"v=0\r\n" + b"a=" + b"A" * 50_000 + b"\r\n"
            payload = (
                f"INVITE sip:victim@10.0.0.1 SIP/2.0\r\n"
                f"Call-ID: {call_id}\r\n"
                f"From: <sip:mallory@evil>;tag=1\r\nTo: <sip:victim@10.0.0.1>\r\n"
                f"CSeq: 1 INVITE\r\nContent-Type: application/sdp\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
        elif shape == 1:
            # Invalid UTF-8 in a header value.
            payload = (
                b"MESSAGE sip:victim@10.0.0.1 SIP/2.0\r\n"
                b"Call-ID: " + call_id.encode() + b"\r\n"
                b"Subject: \xff\xfe\xfd broken \x80 encoding\r\n"
                b"From: <sip:mallory@evil>;tag=1\r\nTo: <sip:victim@10.0.0.1>\r\n"
                b"CSeq: 1 MESSAGE\r\nContent-Length: 0\r\n\r\n"
            )
        elif shape == 2:
            payload = b"INVITE sip:trunca"  # mid-start-line truncation
        else:
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
        frames.append(
            build_udp_frame(
                _CHAOS_MAC, _PROXY_MAC, _CHAOS_IP, _PROXY_IP,
                rng.randrange(1024, 65535), 5060, payload,
                identification=rng.randrange(1 << 16),
            )
        )
    return frames


def _fragment_bombs(rng: random.Random, count: int) -> list:
    """First fragments whose tails never arrive: each occupies a
    reassembly slot until the timeout sweep evicts it."""
    frames = []
    for _ in range(count):
        ip = IPv4Packet(
            src=_CHAOS_IP,
            dst=_PROXY_IP,
            protocol=IPPROTO_UDP,
            payload=bytes(8) + bytes(rng.randrange(256) for _ in range(64)),
            identification=rng.randrange(1 << 16),
            flags_mf=True,  # "more fragments" — a lie, forever
        )
        frames.append(
            EthernetFrame(
                dst=_PROXY_MAC, src=_CHAOS_MAC,
                ethertype=ETHERTYPE_IPV4, payload=ip.encode(),
            ).encode()
        )
    return frames


def _flood_frames(rng: random.Random, count: int) -> list:
    """A volumetric burst from one flood host: fresh-Call-ID INVITEs
    (signalling broadcast — the expensive plane) alternating with RTP
    datagrams at a media port.  One source address on purpose: the
    penalty box must be able to name the flooder."""
    frames = []
    for n in range(count):
        if n % 2 == 0:
            payload = (
                f"INVITE sip:victim@10.0.0.1 SIP/2.0\r\n"
                f"Via: SIP/2.0/UDP 10.66.66.99:5060;branch=z9hG4bKfl{n:08x}\r\n"
                f"Call-ID: flood-{n:08x}@evil\r\n"
                f"From: <sip:flood@evil>;tag=f{n:x}\r\n"
                f"To: <sip:victim@10.0.0.1>\r\n"
                f"CSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n"
            ).encode()
            src_port, dst_port = 5060, 5060
        else:
            payload = (
                b"\x80\x00"
                + (n & 0xFFFF).to_bytes(2, "big")
                + ((n * 160) & 0xFFFFFFFF).to_bytes(4, "big")
                + b"\xf1\x00\xd9\x90"
                + b"\x00" * 24
            )
            src_port, dst_port = 20066, 20000
        frames.append(
            build_udp_frame(
                _FLOOD_MAC, _PROXY_MAC, _FLOOD_IP, _PROXY_IP,
                src_port, dst_port, payload,
                identification=rng.randrange(1 << 16),
            )
        )
    return frames


def _build_chaos_stream(rng: random.Random, records, config: ChaosConfig):
    """Interleave faults into one attack trace.

    Returns ``(stream, mutants)`` where ``stream`` is a list of
    ``(frame, timestamp)``.  Originals keep their order and timestamps,
    so the attack's own alert-bearing sequences are untouched; every
    injected frame is an *addition* the pipeline must shrug off.
    """
    stream = []
    mutants = 0
    synth = _synth_sip_frames(rng, config.synth_sip)
    bombs = _fragment_bombs(rng, config.fragment_bombs)
    extras = synth + bombs
    rng.shuffle(extras)
    flood = _flood_frames(rng, config.flood_frames) if config.flood_frames else []
    flood_sent = 0
    # Spread the injected frames across the replay.
    inject_every = max(1, len(records) // max(1, len(extras)))
    extra_iter = iter(extras)
    for index, record in enumerate(records):
        frame, ts = record.frame, record.timestamp
        stream.append((frame, ts))
        # Flood frames interleave uniformly, so queue pressure is
        # *sustained* across the replay rather than one terminal burst.
        if flood:
            quota = (index + 1) * len(flood) // len(records)
            while flood_sent < quota:
                stream.append((flood[flood_sent], ts))
                flood_sent += 1
        # Media-plane frames spawn mutated twins; signalling stays clean
        # so the dialog evidence the rules need is never itself corrupted.
        if (
            config.mutation_rate > 0
            and rng.random() < config.mutation_rate
            and shard_key(frame).plane != PLANE_SIGNALLING
        ):
            mutator = _MUTATORS[rng.randrange(len(_MUTATORS))]
            stream.append((mutator(rng, frame), ts))
            mutants += 1
        if index % inject_every == 0:
            extra = next(extra_iter, None)
            if extra is not None:
                stream.append((extra, ts))
                mutants += 1
    for extra in extra_iter:
        stream.append((extra, records[-1].timestamp if records else 0.0))
        mutants += 1
    while flood_sent < len(flood):
        stream.append((flood[flood_sent], records[-1].timestamp if records else 0.0))
        flood_sent += 1
    # Clock-skew tail: replay a slice one hour in the future (forcing
    # every expiry sweep at once), then back in the past.  Placed after
    # the originals so expiry cannot suppress alerts that already fired.
    if records and config.skew_frames:
        tail = [r for r in records[-config.skew_frames:]]
        last_ts = records[-1].timestamp
        for record in tail:
            stream.append((record.frame, last_ts + 3600.0))
            mutants += 1
        for record in tail:
            stream.append((record.frame, max(0.0, last_ts - 3600.0)))
            mutants += 1
    return stream, mutants


# ---------------------------------------------------------------------------
# The runs
# ---------------------------------------------------------------------------


def _attack_records(attack: str, seed: int):
    from repro.experiments.harness import (
        run_bye_attack,
        run_call_hijack,
        run_fake_im,
        run_rtp_attack,
    )

    runners = {
        "bye-attack": run_bye_attack,
        "call-hijack": run_call_hijack,
        "fake-im": run_fake_im,
        "rtp-attack": run_rtp_attack,
    }
    return list(runners[attack](seed=seed).testbed.ids_tap.trace.records)


def _run_engine(stream, outcome: AttackOutcome, config: ChaosConfig) -> None:
    from repro.core.engine import ScidiveEngine
    from repro.voip.testbed import CLIENT_A_IP

    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
    for frame, ts in stream:
        try:
            engine.process_frame(frame, ts)
        except Exception as exc:  # the invariant being tested
            outcome.exceptions.append(("process_frame", repr(exc)))
    outcome.alerts = len(engine.alert_log.alerts)
    outcome.detected = any(
        alert.rule_id == outcome.required_rule
        for alert in engine.alert_log.alerts
    )
    outcome.live_trails = engine.trails.trail_count
    outcome.reassembly_pending = engine.distiller._reassembler.pending


def _run_cluster(stream, outcome: AttackOutcome, config: ChaosConfig) -> None:
    from repro.cluster import ScidiveCluster
    from repro.voip.testbed import CLIENT_A_IP

    extra = {}
    if config.flood_frames:
        # A flood run is an overload-control run: shallow *blocking*
        # queues so the flood drives fill to 1.0 and the controller to
        # shed, while every innocent frame is still delivered — the only
        # shedding is the penalty box's door-drop of the heavy source,
        # so the attack's evidence survives deterministically.
        from repro.resilience.overload import OverloadConfig

        extra = dict(
            overload_enabled=True,
            overload_config=OverloadConfig(
                tick_frames=64, hot_min=32, dwell_ticks=2, recovery_ticks=2
            ),
            queue_depth=8,
            overflow="block",
        )
    cluster = ScidiveCluster(
        workers=config.workers,
        backend="process",
        batch_size=16,
        vantage_ip=CLIENT_A_IP,
        checkpoint_every=1,
        **extra,
    )
    cluster.start()
    crash_at = {len(stream) // 3: 0, (2 * len(stream)) // 3: 1}
    try:
        for index, (frame, ts) in enumerate(stream):
            try:
                cluster.submit_frame(frame, ts)
            except Exception as exc:
                outcome.exceptions.append(("submit_frame", repr(exc)))
            if config.inject_crashes and index in crash_at:
                cluster.flush()
                cluster.inject_crash(crash_at[index] % config.workers)
        result = cluster.stop()
    except Exception as exc:
        outcome.exceptions.append(("cluster", repr(exc)))
        return
    outcome.alerts = len(result.alerts)
    outcome.detected = any(
        alert.rule_id == outcome.required_rule for alert in result.alerts
    )
    outcome.worker_restarts = result.cluster.worker_restarts
    outcome.checkpoints = sum(worker.checkpoints for worker in result.workers)
    if config.flood_frames:
        outcome.overload = cluster.overload_status()


def run_chaos(config: ChaosConfig | None = None, **overrides) -> ChaosReport:
    """Replay every configured attack under fault injection and judge
    the invariants.  Deterministic for a given config."""
    if config is None:
        config = ChaosConfig(**overrides)
    elif overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    config.validate()
    report = ChaosReport(config=config)
    for attack in config.attacks:
        # crc32, not hash(): str hashing is salted per process and would
        # make "the same seed replays the same chaos" a lie.
        rng = random.Random(config.seed ^ zlib.crc32(attack.encode()))
        records = _attack_records(attack, config.seed)
        stream, mutants = _build_chaos_stream(rng, records, config)
        outcome = AttackOutcome(
            attack=attack,
            required_rule=REQUIRED_RULES[attack],
            frames=len(stream),
            mutants=mutants,
            flood=config.flood_frames,
        )
        if config.workers:
            _run_cluster(stream, outcome, config)
        else:
            _run_engine(stream, outcome, config)
        _judge(outcome, config)
        report.outcomes.append(outcome)
    return report


def _judge(outcome: AttackOutcome, config: ChaosConfig) -> None:
    if outcome.exceptions:
        outcome.violations.append(
            f"{len(outcome.exceptions)} uncaught exception(s); first: "
            f"{outcome.exceptions[0][1]}"
        )
    if not outcome.detected:
        outcome.violations.append(
            f"required rule {outcome.required_rule} missing from alerts"
        )
    if config.flood_frames and config.workers:
        # The flood invariant pair: the controller must have escalated
        # to shed (the flood was real pressure) *and* the attack's
        # signalling alert must have survived the shedding (checked by
        # the `detected` invariant above) — degraded-mode detection.
        transitions = outcome.overload.get("transitions_total", {})
        if not any(key.endswith("->shed") for key in transitions):
            outcome.violations.append(
                "flood never drove the overload controller to shed "
                f"(transitions: {transitions or '{}'})"
            )
    if not config.workers:  # worker engines are out of reach in cluster mode
        if outcome.live_trails > config.trail_bound:
            outcome.violations.append(
                f"live trails {outcome.live_trails} > bound {config.trail_bound}"
            )
        if outcome.reassembly_pending > config.reassembly_bound:
            outcome.violations.append(
                f"reassembly pending {outcome.reassembly_pending} > "
                f"bound {config.reassembly_bound}"
            )


def format_report(report: ChaosReport) -> str:
    """Human-readable verdict for the ``repro chaos`` CLI."""
    config = report.config
    mode = (
        f"{config.workers} workers (process)"
        if config.workers
        else "single engine"
    )
    flood = f"  flood={config.flood_frames}" if config.flood_frames else ""
    lines = [
        f"chaos run: seed={config.seed}  mode={mode}  "
        f"mutation_rate={config.mutation_rate}{flood}",
        "",
        f"{'attack':<14} {'frames':>7} {'faults':>7} {'alerts':>7} "
        f"{'rule':<12} {'verdict'}",
    ]
    for outcome in report.outcomes:
        verdict = "ok" if not outcome.violations else "FAIL"
        lines.append(
            f"{outcome.attack:<14} {outcome.frames:>7} {outcome.mutants:>7} "
            f"{outcome.alerts:>7} {outcome.required_rule:<12} {verdict}"
        )
        for violation in outcome.violations:
            lines.append(f"    ! {violation}")
    lines.append("")
    lines.append(
        "PASS: all invariants held" if report.ok
        else f"FAIL: {len(report.violations)} invariant violation(s)"
    )
    return "\n".join(lines)
