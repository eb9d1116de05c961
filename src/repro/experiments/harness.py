"""Experiment harness: canned attack/benign runs with an attached IDS.

Every benchmark and most integration tests go through these entry
points, so a scenario is defined exactly once.  Each runner builds a
fresh testbed, attaches a SCIDIVE engine at client A's vantage (or
network-wide where the scenario requires it), drives the scenario, and
returns an :class:`ExperimentResult` with everything needed to score
detection delay / P_f / P_m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.attacks import (
    AttackReport,
    BillingFraudAttack,
    ByeAttack,
    CallHijackAttack,
    FakeImAttack,
    PasswordGuessAttack,
    RegisterDosAttack,
    RtpAttack,
)
from repro.core.alerts import Alert
from repro.core.engine import ScidiveEngine
from repro.core.event_generators import default_generators
from repro.obs.logsetup import get_logger
from repro.sim.link import LinkModel
from repro.voip.scenarios import im_exchange, mobility_call, normal_call, registration_churn
from repro.voip.testbed import CLIENT_A_IP, Testbed, TestbedConfig

_log = get_logger("experiments.harness")


@dataclass(slots=True)
class ExperimentResult:
    """Everything one run produced."""

    name: str
    testbed: Testbed
    engine: ScidiveEngine
    attack_report: AttackReport | None = None
    injection_time: float | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Every runner ends by building a result: one central place to
        # refresh gauges and log the run outcome.
        self.engine.snapshot_gauges()
        _log.info(
            "scenario complete",
            extra={"fields": {
                "scenario": self.name,
                "frames": self.engine.stats.frames,
                "footprints": self.engine.stats.footprints,
                "events": self.engine.stats.events,
                "alerts": len(self.engine.alerts),
                "injection_time": self.injection_time,
            }},
        )

    @property
    def alerts(self) -> list[Alert]:
        return self.engine.alerts

    def alerts_for(self, rule_id: str) -> list[Alert]:
        return self.engine.alerts_for_rule(rule_id)

    def detection_delay(self, rule_id: str) -> float | None:
        if self.injection_time is None:
            return None
        times = [a.time for a in self.alerts_for(rule_id) if a.time >= self.injection_time]
        return min(times) - self.injection_time if times else None


def _build(
    seed: int,
    vantage: str | None = CLIENT_A_IP,
    monitoring_window: float = 0.5,
    seq_jump_threshold: int = 100,
    link: LinkModel | None = None,
    require_auth: bool = False,
    with_billing: bool = False,
    with_cell_phone: bool = False,
) -> tuple[Testbed, ScidiveEngine]:
    testbed = Testbed(
        TestbedConfig(
            seed=seed,
            link=link,
            require_auth=require_auth,
            with_billing=with_billing,
            with_cell_phone=with_cell_phone,
        )
    )
    engine = ScidiveEngine(
        vantage_ip=vantage,
        generators=default_generators(
            monitoring_window=monitoring_window, seq_jump_threshold=seq_jump_threshold
        ),
    )
    engine.attach(testbed.ids_tap)
    _log.debug(
        "testbed built",
        extra={"fields": {
            "seed": seed, "vantage": vantage or "network-wide",
            "metrics_enabled": engine.metrics_enabled,
        }},
    )
    return testbed, engine


# ---------------------------------------------------------------------------
# Attack runs
# ---------------------------------------------------------------------------


def run_bye_attack(
    seed: int = 7,
    monitoring_window: float = 0.5,
    link: LinkModel | None = None,
    talk_before: float = 1.5,
    observe_after: float = 2.0,
) -> ExperimentResult:
    """Figure 5: forged BYE tears down A's leg, B's RTP goes orphan."""
    testbed, engine = _build(seed, monitoring_window=monitoring_window, link=link)
    attack = ByeAttack(testbed)
    testbed.register_all()
    testbed.phone_a.call(f"sip:bob@{testbed.proxy.domain}")
    testbed.run_for(1.0 + talk_before)
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    return ExperimentResult(
        name="bye-attack",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )


def run_call_hijack(
    seed: int = 7,
    monitoring_window: float = 0.5,
    link: LinkModel | None = None,
    talk_before: float = 1.5,
    observe_after: float = 2.0,
) -> ExperimentResult:
    """Figure 7: forged re-INVITE steals A's outgoing media."""
    testbed, engine = _build(seed, monitoring_window=monitoring_window, link=link)
    attack = CallHijackAttack(testbed)
    testbed.register_all()
    testbed.phone_a.call(f"sip:bob@{testbed.proxy.domain}")
    testbed.run_for(1.0 + talk_before)
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    result = ExperimentResult(
        name="call-hijack",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )
    result.extras["stolen_packets"] = attack.stolen_packets
    return result


def run_fake_im(
    seed: int = 7,
    spoof_source: bool = False,
    legit_messages: int = 2,
    observe_after: float = 1.0,
) -> ExperimentResult:
    """Figure 6: forged instant message impersonating B."""
    testbed, engine = _build(seed)
    attack = FakeImAttack(testbed, spoof_source=spoof_source)
    testbed.register_all()
    im_exchange(testbed, [f"legit message {i}" for i in range(legit_messages)])
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    result = ExperimentResult(
        name="fake-im",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )
    result.extras["messages_at_a"] = list(testbed.phone_a.messages)
    return result


def run_rtp_attack(
    seed: int = 7,
    packets: int = 50,
    seq_jump_threshold: int = 100,
    observe_after: float = 2.0,
) -> ExperimentResult:
    """Figure 8: garbage datagrams into A's jitter buffer."""
    testbed, engine = _build(seed, seq_jump_threshold=seq_jump_threshold)
    attack = RtpAttack(testbed, packets=packets, seed=seed * 31 + 1)
    testbed.register_all()
    call = testbed.phone_a.call(f"sip:bob@{testbed.proxy.domain}")
    testbed.run_for(1.5)
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    result = ExperimentResult(
        name="rtp-attack",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )
    result.extras["victim_call"] = call
    result.extras["playout_stats"] = call.rtp.playout.stats if call.rtp else None
    return result


def run_register_dos(
    seed: int = 7,
    requests: int = 15,
    interval: float = 0.1,
    observe_after: float = 3.0,
) -> ExperimentResult:
    """§3.3: REGISTER flood ignoring 401 challenges."""
    testbed, engine = _build(seed, vantage=None, require_auth=True)
    attack = RegisterDosAttack(testbed, requests=requests, interval=interval)
    testbed.register_all()
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    return ExperimentResult(
        name="register-dos",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )


def run_password_guess(
    seed: int = 7,
    wordlist_size: int = 10,
    observe_after: float = 6.0,
) -> ExperimentResult:
    """§3.3: digest brute-force with varying challenge responses."""
    from repro.attacks.password_guess import DEFAULT_WORDLIST

    testbed, engine = _build(seed, vantage=None, require_auth=True)
    attack = PasswordGuessAttack(testbed, wordlist=DEFAULT_WORDLIST[:wordlist_size])
    testbed.register_all()
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    result = ExperimentResult(
        name="password-guess",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )
    result.extras["attempts"] = attack.attempts
    return result


def run_billing_fraud(
    seed: int = 7,
    observe_after: float = 3.0,
    with_benign_call: bool = True,
) -> ExperimentResult:
    """§3.2: the three-facet cross-protocol fraud."""
    testbed, engine = _build(seed, vantage=None, with_billing=True)
    attack = BillingFraudAttack(testbed)
    testbed.register_all()
    if with_benign_call:
        normal_call(testbed, talk_seconds=1.0)
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    result = ExperimentResult(
        name="billing-fraud",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )
    result.extras["billing_records"] = list(testbed.billing_db.records)
    return result


def run_rtcp_bye_attack(
    seed: int = 7,
    observe_after: float = 1.5,
) -> ExperimentResult:
    """§2.2 extension: forged RTCP BYE silencing the peer."""
    from repro.attacks.media_attacks import RtcpByeAttack

    testbed, engine = _build(seed)
    attack = RtcpByeAttack(testbed)
    testbed.register_all()
    call = testbed.phone_a.call(f"sip:bob@{testbed.proxy.domain}")
    testbed.run_for(1.5)
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    result = ExperimentResult(
        name="rtcp-bye-attack",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )
    result.extras["victim_call"] = call
    return result


def run_ssrc_spoof(
    seed: int = 7,
    packets: int = 30,
    observe_after: float = 1.5,
) -> ExperimentResult:
    """§2.2 extension: SSRC impersonation injection."""
    from repro.attacks.media_attacks import SsrcSpoofAttack

    testbed, engine = _build(seed)
    attack = SsrcSpoofAttack(testbed, packets=packets)
    testbed.register_all()
    call = testbed.phone_a.call(f"sip:bob@{testbed.proxy.domain}")
    testbed.run_for(1.5)
    injection = testbed.now()
    attack.launch_now()
    testbed.run_for(observe_after)
    result = ExperimentResult(
        name="ssrc-spoof",
        testbed=testbed,
        engine=engine,
        attack_report=attack.report,
        injection_time=injection,
    )
    result.extras["victim_call"] = call
    return result


# ---------------------------------------------------------------------------
# Benign runs (for P_f)
# ---------------------------------------------------------------------------

BENIGN_KINDS = (
    "call",
    "callee-hangup",
    "mobility",
    "im",
    "registration-churn",
)


def run_benign(
    kind: str = "call",
    seed: int = 7,
    monitoring_window: float = 0.5,
    link: LinkModel | None = None,
) -> ExperimentResult:
    """One attack-free scenario; any alert raised is a false alarm."""
    if kind not in BENIGN_KINDS:
        raise ValueError(f"unknown benign kind {kind!r}; pick from {BENIGN_KINDS}")
    testbed, engine = _build(
        seed,
        monitoring_window=monitoring_window,
        link=link,
        require_auth=kind == "registration-churn",
        with_cell_phone=kind == "mobility",
    )
    testbed.register_all()
    if kind == "call":
        normal_call(testbed, talk_seconds=2.0, caller_hangs_up=True)
    elif kind == "callee-hangup":
        normal_call(testbed, talk_seconds=2.0, caller_hangs_up=False)
    elif kind == "mobility":
        mobility_call(testbed)
    elif kind == "im":
        im_exchange(testbed, ["hi", "lunch at noon?", "bring the deck"])
    elif kind == "registration-churn":
        registration_churn(testbed, rounds=4)
    testbed.run_for(1.0)
    return ExperimentResult(name=f"benign-{kind}", testbed=testbed, engine=engine)
