"""Protocol modules: the registration unit of the detection pipeline.

A :class:`ProtocolModule` bundles everything the engine needs to speak
one protocol: the Distiller decoder that produces its footprints, the
event generators that consume them, and the rules its events trigger.
The stock pipeline is five modules — SIP, RTP, RTCP, H.323 and
accounting.  ``default_generators()`` is the flattened view of their
generators; their rules are the shipped pack's
(:func:`repro.rulespec.core_pack`), each module naming the rule ids it
owns, so the modules partition ``paper_ruleset()`` in pack order.

Adding a protocol end-to-end therefore means writing one module:

* a decoder ``(distiller, payload, common) -> footprint | None | CLAIMED``
  (see :mod:`repro.core.distiller`),
* generators declaring ``protocols`` so indexed dispatch routes only
  the footprints they consume,
* rules declaring ``trigger_events`` so the rule index routes only the
  events they can fire on,

and registering it: ``ScidiveEngine(modules=default_modules() + [mine])``.

Generator and rule factories are callables so one module instance can
stamp out fresh (stateful) pipelines for many engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core import rules_library as ids
from repro.core.distiller import (
    Distiller,
    decode_accounting,
    decode_h323,
    decode_rtcp,
    decode_rtp,
    decode_sip,
)
from repro.core.events import EventGenerator
from repro.core.footprint import Protocol
from repro.core.rules import Rule, RuleSet

GeneratorFactory = Callable[[], list[EventGenerator]]
RuleFactory = Callable[[], list[Rule]]

# Decode-priority bands for the stock chain; custom modules slot
# anywhere (lower runs earlier).  RTP must stay last: it owns the
# media-port garbage fallback that claims anything undecodable.
DECODE_SIP = 10
DECODE_H323 = 20
DECODE_ACCOUNTING = 30
DECODE_RTCP = 40
DECODE_RTP = 50


def _no_generators() -> list[EventGenerator]:
    return []


def _no_rules() -> list[Rule]:
    return []


def _core_rules(*rule_ids: str) -> list[Rule]:
    """The named shipped-pack rules, freshly compiled."""
    from repro.rulespec import compile_rule, core_pack

    pack = core_pack()
    return [compile_rule(pack.rule(rule_id), pack) for rule_id in rule_ids]


@dataclass(frozen=True)
class ProtocolModule:
    """One protocol's decoder + generators + rules, as a unit.

    ``protocols`` lists the :class:`Protocol` values the module's
    footprints carry (dispatch keys); ``decoder`` may be None for a
    module that only consumes footprints other modules decode.
    """

    name: str
    protocols: frozenset[Protocol]
    decoder: Callable | None = None
    decode_priority: int = 100
    generators: GeneratorFactory = field(default=_no_generators)
    rules: RuleFactory = field(default=_no_rules)
    description: str = ""


# -- the stock modules ------------------------------------------------------


def sip_module(
    monitoring_window: float = 0.5,
    mobility_window: float = 60.0,
    reregistration_window: float = 120.0,
) -> ProtocolModule:
    """SIP signalling: dialogs, orphan-RTP arming, IM, auth, malformed."""
    from repro.core.event_generators import (
        AuthEventGenerator,
        DialogEventGenerator,
        ImSourceGenerator,
        MalformedSipGenerator,
        OrphanRtpGenerator,
    )

    return ProtocolModule(
        name="sip",
        protocols=frozenset({Protocol.SIP}),
        decoder=decode_sip,
        decode_priority=DECODE_SIP,
        generators=lambda: [
            DialogEventGenerator(),
            OrphanRtpGenerator(monitoring_window=monitoring_window),
            ImSourceGenerator(
                mobility_window=mobility_window,
                reregistration_window=reregistration_window,
            ),
            AuthEventGenerator(),
            MalformedSipGenerator(),
        ],
        rules=lambda: _core_rules(
            ids.RULE_BYE_ATTACK,
            ids.RULE_CALL_HIJACK,
            ids.RULE_FAKE_IM,
            ids.RULE_REGISTER_DOS,
            ids.RULE_PASSWORD_GUESS,
        ),
        description="SIP dialogs, teardown watches, IM identity, REGISTER auth",
    )


def rtp_module(seq_jump_threshold: int = 100) -> ProtocolModule:
    """RTP media: sequence/jitter/rogue-source sanity and garbage frames."""
    from repro.core.event_generators import RtpStreamGenerator

    return ProtocolModule(
        name="rtp",
        protocols=frozenset({Protocol.RTP}),
        decoder=decode_rtp,
        decode_priority=DECODE_RTP,
        generators=lambda: [RtpStreamGenerator(seq_jump_threshold=seq_jump_threshold)],
        rules=lambda: _core_rules(
            ids.RULE_RTP_SEQ, ids.RULE_RTP_SOURCE, ids.RULE_RTP_MALFORMED
        ),
        description="RTP stream continuity, rogue sources, media-port garbage",
    )


def rtcp_module(monitoring_window: float = 0.5) -> ProtocolModule:
    """RTCP control: forged-BYE orphans and SSRC impersonation."""
    from repro.core.rtcp_generators import RtcpByeGenerator, SsrcTrackGenerator

    return ProtocolModule(
        name="rtcp",
        protocols=frozenset({Protocol.RTCP}),
        decoder=decode_rtcp,
        decode_priority=DECODE_RTCP,
        generators=lambda: [
            RtcpByeGenerator(monitoring_window=monitoring_window),
            SsrcTrackGenerator(),
        ],
        rules=lambda: _core_rules(ids.RULE_RTCP_BYE_ORPHAN, ids.RULE_SSRC_COLLISION),
        description="RTCP BYE watches, SSRC ownership tracking",
    )


def h323_module(monitoring_window: float = 0.5) -> ProtocolModule:
    """The H.323 CMP: H.225 call state and forged RELEASE COMPLETE."""
    from repro.core.h323_generators import H323OrphanGenerator

    return ProtocolModule(
        name="h323",
        protocols=frozenset({Protocol.H225}),
        decoder=decode_h323,
        decode_priority=DECODE_H323,
        generators=lambda: [H323OrphanGenerator(monitoring_window=monitoring_window)],
        rules=lambda: _core_rules(ids.RULE_H323_RELEASE),
        description="H.225 call signalling and forged-release detection",
    )


def accounting_module() -> ProtocolModule:
    """The billing line protocol and the cross-protocol fraud rule."""
    from repro.core.event_generators import AccountingGenerator

    return ProtocolModule(
        name="accounting",
        protocols=frozenset({Protocol.ACCOUNTING}),
        decoder=decode_accounting,
        decode_priority=DECODE_ACCOUNTING,
        generators=lambda: [AccountingGenerator()],
        rules=lambda: _core_rules(ids.RULE_BILLING_FRAUD),
        description="Billing transactions vs observed call setups",
    )


def default_modules(
    monitoring_window: float = 0.5,
    seq_jump_threshold: int = 100,
    mobility_window: float = 60.0,
    reregistration_window: float = 120.0,
) -> list[ProtocolModule]:
    """The five stock modules, in the pipeline's canonical order."""
    return [
        sip_module(
            monitoring_window=monitoring_window,
            mobility_window=mobility_window,
            reregistration_window=reregistration_window,
        ),
        rtp_module(seq_jump_threshold=seq_jump_threshold),
        rtcp_module(monitoring_window=monitoring_window),
        h323_module(monitoring_window=monitoring_window),
        accounting_module(),
    ]


# -- assembling a pipeline from modules -------------------------------------


def generators_from(modules: Iterable[ProtocolModule]) -> list[EventGenerator]:
    """Instantiate every module's generators, in module order."""
    generators: list[EventGenerator] = []
    for module in modules:
        generators.extend(module.generators())
    return generators


def ruleset_from(modules: Iterable[ProtocolModule], indexed: bool = True) -> RuleSet:
    """Instantiate every module's rules into one indexed RuleSet."""
    rules: list[Rule] = []
    for module in modules:
        rules.extend(module.rules())
    return RuleSet(rules=rules, indexed=indexed)


def distiller_from(modules: Iterable[ProtocolModule], **overrides) -> Distiller:
    """A Distiller whose chain is the modules' decoders, priority-sorted.

    ``overrides`` pass through to the Distiller constructor (ports etc.).
    """
    decoders = tuple(
        module.decoder
        for module in sorted(modules, key=lambda m: m.decode_priority)
        if module.decoder is not None
    )
    return Distiller(decoders=decoders, **overrides)
