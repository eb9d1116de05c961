"""Protocol modules, dispatch tables and the rule index.

A :class:`ProtocolModule` bundles one protocol's decoder, generators and
rules; the engine builds per-protocol generator dispatch tables from the
generators' declared ``protocols`` and the RuleSet builds a
trigger-event → rules index from each rule's ``trigger_events``.  These
tests pin down the stock module set, the flattened views over it, both
indexes' semantics (including invalidation), and that a brand-new
protocol registers end-to-end without touching engine code.
"""

from __future__ import annotations

from repro.core.alerts import AlertLog
from repro.core.distiller import CLAIMED, DEFAULT_DECODERS, Distiller
from repro.core.engine import ScidiveEngine
from repro.core.event_generators import default_generators
from repro.core.events import Event, EventGenerator
from repro.core.footprint import Footprint, Protocol
from repro.core.protocols import (
    ProtocolModule,
    default_modules,
    distiller_from,
    generators_from,
    ruleset_from,
)
from repro.core.rules import RuleSet, SingleEventRule
from repro.core.rules_library import paper_ruleset
from repro.rulespec import core_pack
from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import build_udp_frame
from tests.core.dispatch_oracle import wildcard_engine, wildcard_ruleset

SRC_MAC = MacAddress("02:00:00:00:00:01")
DST_MAC = MacAddress("02:00:00:00:00:02")
A = IPv4Address.parse("10.0.0.10")
B = IPv4Address.parse("10.0.0.20")


def _event(name: str, time: float = 1.0, session: str = "s") -> Event:
    return Event(name=name, time=time, session=session)


class TestDefaultModules:
    def test_stock_module_set(self):
        modules = default_modules()
        assert [m.name for m in modules] == ["sip", "rtp", "rtcp", "h323", "accounting"]
        assert all(m.decoder is not None for m in modules)
        assert all(m.description for m in modules)

    def test_decode_priorities_put_rtp_last(self):
        # RTP owns the media-port garbage fallback; anything after it in
        # the chain would never see a media-port payload.
        chain = sorted(default_modules(), key=lambda m: m.decode_priority)
        assert chain[-1].name == "rtp"
        priorities = [m.decode_priority for m in chain]
        assert priorities == sorted(set(priorities)), "priorities must be distinct"

    def test_generators_from_matches_default_generators(self):
        flat = generators_from(default_modules())
        legacy = default_generators()
        assert [g.name for g in flat] == [g.name for g in legacy]
        assert all(g.protocols is not None for g in flat), \
            "stock generators must declare their protocols"

    def test_ruleset_from_matches_paper_ruleset(self):
        built = ruleset_from(default_modules())
        paper = paper_ruleset()
        assert [r.rule_id for r in built.rules] == [r.rule_id for r in paper.rules]
        assert all(r.trigger_events for r in built.rules), \
            "stock rules must declare their trigger events"

    def test_module_rule_ids_partition_the_shipped_pack(self):
        # Each stock module names the shipped-pack rules it owns; laid
        # end to end in module order they are the pack, in pack order.
        per_module = [[r.rule_id for r in m.rules()] for m in default_modules()]
        flat = [rule_id for ids in per_module for rule_id in ids]
        assert flat == [rdef.rule_id for rdef in core_pack().rules]
        assert len(set(flat)) == len(flat)
        for rule in ruleset_from(default_modules()).rules:
            assert rule.pack_version == core_pack().label

    def test_modules_command_lists_each_modules_rule_ids(self, capsys):
        from repro.cli import main

        assert main(["modules"]) == 0
        rows = {
            cells[0]: cells[-1]
            for line in capsys.readouterr().out.splitlines()
            if len(cells := [c.strip() for c in line.split("|")]) == 5
        }
        assert rows["sip"] == "BYE-001, HIJACK-001, FAKEIM-001, DOS-001, PWD-001"
        assert rows["rtp"] == "RTP-001, RTP-002, RTP-003"
        assert rows["rtcp"] == "RTCP-001, SSRC-001"
        assert rows["h323"] == "H323-001"
        assert rows["accounting"] == "FRAUD-001"

    def test_distiller_from_restores_stock_chain(self):
        distiller = distiller_from(default_modules())
        assert distiller.decoders == DEFAULT_DECODERS

    def test_distiller_from_passes_overrides(self):
        distiller = distiller_from(default_modules(), accounting_port=1234)
        assert distiller.accounting_port == 1234

    def test_module_parameters_reach_generators(self):
        generators = generators_from(default_modules(monitoring_window=9.0))
        orphan = next(g for g in generators if g.name == "orphan-rtp")
        assert orphan.monitoring_window == 9.0


class TestGeneratorDispatchTables:
    def test_sip_table_contains_only_sip_consumers(self):
        engine = ScidiveEngine()
        names = [g.name for g in engine.generators_for(Protocol.SIP)]
        # The accounting generator reads INVITE pairs off the call
        # records the state stage writes: it consumes TXNs only.
        assert names == ["dialog", "orphan-rtp", "im-source", "auth",
                         "malformed-sip"]

    def test_rtp_table_excludes_pure_sip_generators(self):
        engine = ScidiveEngine()
        names = {g.name for g in engine.generators_for(Protocol.RTP)}
        assert "dialog" not in names and "auth" not in names
        assert {"orphan-rtp", "rtp-stream"} <= names

    def test_tables_preserve_registration_order(self):
        engine = ScidiveEngine()
        order = {g.name: i for i, g in enumerate(engine.generators)}
        for protocol in Protocol:
            positions = [order[g.name] for g in engine.generators_for(protocol)]
            assert positions == sorted(positions)

    def test_wildcard_generator_in_every_table(self):
        class Tap(EventGenerator):
            name = "tap"
            protocols = None  # broadcast

            def on_footprint(self, footprint, trail, ctx):
                return []

        engine = ScidiveEngine()
        engine.generators = engine.generators + [Tap()]
        for protocol in Protocol:
            assert "tap" in {g.name for g in engine.generators_for(protocol)}

    def test_reassigning_generators_invalidates_tables(self):
        engine = ScidiveEngine()
        assert engine.generators_for(Protocol.SIP)  # build tables
        engine.generators = [g for g in engine.generators if g.name != "dialog"]
        assert "dialog" not in {g.name for g in engine.generators_for(Protocol.SIP)}

    def test_broadcast_mode_dispatches_everything_everywhere(self):
        engine = wildcard_engine(ScidiveEngine())
        for protocol in Protocol:
            assert engine.generators_for(protocol) == tuple(engine.generators)


class TestRuleIndex:
    def test_candidates_preserve_ruleset_order(self):
        ruleset = paper_ruleset()
        order = {r.rule_id: i for i, r in enumerate(ruleset.rules)}
        for name in ("OrphanRtpAfterBye", "RtpSourceMismatch", "AccountingMismatch"):
            positions = [order[r.rule_id] for r in ruleset.candidates_for(name)]
            assert positions == sorted(positions)

    def test_unknown_event_gets_only_wildcards(self):
        ruleset = paper_ruleset()
        assert ruleset.candidates_for("NoSuchEvent") == ()
        wildcard = SingleEventRule("W", "w", "X")
        wildcard.trigger_events = None
        ruleset.add(wildcard)
        assert ruleset.candidates_for("NoSuchEvent") == (wildcard,)

    def test_add_and_remove_invalidate_index(self):
        ruleset = RuleSet([SingleEventRule("A", "a", "EventA")])
        assert [r.rule_id for r in ruleset.candidates_for("EventA")] == ["A"]
        ruleset.add(SingleEventRule("B", "b", "EventA"))
        assert [r.rule_id for r in ruleset.candidates_for("EventA")] == ["A", "B"]
        ruleset.remove("A")
        assert [r.rule_id for r in ruleset.candidates_for("EventA")] == ["B"]

    def test_rebuild_index_after_in_place_mutation(self):
        rule = SingleEventRule("A", "a", "EventA")
        ruleset = RuleSet([rule])
        assert ruleset.candidates_for("EventB") == ()
        rule.trigger_events = frozenset({"EventA", "EventB"})
        ruleset.rebuild_index()
        assert ruleset.candidates_for("EventB") == (rule,)

    def test_dispatch_skipped_counts_avoided_evaluations(self):
        ruleset = RuleSet([SingleEventRule("A", "a", "EventA"),
                           SingleEventRule("B", "b", "EventB")])
        ruleset.match(_event("EventA"), AlertLog())
        assert ruleset.dispatch_skipped == 1  # B never consulted
        assert ruleset.rules[0].matches_attempted == 1
        assert ruleset.rules[1].matches_attempted == 0

    def test_broadcast_counts_every_rule_as_attempted(self):
        ruleset = wildcard_ruleset(RuleSet([SingleEventRule("A", "a", "EventA"),
                                            SingleEventRule("B", "b", "EventB")]))
        ruleset.match(_event("EventA"), AlertLog())
        assert ruleset.dispatch_skipped == 0
        assert all(r.matches_attempted == 1 for r in ruleset.rules)

    def test_reset_zeroes_dispatch_skipped(self):
        ruleset = RuleSet([SingleEventRule("A", "a", "EventA"),
                           SingleEventRule("B", "b", "EventB")])
        ruleset.match(_event("EventA"), AlertLog())
        ruleset.reset()
        assert ruleset.dispatch_skipped == 0
        assert all(r.matches_attempted == 0 for r in ruleset.rules)


# -- a brand-new protocol, registered end-to-end ----------------------------


def _toy_decoder(distiller: Distiller, payload: bytes, common: dict):
    if not payload.startswith(b"TOY"):
        return None
    if payload.startswith(b"TOY IGNORE"):
        return CLAIMED
    return Footprint(**common)  # base footprint: Protocol.OTHER


class _ToyGenerator(EventGenerator):
    name = "toy"
    protocols = frozenset({Protocol.OTHER})

    def on_footprint(self, footprint, trail, ctx):
        return [Event(name="ToyPing", time=footprint.timestamp,
                      session=f"{footprint.src}")]


def _toy_module() -> ProtocolModule:
    return ProtocolModule(
        name="toy",
        protocols=frozenset({Protocol.OTHER}),
        decoder=_toy_decoder,
        decode_priority=5,  # before SIP: "TOY" is not valid SIP anyway
        generators=lambda: [_ToyGenerator()],
        rules=lambda: [SingleEventRule("TOY-001", "toy ping", "ToyPing")],
        description="end-to-end registration exercise",
    )


def _toy_frame(payload: bytes) -> bytes:
    return build_udp_frame(SRC_MAC, DST_MAC, A, B, 7777, 7777, payload)


class TestToyProtocolEndToEnd:
    def test_frame_to_alert_through_registered_module(self):
        engine = ScidiveEngine(modules=default_modules() + [_toy_module()])
        alerts = engine.process_frame(_toy_frame(b"TOY hello"), 1.0)
        assert [a.rule_id for a in alerts] == ["TOY-001"]
        assert engine.stats.footprints == 1
        # OTHER footprints reach only the toy generator.
        assert [g.name for g in engine.generators_for(Protocol.OTHER)] == ["toy"]

    def test_claimed_payload_consumed_without_footprint(self):
        engine = ScidiveEngine(modules=default_modules() + [_toy_module()])
        assert engine.process_frame(_toy_frame(b"TOY IGNORE"), 1.0) == []
        assert engine.stats.footprints == 0
        assert engine.distiller.stats.ignored == 1

    def test_stock_protocols_unaffected_by_extra_module(self):
        stock = ScidiveEngine()
        extended = ScidiveEngine(modules=default_modules() + [_toy_module()])
        assert ([g.name for g in extended.generators_for(Protocol.SIP)]
                == [g.name for g in stock.generators_for(Protocol.SIP)])
        assert ([r.rule_id for r in extended.ruleset.rules][:-1]
                == [r.rule_id for r in stock.ruleset.rules])
