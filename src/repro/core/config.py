"""Deployment configuration: one tunable surface for the whole IDS.

The paper positions SCIDIVE among IDSs that "can be customized with
detection rules specific to the environment in which they are
deployed".  :class:`ScidiveConfig` gathers every knob the rules and
generators expose — monitoring windows, thresholds, mobility allowances
— round-trips through plain dicts (JSON-friendly), and builds a fully
wired :class:`~repro.core.engine.ScidiveEngine`.  The rule knobs are
re-tunings of the shipped pack (:meth:`ScidiveConfig.build_ruleset`),
so a tuned deployment reports — and checkpoints under — its own pack
label, and a default one reports the shipped pack's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.core.engine import ScidiveEngine
from repro.core.protocols import default_modules, generators_from
from repro.core import rules_library as ids
from repro.core.rules import RuleSet


@dataclass(slots=True)
class ScidiveConfig:
    """Every tunable in one place; defaults match the paper."""

    # Deployment.
    vantage_ip: str | None = None
    vantage_mac: str | None = None
    name: str = "scidive"

    # §4.3: the orphan-flow monitoring window m (seconds).
    monitoring_window: float = 0.5
    # §4.2.4: the empirical sequence-jump bound (paper: 100).
    seq_jump_threshold: int = 100
    # §4.2.2: how quickly a user can plausibly change IP (seconds).
    mobility_window: float = 60.0
    # How long a re-registration legitimises a new source (seconds).
    reregistration_window: float = 120.0

    # §3.3 thresholds.
    dos_threshold: int = 5
    dos_window: float = 10.0
    password_guess_threshold: int = 4
    password_guess_window: float = 30.0

    # §3.2.
    billing_fraud_window: float = 30.0

    # Media garbage.
    malformed_rtp_threshold: int = 3
    malformed_rtp_window: float = 1.0

    # Rule toggles (rule id -> enabled).
    disabled_rules: tuple[str, ...] = field(default=())

    # -- construction -----------------------------------------------------

    def build_ruleset(self) -> RuleSet:
        """The shipped pack, compiled with this config's thresholds and
        windows applied and its ``disabled_rules`` left out."""
        from repro.rulespec import compile_pack, core_pack

        pack = core_pack()
        tuned = pack.derive(
            keep=[
                rdef.rule_id
                for rdef in pack.rules
                if rdef.rule_id not in self.disabled_rules
            ],
            overrides={
                ids.RULE_RTP_MALFORMED: {
                    "threshold": self.malformed_rtp_threshold,
                    "window": float(self.malformed_rtp_window),
                },
                ids.RULE_REGISTER_DOS: {
                    "threshold": self.dos_threshold,
                    "window": float(self.dos_window),
                },
                ids.RULE_PASSWORD_GUESS: {
                    "threshold": self.password_guess_threshold,
                    "window": float(self.password_guess_window),
                },
                ids.RULE_BILLING_FRAUD: {"window": float(self.billing_fraud_window)},
            },
        )
        return compile_pack(tuned)

    def build_generators(self) -> list:
        return generators_from(
            default_modules(
                monitoring_window=self.monitoring_window,
                seq_jump_threshold=self.seq_jump_threshold,
                mobility_window=self.mobility_window,
                reregistration_window=self.reregistration_window,
            )
        )

    def build_engine(self) -> ScidiveEngine:
        return ScidiveEngine(
            vantage_ip=self.vantage_ip,
            vantage_mac=self.vantage_mac,
            ruleset=self.build_ruleset(),
            generators=self.build_generators(),
            name=self.name,
        )

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["disabled_rules"] = list(self.disabled_rules)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScidiveConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "disabled_rules" in kwargs:
            kwargs["disabled_rules"] = tuple(kwargs["disabled_rules"])
        return cls(**kwargs)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ScidiveConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))
