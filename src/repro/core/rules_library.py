"""The built-in ruleset: Table 1's four rules plus the §3 scenarios.

The rules themselves are defined once, as data, in the shipped pack
(``repro/rulespec/packs/scidive-core.rules``, loaded by
:func:`repro.rulespec.core_pack`).  This module holds the two stock
selections of them (:func:`paper_ruleset`, :func:`table1_ruleset`) and
the human index of their ids — stable strings used throughout tests
and benchmarks:

==============  ============================================================
``BYE-001``     BYE attack — "No RTP traffic should be seen after a SIP BYE
                from a particular user agent" (cross-protocol + stateful)
``HIJACK-001``  Call Hijacking — no RTP from the old endpoint after a
                re-INVITE moved the party's media (cross-protocol + stateful)
``FAKEIM-001``  Fake Instant Messaging — source IP of an IM differs from the
                sender's recent IP within the mobility window
``RTP-001``     RTP attack — sequence jump beyond the threshold (paper: 100)
``RTP-002``     RTP attack — media from an IP that no SDP negotiated
``RTP-003``     RTP attack — datagram on a media port that is not valid RTP
``DOS-001``     REGISTER DoS — repeated unauthenticated REGISTERs ignoring
                401 challenges (stateful)
``PWD-001``     Password guessing — repeated failed digests with *different*
                challenge responses (stateful)
``FRAUD-001``   Billing fraud — conjunction of malformed SIP, an accounting
                transaction without a matching call setup, and rogue media
                (cross-protocol ×3)
``RTCP-001``    Forged RTCP BYE — a participant's RTP keeps flowing after
                its RTCP goodbye (§3.1's SIP→RTP→RTCP chain)
``SSRC-001``    SSRC impersonation — one SSRC produced by two sources (§2.2)
``H323-001``    The BYE-attack rule on the H.323 CMP — RTP from a party
                after its RELEASE COMPLETE
==============  ============================================================
"""

from __future__ import annotations

from repro.core.rules import RuleSet

RULE_BYE_ATTACK = "BYE-001"
RULE_CALL_HIJACK = "HIJACK-001"
RULE_FAKE_IM = "FAKEIM-001"
RULE_RTP_SEQ = "RTP-001"
RULE_RTP_SOURCE = "RTP-002"
RULE_RTP_MALFORMED = "RTP-003"
RULE_REGISTER_DOS = "DOS-001"
RULE_PASSWORD_GUESS = "PWD-001"
RULE_BILLING_FRAUD = "FRAUD-001"
RULE_RTCP_BYE_ORPHAN = "RTCP-001"
RULE_SSRC_COLLISION = "SSRC-001"
RULE_H323_RELEASE = "H323-001"

# The rules behind Table 1's four attacks (the RTP attack has three).
TABLE1_RULES = (
    RULE_BYE_ATTACK,
    RULE_CALL_HIJACK,
    RULE_FAKE_IM,
    RULE_RTP_SEQ,
    RULE_RTP_SOURCE,
    RULE_RTP_MALFORMED,
)


def paper_ruleset() -> RuleSet:
    """Exactly the rules demonstrated in the paper (Table 1 + §3.2/§3.3):
    the shipped pack, freshly compiled."""
    from repro.rulespec import compile_pack, core_pack

    return compile_pack(core_pack())


def table1_ruleset() -> RuleSet:
    """Only the four Table 1 attack rules (for the accuracy matrix)."""
    from repro.rulespec import compile_pack, core_pack

    return compile_pack(core_pack().derive(keep=TABLE1_RULES))
