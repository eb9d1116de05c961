"""Pack parser and linter: golden diagnostics and canonical round-trips.

Each ``golden/<name>.rules`` fixture is a deliberately broken pack; the
matching ``golden/<name>.expected`` file lists the error diagnostics it
must produce, one ``<line> <code>`` pair per line.  The golden pairs pin
the *line anchoring* as much as the codes — a linter that reports the
right code on the wrong line is useless for fixing a 200-line pack.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.rulespec import CORE_PACK_PATH as SHIPPED
from repro.rulespec import (
    RulePackError,
    lint_path,
    lint_text,
    load_pack,
    parse_pack,
)

GOLDEN = Path(__file__).parent / "golden"


def _expected_errors(rules_path: Path) -> set[tuple[int, str]]:
    expected = rules_path.with_suffix(".expected")
    pairs = set()
    for line in expected.read_text(encoding="utf-8").splitlines():
        if line.strip():
            lineno, code = line.split()
            pairs.add((int(lineno), code))
    return pairs


class TestGoldenDiagnostics:
    @pytest.mark.parametrize(
        "rules_path", sorted(GOLDEN.glob("*.rules")), ids=lambda p: p.stem
    )
    def test_error_lines_and_codes(self, rules_path):
        issues = lint_path(str(rules_path))
        got = {(i.line, i.code) for i in issues if i.severity == "error"}
        assert got == _expected_errors(rules_path)

    @pytest.mark.parametrize(
        "rules_path", sorted(GOLDEN.glob("*.rules")), ids=lambda p: p.stem
    )
    def test_broken_pack_does_not_parse(self, rules_path):
        pack, issues = parse_pack(
            rules_path.read_text(encoding="utf-8"), str(rules_path)
        )
        assert pack is None
        assert any(i.severity == "error" for i in issues)

    def test_load_pack_raises_with_anchored_issues(self):
        path = GOLDEN / "unknown-event.rules"
        with pytest.raises(RulePackError) as excinfo:
            load_pack(str(path))
        # The exception carries the issue list and its message names the
        # file and line, so a failed engine start is immediately fixable.
        assert excinfo.value.issues
        assert f"{path}:9" in str(excinfo.value)

    def test_lint_path_fills_source_path(self):
        path = GOLDEN / "bad-window.rules"
        for issue in lint_path(str(path)):
            assert issue.path == str(path)
            assert str(issue).startswith(f"{path}:{issue.line}: ")

    def test_one_error_does_not_mask_the_next(self):
        # structure.rules stacks six distinct mistakes; the linter must
        # report all of them in one pass, not stop at the first.
        codes = {
            i.code
            for i in lint_path(str(GOLDEN / "structure.rules"))
            if i.severity == "error"
        }
        assert len(codes) >= 5


class TestShippedPack:
    def test_lints_clean(self):
        assert not [i for i in lint_path(str(SHIPPED)) if i.severity == "error"]

    def test_canonical_describe_round_trips(self):
        pack = load_pack(str(SHIPPED))
        reparsed, issues = parse_pack(pack.describe(), "<describe>")
        assert not [i for i in issues if i.severity == "error"]
        # RuleDef.line is excluded from equality, so the reparsed pack —
        # whose sections land on different lines — compares equal.
        assert reparsed == pack
        assert reparsed.content_hash == pack.content_hash
        assert reparsed.describe() == pack.describe()

    def test_content_hash_tracks_semantics_not_layout(self):
        text = SHIPPED.read_text(encoding="utf-8")
        pack, _ = parse_pack(text, str(SHIPPED))
        commented, _ = parse_pack("# extra comment\n" + text, "<commented>")
        assert commented.content_hash == pack.content_hash
        bumped, _ = parse_pack(
            text.replace("version = 1.0.0", "version = 1.0.1"), "<bumped>"
        )
        assert bumped.content_hash != pack.content_hash
        assert bumped.label != pack.label

    def test_lint_text_matches_lint_path(self):
        text = SHIPPED.read_text(encoding="utf-8")
        assert [(i.line, i.code) for i in lint_text(text, str(SHIPPED))] == [
            (i.line, i.code) for i in lint_path(str(SHIPPED))
        ]
