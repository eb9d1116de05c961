"""Golden evidence bundles: what ``repro explain`` shows must not drift.

The bundles of the four paper attacks (``repro scenario <attack> --seed 7
--bundle-dir ...``) and the crash corpus's quarantine bundle are committed
under ``golden_bundles/``: each bundle's JSON, its ``repro explain`` text,
and the SHA-256 of its pcap.  A change to how the flight recorder holds
frames, resolves evidence or describes ring frames must reproduce them
byte for byte.

Regenerate (only when a change to the bundles is intended) with::

    PYTHONPATH=src python -m tests.obs.test_bundle_golden
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.engine import ScidiveEngine
from repro.obs.forensics import list_bundles, write_malformed_bundle
from tests.property.test_distiller_fuzz import CRASH_CORPUS

GOLDEN = Path(__file__).parent / "golden_bundles"
PAPER_SCENARIOS = ("bye-attack", "call-hijack", "billing-fraud", "fake-im")
CRASH_DIR = "crash-corpus"
DIGESTS = "pcap_sha256.json"


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def produce(root: Path) -> None:
    """Write every golden bundle under ``root``: one directory per
    source, holding ``<id>.json``, ``<id>.pcap`` and ``<id>.explain.txt``."""
    for scenario in PAPER_SCENARIOS:
        _cli("scenario", scenario, "--seed", "7", "--bundle-dir", str(root / scenario))
    engine = ScidiveEngine()
    for n, (_label, frame) in enumerate(CRASH_CORPUS):
        engine.process_frame(frame, float(n))
    assert write_malformed_bundle(root / CRASH_DIR, engine.forensics) is not None
    for directory in sorted(p for p in root.iterdir() if p.is_dir()):
        for bundle_id in list_bundles(directory):
            text = _cli("explain", bundle_id, "--bundle-dir", str(directory))
            (directory / f"{bundle_id}.explain.txt").write_text(text, encoding="utf-8")


def _snapshot(root: Path) -> tuple[dict[str, bytes], dict[str, str]]:
    """(JSON and explain files by relative path, pcap SHA-256 by path)."""
    texts, digests = {}, {}
    for path in sorted(root.rglob("*")):
        name = path.relative_to(root).as_posix()
        if path.suffix == ".pcap":
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.is_file() and name != DIGESTS:
            texts[name] = path.read_bytes()
    return texts, digests


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> tuple[dict[str, bytes], dict[str, str]]:
    root = tmp_path_factory.mktemp("bundles")
    produce(root)
    return _snapshot(root)


class TestGoldenBundles:
    def test_every_source_wrote_bundles(self, produced):
        texts, digests = produced
        sources = {name.split("/")[0] for name in texts}
        assert sources == set(PAPER_SCENARIOS) | {CRASH_DIR}
        assert len(digests) * 2 == len(texts)

    def test_json_and_explain_text_are_byte_identical(self, produced):
        texts, _ = produced
        golden, _ = _snapshot(GOLDEN)
        assert sorted(texts) == sorted(golden)
        for name, body in texts.items():
            assert body == golden[name], f"{name} differs from its golden copy"

    def test_pcaps_are_byte_identical(self, produced):
        _, digests = produced
        recorded = json.loads((GOLDEN / DIGESTS).read_text(encoding="utf-8"))
        assert digests == recorded


if __name__ == "__main__":
    import shutil

    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    produce(GOLDEN)
    _, pcap_digests = _snapshot(GOLDEN)
    for name in pcap_digests:
        (GOLDEN / name).unlink()
    (GOLDEN / DIGESTS).write_text(json.dumps(pcap_digests, indent=2, sort_keys=True) + "\n")
