"""A seed names one run: no output depends on the interpreter's hash seed.

``str`` hashing is salted per process (``PYTHONHASHSEED``), so a value
derived from ``hash()`` differs between two runs of the same seeded
scenario.  Two checks keep that out of the program:

* the same runs — the H.323 forged-release attack, which builds its RTP
  sessions without an explicit RNG, and a tiny generated ``.workload``
  through one engine — are made in two interpreters under different
  hash seeds, and their trace digests and event multisets (attrs
  included) must be equal;
* no ``hash()`` / ``__hash__()`` result under ``src/`` seeds a
  ``random.Random``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

TINY_WORKLOAD = """\
[workload]
name = hash-seed-probe
subscribers = 6
duration = 120
seed = 5
media_pps = 5

[attack bye]
count = 1

[attack rtp]
count = 1
"""

# Runs in a fresh interpreter and prints, per run, the trace digest and
# a digest of the sorted event rows (name, time, session, attrs).
_PROBE = r"""
import hashlib, json, sys

from repro.attacks import ForgedReleaseAttack
from repro.core.engine import ScidiveEngine
from repro.h323.testbed import H323Testbed, H323TestbedConfig, TERMINAL_A_IP
from repro.workload import generate_workload, trace_digest
from repro.workload.scenario import parse_scenario


def events_digest(engine):
    rows = sorted(
        json.dumps(event.to_dict(), sort_keys=True, default=str)
        for event in engine.event_log
    )
    return len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()


tb = H323Testbed(H323TestbedConfig(seed=7))
ids = ScidiveEngine(vantage_ip=TERMINAL_A_IP)
ids.attach(tb.ids_tap)
attack = ForgedReleaseAttack(tb)
tb.register_all()
tb.terminal_a.call("bob")
tb.run_for(1.5)
attack.launch_now()
tb.run_for(1.5)
h323 = [trace_digest(tb.ids_tap.trace), *events_digest(ids)]

spec, issues = parse_scenario(sys.stdin.read())
assert spec is not None, issues
result = generate_workload(spec)
engine = ScidiveEngine(vantage_ip=None)
engine.process_trace(result.trace)
workload = [trace_digest(result.trace), *events_digest(engine)]

print(json.dumps({"h323": h323, "workload": workload}))
"""


def _probe(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        input=TINY_WORKLOAD,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_runs_are_equal_under_two_hash_seeds():
    first, second = _probe("1"), _probe("2")
    assert first["h323"][1] > 0 and first["workload"][1] > 0
    assert first["h323"] == second["h323"]
    assert first["workload"] == second["workload"]


def _seeds_from_hash(call: ast.Call) -> bool:
    """True when a ``hash(...)`` or ``x.__hash__()`` call sits anywhere
    inside the arguments of ``call``."""
    for arg in [*call.args, *(kw.value for kw in call.keywords)]:
        for node in ast.walk(arg):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "hash":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "__hash__":
                return True
    return False


def _is_random_constructor(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name in ("Random", "seed")


def test_no_hash_result_seeds_an_rng():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _is_random_constructor(node)
                and _seeds_from_hash(node)
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_the_check_sees_a_hash_seeded_rng():
    tree = ast.parse(
        "random.Random(name.__hash__() & 0xFFFF)\nRandom(hash(name))\n"
        "rng.seed(hash(key))\nrandom.Random(zlib.crc32(name))\n"
    )
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    flagged = [
        node.lineno
        for node in calls
        if _is_random_constructor(node) and _seeds_from_hash(node)
    ]
    assert flagged == [1, 2, 3]
