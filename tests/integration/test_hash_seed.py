"""A seed names one run: no output depends on the interpreter's hash seed.

``str`` hashing is salted per process (``PYTHONHASHSEED``), so a value
derived from ``hash()`` differs between two runs of the same seeded
scenario.  Two checks keep that out of the program:

* the same runs — every ``repro list`` scenario, the H.323
  forged-release attack and a benign H.323 call, which build their RTP
  sessions without an explicit RNG, and a tiny generated ``.workload``
  through one engine — are made in two interpreters under different
  hash seeds, and their trace digests and event multisets (attrs
  included) must be equal;
* no ``hash()`` / ``__hash__()`` result under ``src/`` seeds a
  ``random.Random`` or picks a shard (``hash(key) % workers``).
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

tb = H323Testbed(H323TestbedConfig(seed=9))
ids = ScidiveEngine(vantage_ip=TERMINAL_A_IP)
ids.attach(tb.ids_tap)
tb.register_all()
tb.terminal_a.call("bob")
tb.run_for(1.5)
tb.terminal_b.release(list(tb.terminal_b.calls.values())[0])
tb.run_for(1.5)
h323_benign = [trace_digest(tb.ids_tap.trace), *events_digest(ids)]

from repro.cli import ATTACK_SCENARIOS, _run_scenario
from repro.experiments.harness import BENIGN_KINDS

scenarios = {}
for name in [*ATTACK_SCENARIOS, *(f"benign-{kind}" for kind in BENIGN_KINDS)]:
    run = _run_scenario(name, 7)
    scenarios[name] = [trace_digest(run.testbed.ids_tap.trace), *events_digest(run.engine)]

spec, issues = parse_scenario(sys.stdin.read())
assert spec is not None, issues
result = generate_workload(spec)
engine = ScidiveEngine(vantage_ip=None)
engine.process_trace(result.trace)
workload = [trace_digest(result.trace), *events_digest(engine)]

print(json.dumps({
    "h323": h323, "h323_benign": h323_benign, "workload": workload,
    "scenarios": scenarios,
}))
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
    assert first["h323_benign"][1] > 0
    assert first["h323"] == second["h323"]
    assert first["h323_benign"] == second["h323_benign"]
    assert first["workload"] == second["workload"]
    assert len(first["scenarios"]) == 14
    assert first["scenarios"] == second["scenarios"]


def _has_hash_call(tree: ast.AST) -> bool:
    """True when a ``hash(...)`` or ``x.__hash__()`` call sits anywhere
    inside ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "__hash__":
            return True
    return False


def _seeds_from_hash(call: ast.Call) -> bool:
    """True when a hash call sits inside the arguments of ``call``."""
    return any(
        _has_hash_call(arg) for arg in [*call.args, *(kw.value for kw in call.keywords)]
    )


def _is_random_constructor(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name in ("Random", "seed")


def _hash_seeded(tree: ast.AST) -> list[int]:
    """Lines where a hash result seeds an RNG (``Random(hash(x))``) or
    picks a shard (``hash(x) % workers``)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_random_constructor(node):
            if _seeds_from_hash(node):
                lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if _has_hash_call(node.left):
                lines.append(node.lineno)
    return sorted(lines)


def test_no_hash_result_seeds_an_rng():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(f"{path.relative_to(SRC)}:{line}" for line in _hash_seeded(tree))
    assert offenders == []


def test_the_check_sees_a_hash_seeded_rng():
    tree = ast.parse(
        "random.Random(name.__hash__() & 0xFFFF)\nRandom(hash(name))\n"
        "rng.seed(hash(key))\nrandom.Random(zlib.crc32(name))\n"
        "shard = hash(call_id) % workers\nshard = zlib.crc32(key) % workers\n"
        "owner = (key.__hash__() & 0xFF) % len(workers)\n"
    )
    assert _hash_seeded(tree) == [1, 2, 3, 5, 7]
