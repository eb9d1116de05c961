"""Contract census: the ``src/repro`` functions no contract command runs.

``python tools/census.py [--out FILE]`` runs the contract set — CI lint and
smoke, the quality gate, the ledger's workloads, the 18 paper benches, with
cluster runs on ``serial`` — under a ``sys.setprofile`` recorder in every
process, forked workers included (a generated ``sitecustomize``), and lists
each function none entered, detector and testbed apart.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PACK = str(SRC / "rulespec/packs/scidive-core.rules")
# Testbed code (simulator, attacks, workload generator, UA/proxy stacks); the rest is detector.
TESTBED = ("sim/", "attacks/", "workload/", "voip/", "experiments/", "baseline/",
           "accounting/", "sip/ua.py", "sip/proxy.py", "sip/registrar.py",
           "sip/transaction.py", "h323/endpoint.py", "h323/testbed.py", "rtp/session.py")
PAPER = ("table1", "fig", "sec43", "baseline", "placement", "h323", "billing",
         "stateful", "correlation", "media")
REPRO = (sys.executable, "-m", "repro")
HOOK = r'''import atexit, os, pathlib, sys, threading
OUT, SRC, HITS = os.environ.get("CENSUS_HITS"), os.environ.get("CENSUS_SRC"), set()
def prof(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(SRC):
        HITS.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def dump():
    pathlib.Path(OUT, f"{os.getpid()}.hits").write_text("".join(f"{f}\t{n}\n" for f, n in HITS))
if OUT:
    sys.setprofile(prof)
    threading.setprofile(prof)
    atexit.register(dump)
    os._exit = lambda code, _exit=os._exit: (dump(), _exit(code))  # forked workers end here
'''


def run_contract(work: Path, env: dict) -> None:
    def run(*args: str, cmd: tuple[str, ...] = REPRO) -> None:
        subprocess.run([*cmd, *args], env=env, cwd=work, check=True, stdout=subprocess.DEVNULL)

    def serve(args: tuple[str, ...], port: int, *clients: tuple[str, ...]) -> None:
        """Once the sidecar lingers: hit its endpoints, run the clients, ctrl-c it."""
        with subprocess.Popen([*REPRO, *args, "--serve-http", str(port), "--serve-linger", "600"],
                              env=env, cwd=work, stdout=subprocess.PIPE, text=True) as proc:
            try:
                next(line for line in proc.stdout if line.startswith("sidecar serving"))
                for path in ("healthz", "metrics", "alerts", "metrics/history?limit=60", "trace"):
                    with contextlib.suppress(OSError):  # not every sidecar serves every endpoint
                        urllib.request.urlopen(f"http://127.0.0.1:{port}/{path}", timeout=30).read()
                for client in clients:
                    run(*client, "--port", str(port))
            finally:
                proc.send_signal(signal.SIGINT)

    serial, seed = ("--workers", "4", "--cluster-backend", "serial"), ("--seed", "7")
    run("rules", "check", str(SRC / "rulespec/packs"))
    run("workload", "check", str(ROOT / "workloads"))
    run("scenario", "bye-attack", *seed, "--metrics-out", "m.txt", "--trace-out", "t.jsonl")
    run("scenario", "bye-attack", *seed, *serial, "--trace-out", "ct.jsonl")
    run("rules", "show", PACK)
    run("stats", "bye-attack", *seed, "--format", "json")
    run("modules")
    spans = map(json.loads, (work / "ct.jsonl").read_text().splitlines())
    tid = next(s["trace"] for s in spans if s["span"] == "match" and s["meta"].get("alerts"))
    run("trace", tid, "--trace-file", "ct.jsonl")
    run("profile", "--scenario", "bye-attack", *seed, "--once", "--out", "p.collapsed")
    serve(("scenario", "bye-attack", *seed, "--bundle-dir", "b"), 8131, ("top", "--once"),
          ("rules", "reload", "--pack", PACK))
    run("explain", "scidive-1", "--bundle-dir", "b")
    run("chaos", "--workers", "4", *seed, "--json", "c.json")
    run("chaos", "--workers", "2", *seed, "--no-crashes", "--flood", "20000")
    run("workload", "generate", "--spec", str(ROOT / "workloads/flood-invite.workload"),
        "--out", "flood")
    run("replay", "flood/trace.pcap", "--overload")
    serve(("replay", "flood/trace.pcap", *serial, "--overload"), 8132, ("top", "--once"))
    serve(("scenario", "bye-attack", *seed, *serial, "--trace-out", "tc.jsonl"), 8133)
    run("workload", "run", "--spec", str(ROOT / "workloads/ci.workload"), *serial,
        "--sweeps", "--out", "wq", "--json", "q.json", "--fail-on-miss")
    run(str(ROOT / "benchmarks/ledger/run.py"), "--seed", "42", "--passes", "1",
        cmd=(sys.executable,))
    benches = sorted(f for p in PAPER for f in glob.glob(str(ROOT / f"benchmarks/bench_{p}*.py")))
    run("-p", "no:cacheprovider", "--benchmark-disable", *benches,
        cmd=(sys.executable, "-m", "pytest", "-q"))


def functions(node: ast.AST, prefix: str = ""):
    """(first line, def line, name, lines) per def; abstract stubs left out."""
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}{getattr(child, 'name', '')}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            if not any("abstractmethod" in ast.unparse(d) for d in child.decorator_list):
                yield first, child.lineno, name, child.end_lineno - first + 1
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from functions(child, name + ".")


def report(hits: set, processes: int) -> str:
    rows: dict[str, list[tuple[str, str, int]]] = {"detector": [], "testbed": []}
    total = total_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for first, line, name, size in functions(ast.parse(path.read_text())):
            total, total_lines = total + 1, total_lines + size
            if (str(path), first) not in hits and (str(path), line) not in hits:
                rows["testbed" if rel.startswith(TESTBED) else "detector"].append(
                    (f"{rel}:{line}", name, size))
    out = [f"# Contract census\n\n`python tools/census.py`, Python {sys.version.split()[0]}, "
           f"{processes} recorded processes. `src/repro` has {total} functions ({total_lines} "
           f"lines); {sum(map(len, rows.values()))} never run in the contract set.\n"]
    for side, found in rows.items():
        out += [f"\n## {side.title()}: {len(found)} functions, "
                f"{sum(size for *_, size in found)} lines\n",
                "| where | function | lines |", "|---|---|---|"]
        out += [f"| `{where}` | `{name}` | {size} |" for where, name, size in found]
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "tools/CENSUS.md")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work, hook, hits_dir = (Path(tempfile.mkdtemp(dir=tmp)) for _ in range(3))
        (hook / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, CENSUS_HITS=str(hits_dir), CENSUS_SRC=str(SRC),
                   PYTHONPATH=os.pathsep.join([str(hook), str(ROOT / "src")]))
        run_contract(work, env)
        files = list(hits_dir.glob("*.hits"))
        hits = {(f, int(n)) for p in files
                for f, n in (line.split("\t") for line in p.read_text().splitlines())}
    args.out.write_text(report(hits, len(files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
