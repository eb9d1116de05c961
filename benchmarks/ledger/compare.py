"""Read two sets of ledger results against the bounds in BENCHMARK.json.

    python benchmarks/ledger/compare.py A B
    python benchmarks/ledger/compare.py --spread A

``A`` and ``B`` are each a results file written by ``run.py --out`` or a
directory of such files (one per run; alternate which side runs first).
For every workload × end-to-end metric the table shows each side's
median and quartiles, how much worse ``B`` is than ``A`` as a share of
``A``'s median, the metric's bound, and a verdict:

``ok``          ``B`` is not worse than ``A`` by more than the bound
``REGRESSED``   it is
``unresolved``  the run-to-run spread (IQR / median, either side) is wider
                than the bound, so the comparison cannot tell — unless
                every run of ``B`` reads better than every run of ``A``
                (``better``)

A side with a single run falls back to that run's per-pass samples for
its quartiles.  ``--spread`` prints one side's spread against a third of
each bound: the steadiness the benchmark must show before its bounds mean
anything.  Exit code 1 when any row is ``REGRESSED``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: list[dict] = []
    for file in files:
        runs.extend(json.loads(file.read_text(encoding="utf-8"))["runs"])
    return runs


def samples(runs: list[dict], workload: str, metric: str) -> list[float]:
    mine = [run for run in runs if run["workload"] == workload]
    values = [
        run["metrics"][metric]["value"] for run in mine if metric in run["metrics"]
    ]
    if len(values) == 1:
        return mine[0].get("samples", {}).get(metric, values)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid


def verdict(a: list[float], b: list[float], higher: bool, bound: float) -> tuple:
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    worse = (mid_a - mid_b) / mid_a if higher else (mid_b - mid_a) / mid_a
    if max(spread(a), spread(b)) > bound:
        all_better = min(b) > max(a) if higher else max(b) < min(a)
        return worse, "better" if all_better else "unresolved"
    return worse, "REGRESSED" if worse > bound else "ok"


def fmt(values: list[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{mid:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    only_spread = "--spread" in argv
    paths = [Path(arg) for arg in argv if arg != "--spread"]
    if len(paths) != (1 if only_spread else 2):
        print(__doc__)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = [load_runs(path) for path in paths]
    regressed = False
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [samples(runs, workload, name) for runs in sides]
            if not all(columns):
                continue
            label = f"{workload:12s} {name:22s}"
            if only_spread:
                share = spread(columns[0])
                state = "steady" if share <= bound / 3 else "noisy"
                print(
                    f"{label} {fmt(columns[0])}  n={len(columns[0]):<3d} "
                    f"spread {share:7.2%}  bound/3 {bound / 3:6.2%}  {state}"
                )
                continue
            worse, state = verdict(*columns, metric["better"] == "higher", bound)
            regressed |= state == "REGRESSED"
            print(
                f"{label} A {fmt(columns[0])}  B {fmt(columns[1])}  "
                f"worse by {worse:+7.2%}  bound {bound:.0%}  {state}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
