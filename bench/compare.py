"""Compare two result files against the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py A.json B.json

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); both are ``bench/run.py --out`` files, ideally with several
runs per workload (``--runs 10``).  One row per (workload, end-to-end
metric) gives each side's median and quartiles and a verdict:

- ``worse``       B's median is worse than A's by more than the bound;
- ``better``      B's median is better than A's by more than the bound;
- ``within``      the medians differ by no more than the bound;
- ``unresolved``  either side's spread (interquartile distance over the
  median) is wider than the bound, so the runs cannot tell.

Exits non-zero on any ``worse`` or when B's share of failed operations
is higher than A's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs by workload (a single-run file counts as one)."""
    document = json.loads(Path(path).read_text())
    by_workload: dict[str, list[dict]] = {}
    for run in document.get("runs", [document]):
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    bound = metric["bound"]
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "within"


def failed_share(runs: list[dict]) -> float:
    return (sum(r["ops_failed"] for r in runs)
            / sum(r["ops_attempted"] for r in runs))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    status = 0
    print(f"{'workload':<15} {'metric':<19} {'A q1/median/q3':<34} "
          f"{'B q1/median/q3':<34} {'change':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in runs_a[workload]]
            b = [r["end_to_end"][name] for r in runs_b[workload]]
            what = verdict(metric, a, b)
            if what == "worse":
                status = 1
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print(f"{workload:<15} {name:<19} "
                  f"{'/'.join(f'{v:.5g}' for v in qa):<34} "
                  f"{'/'.join(f'{v:.5g}' for v in qb):<34} "
                  f"{change:>+8.2%} {metric['bound']:>6.1%}  {what}")
        share_a = failed_share(runs_a[workload])
        share_b = failed_share(runs_b[workload])
        if share_b > share_a:
            status = 1
        print(f"{workload:<15} {'ops_failed share':<19} {share_a:<34.3g} "
              f"{share_b:<34.3g} "
              f"{'  higher: FAILED' if share_b > share_a else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main())
