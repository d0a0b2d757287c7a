#!/usr/bin/env python
"""Run alternating base/change pairs of ``bench/run.py`` and judge a claim.

    python tools/bench_pairs.py BASE_REV --workload serve_link --pairs 10 \\
        --seed-base 500

``BASE_REV`` (any git revision) is extracted with ``git archive`` into a
temporary directory; the change side is this checkout's working tree.
Pair ``i`` runs ``bench/run.py --workload W --seed S+i`` once on each
side, for ``BENCHMARK.json``'s ``run_seconds``, base first on even ``i``
and change first on odd ``i``, so a drift of the host over time favours
neither side.  Both sides run their own ``bench/`` and ``src/``; nothing
in either tree is modified.  A run that exits non-zero or fails one of
its conformance checks stops the tool with exit status 2 and prints the
failed checks (or the run's stderr when it wrote no record).

For every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles, the change in median, how many pairs the
change won (ties count for neither side), and whether the gain rule holds:
the change wins at least nine tenths of the pairs *and* its median beats
the base median by more than the base runs' interquartile distance.  It
also gives each side's share of failed operations.  ``--out`` writes the
raw run records and the summary as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_compare():
    """``bench/compare.py`` — its quartile definition is the benchmark's."""
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "bench" / "compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Judge ``pairs`` — ``{"base": record, "change": record}`` dicts of
    ``bench/run.py --out`` records — on the ``end_to_end`` metrics of
    ``BENCHMARK.json`` (each with ``name``, ``unit``, ``better``)."""
    quartiles = _bench_compare().quartiles
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        base = [p["base"]["end_to_end"][name] for p in pairs]
        change = [p["change"]["end_to_end"][name] for p in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        gain = sign * (qc[1] - qb[1])
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "base": qb,
            "change": qc,
            "median_change": (qc[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0,
            "wins": wins,
            "pairs": len(pairs),
            "gain_holds": (wins >= math.ceil(0.9 * len(pairs))
                           and gain > qb[2] - qb[0]),
        })

    def failed_share(side):
        attempted = sum(p[side]["ops_attempted"] for p in pairs)
        return sum(p[side]["ops_failed"] for p in pairs) / attempted

    return {
        "metrics": rows,
        "failed_share": {side: failed_share(side) for side in ("base", "change")},
    }


def format_summary(summary: dict) -> str:
    lines = [f"{'metric':<19} {'base median [q1, q3]':<36} "
             f"{'change median [q1, q3]':<36} {'Δ median':>9} "
             f"{'wins':>6}  gain rule"]
    for row in summary["metrics"]:
        cells = [
            f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            for q in (row["base"], row["change"])
        ]
        lines.append(
            f"{row['name']:<19} {cells[0]:<36} {cells[1]:<36} "
            f"{row['median_change']:>+9.2%} "
            f"{row['wins']:>3}/{row['pairs']:<2}  "
            f"{'holds' if row['gain_holds'] else 'no'}"
        )
    shares = summary["failed_share"]
    lines.append(f"failed ops share: base {shares['base']:.3g}, "
                 f"change {shares['change']:.3g}")
    return "\n".join(lines)


def _extract(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: float,
         out: Path) -> dict:
    """One ``bench/run.py`` record; ``RuntimeError`` carrying the run's
    stderr when it wrote no record, exited non-zero or failed a check."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    where = f"{tree}: bench/run.py --workload {workload} --seed {seed}"
    if not out.is_file():
        raise RuntimeError(f"{where} wrote no result "
                           f"(exit {done.returncode}):\n{done.stderr}")
    record = json.loads(out.read_text())
    if done.returncode != 0 or not record["correct"]:
        failures = "\n".join(f"  {name}: {why}"
                             for name, why in record["failures"].items())
        raise RuntimeError(f"{where} exited {done.returncode}, failed "
                           f"checks:\n{failures or done.stderr}")
    return record


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base_rev", help="git revision of the base side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--pairs", type=int, default=10,
                        help="number of base/change pairs (default 10)")
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair i runs seed SEED_BASE + i on both sides")
    parser.add_argument("--out", help="write run records and summary here")
    args = parser.parse_args(argv)

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        base_tree.mkdir()
        try:
            _extract(args.base_rev, base_tree)
        except subprocess.CalledProcessError:
            print(f"error: cannot archive revision {args.base_rev!r}",
                  file=sys.stderr)
            return 2
        trees = {"base": base_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                try:
                    pair[side] = _run(trees[side], args.workload, seed,
                                      contract["run_seconds"],
                                      tmp / f"{side}-{seed}.json")
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} events_per_s "
                f"{pair[side]['end_to_end']['events_per_s']:.5g}"
                for side in order), file=sys.stderr)
            pairs.append(pair)
    summary = summarize(pairs, contract["end_to_end"])
    print(f"{args.workload}: {args.pairs} pairs, base {args.base_rev}, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    print(format_summary(summary))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"base_rev": args.base_rev, "workload": args.workload,
             "pairs": pairs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
