#!/usr/bin/env python
"""Run alternating base/change pairs of ``bench/run.py`` and judge a claim.

    python tools/bench_pairs.py BASE_REV --workload serve_link --pairs 10 \\
        --seed-base 500
    python tools/bench_pairs.py BASE_REV \\
        --workload inproc_link,dist_wal_alarm,dist_link,serve_link \\
        --pairs 10 --seed-base 500 --claim inproc_link:peak_rss_mb

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
also judges "nothing worse": each metric's bound verdict (``within``,
``better``, ``worse`` or ``unresolved``, from ``bench/compare.py`` and
the metric's ``BENCHMARK.json`` bound), each side's share of failed
operations, and a flag on any pair whose ``messages_per_event`` or
``eps_headroom`` differ between the sides.  ``--workload`` takes one
name or a comma-separated list; each workload runs its own pairs, with
the same seeds, and gets its own summary block.  The tool exits 1 when
any workload has a ``worse`` verdict, a flagged pair or a larger failed
share for the change.  ``--claim WORKLOAD:METRIC`` names the metric a
change claims to improve: the tool prints "claim met" or "claim not
met" and exits 1 unless the claimed metric's bound verdict is
``better`` *and* its gain rule holds.  A gain inside the metric's bound
is not a claim met, however many pairs it wins.  ``--out`` writes every
workload's raw run records and summary as JSON.
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


#: Protocol metrics: a change that keeps the protocol moves neither, so
#: any difference within a pair is flagged, whatever the bound says.
IDENTICAL_METRICS = ("messages_per_event", "eps_headroom")


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Judge ``pairs`` — ``{"base": record, "change": record}`` dicts of
    ``bench/run.py --out`` records — on the ``end_to_end`` metrics of
    ``BENCHMARK.json`` (each with ``name``, ``unit``, ``better``,
    ``bound``).

    Per metric: quartiles, win count, the gain rule and the bound
    verdict of ``bench/compare.py::verdict`` on the two sides' runs.
    ``flagged`` lists the pairs whose :data:`IDENTICAL_METRICS` differ
    between the sides; ``worse`` is true when any verdict is ``worse``,
    any pair is flagged or the change failed a larger share of its
    operations (``bench/compare.py``'s exit rule).
    """
    compare = _bench_compare()
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        base = [p["base"]["end_to_end"][name] for p in pairs]
        change = [p["change"]["end_to_end"][name] for p in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        qb, qc = compare.quartiles(base), compare.quartiles(change)
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
            "verdict": compare.verdict(metric, base, change),
        })
    judged = {metric["name"] for metric in end_to_end}
    flagged = [
        {"pair": i, "seed": pair.get("seed"), "metric": name,
         "base": pair["base"]["end_to_end"][name],
         "change": pair["change"]["end_to_end"][name]}
        for i, pair in enumerate(pairs)
        for name in IDENTICAL_METRICS if name in judged
        if pair["base"]["end_to_end"][name]
        != pair["change"]["end_to_end"][name]
    ]

    def failed_share(side):
        attempted = sum(p[side]["ops_attempted"] for p in pairs)
        return sum(p[side]["ops_failed"] for p in pairs) / attempted

    shares = {side: failed_share(side) for side in ("base", "change")}
    return {
        "metrics": rows,
        "failed_share": shares,
        "flagged": flagged,
        "worse": (bool(flagged) or shares["change"] > shares["base"]
                  or any(row["verdict"] == "worse" for row in rows)),
    }


def judge_claim(summary: dict, metric: str) -> dict:
    """Whether ``summary`` bears out a claimed gain on ``metric``: its
    bound verdict is ``better`` (the median moved past the metric's
    ``BENCHMARK.json`` bound) and the gain rule holds."""
    (row,) = [row for row in summary["metrics"] if row["name"] == metric]
    return {
        "metric": metric,
        "verdict": row["verdict"],
        "gain_holds": row["gain_holds"],
        "met": row["verdict"] == "better" and row["gain_holds"],
    }


def format_claim(workload: str, claim: dict) -> str:
    return (f"claim {workload}:{claim['metric']} "
            f"{'met' if claim['met'] else 'not met'}: bound verdict "
            f"{claim['verdict']}, gain rule "
            f"{'holds' if claim['gain_holds'] else 'does not hold'}")


def format_summary(summary: dict) -> str:
    lines = [f"{'metric':<19} {'base median [q1, q3]':<36} "
             f"{'change median [q1, q3]':<36} {'Δ median':>9} "
             f"{'wins':>6}  {'gain rule':<9}  bound"]
    for row in summary["metrics"]:
        cells = [
            f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            for q in (row["base"], row["change"])
        ]
        lines.append(
            f"{row['name']:<19} {cells[0]:<36} {cells[1]:<36} "
            f"{row['median_change']:>+9.2%} "
            f"{row['wins']:>3}/{row['pairs']:<2}  "
            f"{'holds' if row['gain_holds'] else 'no':<9}  {row['verdict']}"
        )
    shares = summary["failed_share"]
    lines.append(f"failed ops share: base {shares['base']:.3g}, "
                 f"change {shares['change']:.3g}")
    for flag in summary["flagged"]:
        lines.append(f"FLAGGED pair {flag['pair'] + 1} (seed {flag['seed']}): "
                     f"{flag['metric']} base {flag['base']!r} "
                     f"!= change {flag['change']!r}")
    lines.append("nothing worse: " + ("NO" if summary["worse"] else "yes"))
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


def _workload_list(names: list[str]):
    """argparse type: a comma-separated list of ``BENCHMARK.json``
    workload names."""
    def parse(text: str) -> list[str]:
        chosen = [name.strip() for name in text.split(",")]
        unknown = [name for name in chosen if name not in names]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown workload(s) {', '.join(map(repr, unknown))} "
                f"(choose from {', '.join(names)})")
        return chosen
    return parse


def _claim(workloads: list[str], metrics: list[str]):
    """argparse type: ``WORKLOAD:METRIC`` naming a ``BENCHMARK.json``
    workload and end-to-end metric."""
    def parse(text: str) -> tuple[str, str]:
        workload, _, metric = text.partition(":")
        if workload not in workloads or metric not in metrics:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not WORKLOAD:METRIC (workloads: "
                f"{', '.join(workloads)}; metrics: {', '.join(metrics)})")
        return workload, metric
    return parse


def _run_pairs(trees: dict, workload: str, args, seconds: float,
               tmp: Path) -> list[dict]:
    """``args.pairs`` alternating base/change pairs of one workload."""
    pairs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(trees[side], workload, seed, seconds,
                              tmp / f"{side}-{workload}-{seed}.json")
        print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
              + ", ".join(f"{side} events_per_s "
                          f"{pair[side]['end_to_end']['events_per_s']:.5g}"
                          for side in order), file=sys.stderr)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base_rev", help="git revision of the base side")
    parser.add_argument(
        "--workload", required=True,
        type=_workload_list([w["name"] for w in contract["workloads"]]),
        help="workload name, or a comma-separated list of them")
    parser.add_argument("--pairs", type=int, default=10,
                        help="number of base/change pairs (default 10)")
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair i runs seed SEED_BASE + i on both sides")
    parser.add_argument("--out", help="write run records and summary here")
    parser.add_argument(
        "--claim",
        type=_claim([w["name"] for w in contract["workloads"]],
                    [m["name"] for m in contract["end_to_end"]]),
        help="WORKLOAD:METRIC the change claims to improve; exit 1 "
             "unless its bound verdict is better and the gain rule holds")
    args = parser.parse_args(argv)
    if args.claim and args.claim[0] not in args.workload:
        parser.error(f"--claim workload {args.claim[0]!r} is not in "
                     "--workload")

    blocks = []
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
        for workload in args.workload:
            try:
                pairs = _run_pairs(trees, workload, args,
                                   contract["run_seconds"], tmp)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            summary = summarize(pairs, contract["end_to_end"])
            print(f"{workload}: {args.pairs} pairs, base {args.base_rev}, "
                  f"seeds {args.seed_base}.."
                  f"{args.seed_base + args.pairs - 1}")
            print(format_summary(summary), flush=True)
            blocks.append({"workload": workload, "pairs": pairs,
                           "summary": summary})
            if args.claim and args.claim[0] == workload:
                claim = judge_claim(summary, args.claim[1])
                print(format_claim(workload, claim), flush=True)
                blocks[-1]["claim"] = claim
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"base_rev": args.base_rev, "workloads": blocks}, indent=1)
            + "\n")
    claim_failed = any(not block["claim"]["met"]
                       for block in blocks if "claim" in block)
    return 1 if claim_failed or any(
        block["summary"]["worse"] for block in blocks) else 0


if __name__ == "__main__":
    raise SystemExit(main())
