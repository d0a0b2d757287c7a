"""``python -m repro.experiments`` — the paper's evaluation, as subcommands.

One subcommand per figure family of Zhang, Tirthapura & Cormode (ICDE 2018):

- ``messages``   — message counts and accuracy along the stream (Fig. 4).
- ``eps``        — communication vs the approximation budget eps (Fig. 5).
- ``sites``      — communication vs the number of sites k (Fig. 6).
- ``accuracy``   — estimate accuracy vs stream length (Fig. 7's metric).
- ``runtime``    — modeled cluster runtime/throughput (Figs. 7-8).
- ``classify``   — approximate vs exact Bayesian classification (Sec. V,
  Definition 4 / Theorem 3): agreement rate and error-rate gap.
- ``separation`` — the Sec. IV-E NONUNIFORM-vs-UNIFORM crossover sweep
  on NEW-ALARM.
- ``long-crossover`` — the NEW-ALARM crossover pushed past m >~ 1M via
  the chunked executor.
- ``figures``    — ASCII plots from any document the others wrote.

Each subcommand prints an aligned summary table to stderr and writes a
``repro-bench-v1`` JSON document to ``--out`` (stdout by default).  A
library, file or JSON error ends in one ``error: ...`` line on stderr
and exit code 2, never a traceback.

How fast the system runs is measured elsewhere: ``python3 bench/run.py``
(see ``bench/README.md``).

Grid subcommands pick their driver with ``--executor`` (``serial``,
``multiprocess``, ``chunked`` — see ``docs/execution.md``); every
executor produces byte-identical results (wall-clock fields aside), so
``--executor multiprocess --jobs 4`` is purely a speed knob, and
``--executor chunked`` additionally survives worker death mid-run.

Grid subcommands are resumable: ``--resume-dir DIR`` checkpoints every
run's session there (snapshot bundles) and caches finished results —
keyed on a hash of the full task descriptor, so reordered or extended
grids reuse exactly the cells that match — and re-invoking the same
command continues where it left off.  ``--stop-after N`` deliberately
interrupts each run at the first checkpoint past ``N`` events — exit
code 3 signals "snapshots saved, re-run to finish", which is how
``make smoke`` exercises the snapshot→restore cycle end to end.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.algorithms import ALGORITHMS
from repro.errors import ReproError
from repro.exec.base import executor_names
from repro.experiments import figures
from repro.experiments.presets import (
    classification_experiment,
    long_crossover_experiment,
    separation_experiment,
)
from repro.experiments.runner import ExperimentRunner
from repro.utils.tabletext import format_table

#: Exit code of a grid command that stopped early, leaving snapshots.
EXIT_INCOMPLETE = 3


def _csv(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _csv_floats(value: str) -> list[float]:
    return [float(part) for part in _csv(value)]


def _csv_ints(value: str) -> list[int]:
    return [int(part) for part in _csv(value)]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--network", default="alarm",
        help="evaluation network name (Table I): alarm, new-alarm, hepar2, "
        "link, munin, naive-bayes",
    )
    parser.add_argument(
        "--algorithms", type=_csv, default=list(ALGORITHMS),
        help="comma-separated algorithm list (default: %(default)s)",
    )
    parser.add_argument("--events", type=int, default=10_000,
                        help="stream length m (default: %(default)s)")
    parser.add_argument("--sites", type=int, default=10,
                        help="number of sites k (default: %(default)s)")
    parser.add_argument("--eps", type=float, default=0.1,
                        help="approximation budget (default: %(default)s)")
    parser.add_argument("--checkpoints", type=int, default=5,
                        help="evenly spaced checkpoints (default: %(default)s)")
    parser.add_argument("--partitioner", default="uniform",
                        choices=["uniform", "round-robin", "zipf"])
    parser.add_argument("--zipf-exponent", type=float, default=1.0)
    parser.add_argument("--counter-backend", default="hyz",
                        choices=["hyz", "deterministic"])
    parser.add_argument("--eval-events", type=int, default=2_000,
                        help="held-out accuracy sample size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--runtime", default="inprocess",
        choices=["inprocess", "distributed"],
        help="session runtime (default: %(default)s); 'distributed' runs "
        "real site worker processes and produces identical results "
        "(see docs/distributed.md)",
    )
    parser.add_argument(
        "--sites-procs", type=int, default=None,
        help="worker processes for --runtime distributed "
        "(default: one per CPU core, capped at k)",
    )
    parser.add_argument(
        "--transport", default="queue", choices=["queue", "tcp"],
        help="channel of --runtime distributed (default: %(default)s); "
        "'tcp' runs the repro.net socket wire over loopback with "
        "identical results (see docs/networking.md)",
    )
    parser.add_argument(
        "--max-frame-mb", type=float, default=None,
        help="per-frame payload ceiling in MiB for --transport tcp "
        "(default: the wire's 256 MiB cap)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=None,
        help="worker-side dead-peer threshold in seconds for "
        "--transport tcp (default: off)",
    )
    parser.add_argument(
        "--executor", default="serial", choices=executor_names(),
        help="task-graph driver (default: %(default)s); all executors "
        "produce identical results",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for parallel executors "
        "(default: all CPU cores for multiprocess, 1 for chunked)",
    )
    parser.add_argument(
        "--segment-events", type=int, default=None,
        help="minimum events between chunked-executor snapshot boundaries "
        "(default: every checkpoint)",
    )
    parser.add_argument(
        "--resume-dir", default=None,
        help="checkpoint sessions and cache results here; re-invoking the "
        "same command resumes incomplete runs and skips finished ones",
    )
    parser.add_argument(
        "--stop-after", type=int, default=None,
        help="interrupt every run at the first checkpoint past this many "
        "events, leaving resumable snapshots (needs --resume-dir)",
    )
    parser.add_argument("--out", default=None,
                        help="write JSON here (default: stdout)")


def _runner(args) -> ExperimentRunner:
    return ExperimentRunner(
        eval_events=args.eval_events, seed=args.seed
    )


def _emit(document: dict, out_path, *, summary: str) -> None:
    print(summary, file=sys.stderr)
    text = json.dumps(document, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        print(text)


def _run_table(result) -> str:
    rows = []
    for run in result.runs:
        final = run.final
        rows.append([
            run.network, run.algorithm, run.eps, run.n_sites, run.n_events,
            final.total_messages, run.messages_per_event,
            "-" if final.mean_abs_log_error is None
            else final.mean_abs_log_error,
            run.runtime["runtime_seconds"],
        ])
    return format_table(
        ["network", "algorithm", "eps", "k", "m", "messages", "msg/event",
         "|log-err|", "model-sec"],
        rows,
        title=f"experiment: {result.name}",
    )


def _grid_command(args, *, name, eps_values=None, site_counts=None) -> int:
    if args.stop_after is not None and args.resume_dir is None:
        print("error: --stop-after requires --resume-dir", file=sys.stderr)
        return 2
    runner = _runner(args)
    result = runner.run_grid(
        name,
        networks=[args.network],
        algorithms=args.algorithms,
        eps_values=eps_values if eps_values is not None else [args.eps],
        site_counts=site_counts if site_counts is not None else [args.sites],
        n_events=args.events,
        checkpoints=args.checkpoints,
        partitioner=args.partitioner,
        zipf_exponent=args.zipf_exponent,
        counter_backend=args.counter_backend,
        runtime=args.runtime,
        sites_procs=args.sites_procs,
        transport=args.transport,
        max_frame_mb=args.max_frame_mb,
        heartbeat_timeout=args.heartbeat_timeout,
        resume_dir=args.resume_dir,
        stop_after=args.stop_after,
        executor=args.executor,
        jobs=args.jobs,
        segment_events=args.segment_events,
    )
    _emit(result.to_dict(), args.out, summary=_run_table(result))
    incomplete = result.params.get("incomplete_runs", [])
    if incomplete:
        print(
            f"{len(incomplete)} run(s) stopped early with snapshots under "
            f"{args.resume_dir}; re-invoke the same command to finish them",
            file=sys.stderr,
        )
        return EXIT_INCOMPLETE
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_messages = sub.add_parser(
        "messages", help="messages and accuracy along the stream (Fig. 4)"
    )
    _add_common(p_messages)

    p_eps = sub.add_parser(
        "eps", help="communication vs approximation budget eps (Fig. 5)"
    )
    _add_common(p_eps)
    p_eps.add_argument(
        "--eps-values", type=_csv_floats, default=[0.05, 0.1, 0.2, 0.4],
        help="comma-separated eps sweep (default: %(default)s)",
    )

    p_sites = sub.add_parser(
        "sites", help="communication vs number of sites k (Fig. 6)"
    )
    _add_common(p_sites)
    p_sites.add_argument(
        "--site-values", type=_csv_ints, default=[5, 10, 20, 30],
        help="comma-separated site-count sweep (default: %(default)s)",
    )

    p_accuracy = sub.add_parser(
        "accuracy", help="estimate accuracy vs stream length"
    )
    _add_common(p_accuracy)

    p_runtime = sub.add_parser(
        "runtime", help="modeled cluster runtime and throughput (Figs. 7-8)"
    )
    _add_common(p_runtime)

    p_classify = sub.add_parser(
        "classify",
        help="approximate vs exact classification (Sec. V, Theorem 3)",
    )
    p_classify.add_argument("--features", type=int, default=12,
                            help="number of Naive Bayes features")
    p_classify.add_argument("--class-cardinality", type=int, default=3)
    p_classify.add_argument("--feature-cardinality", type=int, default=4)
    p_classify.add_argument(
        "--algorithms", type=_csv, default=["naive-bayes", "nonuniform"],
        help="approximate algorithms to compare against exact",
    )
    p_classify.add_argument("--eps", type=float, default=0.1)
    p_classify.add_argument("--sites", type=int, default=10)
    p_classify.add_argument("--events", type=int, default=20_000)
    p_classify.add_argument("--eval-events", type=int, default=2_000)
    p_classify.add_argument("--seed", type=int, default=0)
    p_classify.add_argument("--out", default=None)

    p_separation = sub.add_parser(
        "separation",
        help="NONUNIFORM-vs-UNIFORM crossover on NEW-ALARM (Sec. IV-E)",
    )
    p_separation.add_argument(
        "--events-values", type=_csv_ints,
        default=[10_000, 50_000, 150_000],
        help="NEW-ALARM stream-length sweep (default: %(default)s)",
    )
    p_separation.add_argument("--eps", type=float, default=0.4,
                              help="large eps favors the sampling regime")
    p_separation.add_argument("--sites", type=int, default=10)
    p_separation.add_argument("--inflated-count", type=int, default=6)
    p_separation.add_argument("--inflated-cardinality", type=int, default=20)
    p_separation.add_argument(
        "--example-events", type=int, default=200_000,
        help="stream length of the Sec. IV-E tree example "
        "(default: %(default)s — long enough for NONUNIFORM to win)",
    )
    p_separation.add_argument("--example-variables", type=int, default=20)
    p_separation.add_argument("--example-j-large", type=int, default=50)
    p_separation.add_argument("--example-eps", type=float, default=0.5)
    p_separation.add_argument("--eval-events", type=int, default=200)
    p_separation.add_argument("--seed", type=int, default=0)
    p_separation.add_argument("--out", default=None)

    p_long = sub.add_parser(
        "long-crossover",
        help="NEW-ALARM crossover past m~1M via the chunked executor",
    )
    p_long.add_argument(
        "--events-values", type=_csv_ints,
        default=[250_000, 500_000, 1_000_000],
        help="long-stream sweep (default: %(default)s)",
    )
    p_long.add_argument("--eps", type=float, default=0.4)
    p_long.add_argument("--sites", type=int, default=10)
    p_long.add_argument("--inflated-count", type=int, default=6)
    p_long.add_argument("--inflated-cardinality", type=int, default=20)
    p_long.add_argument(
        "--checkpoints", type=int, default=8,
        help="checkpoints per run — also the chunked segment boundaries",
    )
    p_long.add_argument("--eval-events", type=int, default=200)
    p_long.add_argument("--seed", type=int, default=0)
    p_long.add_argument(
        "--executor", default="chunked", choices=executor_names(),
        help="task-graph driver (default: %(default)s)",
    )
    p_long.add_argument("--jobs", type=int, default=None)
    p_long.add_argument("--segment-events", type=int, default=None)
    p_long.add_argument(
        "--resume-dir", default=None,
        help="keep snapshot bundles and cached results here so an "
        "interrupted sweep resumes from the last checkpoint",
    )
    p_long.add_argument("--out", default=None)

    p_figures = sub.add_parser(
        "figures", help="render ASCII plots from a results document"
    )
    p_figures.add_argument("document", help="path to a repro-bench-v1 file")
    p_figures.add_argument("--view", default="auto",
                           choices=list(figures.VIEWS))
    p_figures.add_argument("--width", type=int, default=64)
    p_figures.add_argument("--height", type=int, default=16)
    p_figures.add_argument(
        "--png", default=None, metavar="PATH",
        help="render a PNG here instead of ASCII (needs the optional "
        "matplotlib dependency; falls back to ASCII with a notice "
        "when it is missing)",
    )
    p_figures.add_argument("--out", default=None,
                           help="write the rendered text here "
                           "(default: stdout)")
    return parser


def _dispatch(args) -> int:
    if args.command == "messages":
        return _grid_command(args, name="messages-vs-stream")
    if args.command == "eps":
        return _grid_command(
            args, name="messages-vs-eps", eps_values=args.eps_values
        )
    if args.command == "sites":
        return _grid_command(
            args, name="messages-vs-sites", site_counts=args.site_values
        )
    if args.command == "accuracy":
        return _grid_command(args, name="accuracy-vs-stream")
    if args.command == "runtime":
        return _grid_command(args, name="modeled-runtime")
    if args.command == "classify":
        document = classification_experiment(
            n_features=args.features,
            class_cardinality=args.class_cardinality,
            feature_cardinality=args.feature_cardinality,
            algorithms=args.algorithms,
            eps=args.eps,
            n_sites=args.sites,
            n_events=args.events,
            eval_events=args.eval_events,
            seed=args.seed,
        )
        rows = [
            [r["algorithm"], r["error_rate"],
             r.get("agreement_vs_exact", "-"), r.get("error_rate_gap", "-"),
             r["total_messages"]]
            for r in document["results"]
        ]
        _emit(
            document, args.out,
            summary=format_table(
                ["algorithm", "error-rate", "agree-vs-exact", "gap",
                 "messages"], rows,
                title=f"classification ({document['params']['network']}, "
                      f"m={args.events}, k={args.sites}, "
                      f"truth-err="
                      f"{document['params']['ground_truth_error_rate']:.4f})",
            ),
        )
        return 0
    if args.command == "separation":
        document = separation_experiment(
            events_values=args.events_values,
            eps=args.eps,
            n_sites=args.sites,
            inflated_count=args.inflated_count,
            inflated_cardinality=args.inflated_cardinality,
            example_events=args.example_events,
            example_variables=args.example_variables,
            example_j_large=args.example_j_large,
            example_eps=args.example_eps,
            eval_events=args.eval_events,
            seed=args.seed,
        )
        example = document["example"]
        rows = [
            [example["network"], example["n_events"],
             example["uniform_messages"], example["nonuniform_messages"],
             example["uniform_over_nonuniform"], example["nonuniform_wins"]],
        ]
        rows += [
            [document["params"]["network"], r["n_events"],
             r["uniform_messages"], r["nonuniform_messages"],
             r["uniform_over_nonuniform"], r["nonuniform_wins"]]
            for r in document["results"]
        ]
        crossover = document["crossover_events"]
        _emit(
            document, args.out,
            summary=format_table(
                ["network", "m", "uniform", "nonuniform", "ratio",
                 "nonuniform-wins"],
                rows,
                title=f"Sec. IV-E separation (example theory-ratio="
                      f"{example['theory']['ratio']:.1f}, new-alarm "
                      f"crossover="
                      f"{crossover if crossover is not None else 'not reached'})",
            ),
        )
        return 0
    if args.command == "long-crossover":
        document = long_crossover_experiment(
            events_values=args.events_values,
            eps=args.eps,
            n_sites=args.sites,
            inflated_count=args.inflated_count,
            inflated_cardinality=args.inflated_cardinality,
            checkpoints=args.checkpoints,
            eval_events=args.eval_events,
            seed=args.seed,
            executor=args.executor,
            jobs=args.jobs,
            segment_events=args.segment_events,
            resume_dir=args.resume_dir,
        )
        rows = [
            [document["params"]["network"], r["n_events"],
             r["uniform_messages"], r["nonuniform_messages"],
             r["uniform_over_nonuniform"], r["nonuniform_wins"]]
            for r in document["results"]
        ]
        crossover = document["crossover_events"]
        _emit(
            document, args.out,
            summary=format_table(
                ["network", "m", "uniform", "nonuniform", "ratio",
                 "nonuniform-wins"],
                rows,
                title=f"long-stream crossover (eps="
                      f"{document['params']['eps']:g}, crossover="
                      f"{crossover if crossover is not None else 'not reached'})",
            ),
        )
        return 0
    if args.command == "figures":
        document = figures.load_document(args.document)
        if args.png:
            if figures.matplotlib_available():
                figures.render_png(document, args.png, view=args.view)
                print(f"wrote {args.png}", file=sys.stderr)
                return 0
            print(
                "matplotlib is not installed; falling back to the ASCII "
                "renderer",
                file=sys.stderr,
            )
        text = figures.render(
            document, view=args.view, width=args.width, height=args.height
        )
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(text)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
