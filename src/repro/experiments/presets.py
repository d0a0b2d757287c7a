"""Paper-scenario presets built on the session API.

Two experiments that need more than a plain (algorithm, eps, k, m) grid:

- :func:`classification_experiment` — the Sec. V / Theorem 3 workload:
  train approximate estimators and EXACTMLE side by side on a two-layer
  Naive Bayes stream, then compare the *classifiers* they induce —
  agreement rate with the exact model's predictions and the error-rate
  gap (Definition 4 allows the approximate model to lose at most an
  ``eps`` margin).
- :func:`separation_experiment` — the Sec. IV-E NONUNIFORM-beats-UNIFORM
  example: on NEW-ALARM (a few domains inflated, as in Sec. VI) the
  optimal budget split only pays off in the *sampling* regime, i.e. long
  streams / large eps where counters leave exact mode; the preset sweeps
  the stream length and charts the message-ratio crossover.
- :func:`long_crossover_experiment` — the same NEW-ALARM ratio pushed
  past the crossover itself (m >~ 1M, beyond the default sweep), driven
  through the :class:`~repro.exec.chunked.ChunkedExecutor` so each long
  stream advances checkpoint-by-checkpoint through snapshot bundles and
  an interrupted invocation resumes instead of starting over.

All emit ``repro-bench-v1`` documents like every other subcommand.
"""

from __future__ import annotations

import numpy as np

from repro.api.spec import EstimatorSpec
from repro.bn.io import network_to_dict
from repro.bn.repository import naive_bayes_network, new_alarm
from repro.core.classification import BayesianClassifier
from repro.core.theory import separation_example
from repro.exec.base import make_executor
from repro.exec.task import RunTask
from repro.experiments.results import SCHEMA
from repro.experiments.runner import ExperimentRunner, checkpoint_schedule
from repro.monitoring.stream import UniformPartitioner
from repro.bn.sampling import ForwardSampler
from repro.utils.rng import RandomSource
from repro.utils.validation import check_positive_int

#: Class-variable name of the repository's Naive Bayes networks.
CLASS_VARIABLE = "C"


def classification_experiment(
    *,
    n_features: int = 12,
    class_cardinality: int = 3,
    feature_cardinality: int = 4,
    algorithms=("naive-bayes", "nonuniform"),
    eps: float = 0.1,
    n_sites: int = 10,
    n_events: int = 20_000,
    eval_events: int = 2_000,
    chunk_size: int = 10_000,
    seed: int = 0,
) -> dict:
    """Train approximate vs exact sessions and compare their classifiers.

    Every algorithm (plus the ``exact`` reference) trains on the *same*
    stream with the same site assignment through its own
    :class:`~repro.api.session.MonitoringSession`; predictions for the
    class variable are compared on held-out events.  Returns a
    ``repro-bench-v1`` document whose per-algorithm rows report
    ``error_rate`` (vs the true labels), ``agreement_vs_exact``, the
    ``error_rate_gap`` against the exact model, and message totals.
    """
    check_positive_int(n_events, "n_events")
    check_positive_int(eval_events, "eval_events")
    net = naive_bayes_network(
        n_features=n_features,
        class_cardinality=class_cardinality,
        feature_cardinality=feature_cardinality,
    )
    source = RandomSource(seed)
    sampler = ForwardSampler(net, seed=source.generator())
    partitioner = UniformPartitioner(n_sites, seed=source.generator())
    eval_data = ForwardSampler(net, seed=source.generator()).sample(eval_events)

    names = ["exact", *[a for a in algorithms if a != "exact"]]
    sessions = {
        name: EstimatorSpec(
            network=net,
            algorithm=name,
            eps=eps,
            n_sites=n_sites,
            seed=seed,
        ).session()
        for name in names
    }
    produced = 0
    while produced < n_events:
        size = min(chunk_size, n_events - produced)
        batch = sampler.sample(size)
        sites = partitioner.assign(size)
        for session in sessions.values():
            session.ingest(batch, sites)
        produced += size

    targets = [CLASS_VARIABLE] * eval_data.shape[0]
    class_idx = net.variable_index(CLASS_VARIABLE)
    truth_labels = eval_data[:, class_idx]
    predictions = {
        name: session.classifier().predict_batch(targets, eval_data)
        for name, session in sessions.items()
    }
    truth_model_pred = BayesianClassifier(net).predict_batch(targets, eval_data)

    def error_rate(pred: np.ndarray) -> float:
        return float(np.mean(pred != truth_labels))

    exact_error = error_rate(predictions["exact"])
    results = []
    for name in names:
        session = sessions[name]
        entry = {
            "algorithm": name,
            "error_rate": error_rate(predictions[name]),
            "total_messages": int(session.total_messages),
            "messages_per_event": session.total_messages / n_events,
        }
        if name != "exact":
            entry["agreement_vs_exact"] = float(
                np.mean(predictions[name] == predictions["exact"])
            )
            entry["error_rate_gap"] = entry["error_rate"] - exact_error
        results.append(entry)
    return {
        "benchmark": "classification",
        "schema": SCHEMA,
        "params": {
            "network": net.name,
            "class_variable": CLASS_VARIABLE,
            "n_features": int(n_features),
            "class_cardinality": int(class_cardinality),
            "feature_cardinality": int(feature_cardinality),
            "algorithms": names,
            "eps": float(eps),
            "n_sites": int(n_sites),
            "n_events": int(n_events),
            "eval_events": int(eval_events),
            "seed": int(seed),
            "ground_truth_error_rate": error_rate(truth_model_pred),
        },
        "results": results,
    }


def _uniform_vs_nonuniform(
    runner: ExperimentRunner,
    network,
    *,
    eps: float,
    n_sites: int,
    n_events: int,
) -> dict:
    """Message totals of one UNIFORM/NONUNIFORM pair on a shared stream."""
    totals = {}
    for algorithm in ("uniform", "nonuniform"):
        run = runner.run_one(
            network,
            algorithm,
            eps=eps,
            n_sites=n_sites,
            n_events=n_events,
            checkpoints=1,
        )
        totals[algorithm] = run.total_messages
    return {
        "n_events": int(n_events),
        "uniform_messages": int(totals["uniform"]),
        "nonuniform_messages": int(totals["nonuniform"]),
        "uniform_over_nonuniform": float(
            totals["uniform"] / max(totals["nonuniform"], 1)
        ),
        "nonuniform_wins": bool(totals["nonuniform"] < totals["uniform"]),
    }


def separation_experiment(
    *,
    events_values=(10_000, 50_000, 150_000),
    eps: float = 0.4,
    n_sites: int = 10,
    inflated_count: int = 6,
    inflated_cardinality: int = 20,
    example_events: int = 200_000,
    example_variables: int = 20,
    example_j_large: int = 50,
    example_eps: float = 0.5,
    eval_events: int = 200,
    seed: int = 0,
) -> dict:
    """The Sec. IV-E NONUNIFORM-beats-UNIFORM separation, empirically.

    Two legs, both in the sampling regime the paper requires (long
    stream / large eps — short streams keep most counters in exact
    mode, where every algorithm pays one message per increment and the
    budget split buys nothing):

    - **example** — the paper's own construction, a depth-1 tree of
      binary variables with one ``J``-state leaf
      (``repository.separation_tree``), trained once at
      ``example_events``; with the defaults NONUNIFORM measurably wins.
    - **sweep** — NEW-ALARM over ``events_values``, charting the
      UNIFORM/NONUNIFORM message ratio as the stream grows toward the
      crossover (``crossover_events`` is the first swept length where
      NONUNIFORM wins, ``None`` while the sweep stays short of it).

    The ``theory`` sections carry the analytic size-term ratios from
    ``repro.core.theory.separation_example`` for both networks.
    """
    from repro.bn.repository import separation_tree

    events_values = sorted({check_positive_int(m, "events") for m in events_values})
    check_positive_int(example_events, "example_events")
    runner = ExperimentRunner(eval_events=eval_events, seed=seed)

    tree = separation_tree(
        n_variables=example_variables, j_large=example_j_large
    )
    example = _uniform_vs_nonuniform(
        runner, tree, eps=example_eps, n_sites=n_sites,
        n_events=example_events,
    )
    example["network"] = tree.name
    example["eps"] = float(example_eps)
    example["theory"] = separation_example(
        example_variables, example_j_large
    )

    net = new_alarm(
        inflated_count=inflated_count,
        inflated_cardinality=inflated_cardinality,
    )
    results = []
    crossover = None
    for n_events in events_values:
        row = _uniform_vs_nonuniform(
            runner, net, eps=eps, n_sites=n_sites, n_events=n_events,
        )
        if row["nonuniform_wins"] and crossover is None:
            crossover = int(n_events)
        results.append(row)
    return {
        "benchmark": "separation",
        "schema": SCHEMA,
        "params": {
            "network": net.name,
            "eps": float(eps),
            "n_sites": int(n_sites),
            "inflated_count": int(inflated_count),
            "inflated_cardinality": int(inflated_cardinality),
            "events_values": [int(m) for m in events_values],
            "example_events": int(example_events),
            "example_variables": int(example_variables),
            "example_j_large": int(example_j_large),
            "example_eps": float(example_eps),
            "eval_events": int(eval_events),
            "seed": int(seed),
        },
        "theory": separation_example(
            net.n_variables, int(inflated_cardinality)
        ),
        "example": example,
        "crossover_events": crossover,
        "results": results,
    }


def long_crossover_experiment(
    *,
    events_values=(250_000, 500_000, 1_000_000),
    eps: float = 0.4,
    n_sites: int = 10,
    inflated_count: int = 6,
    inflated_cardinality: int = 20,
    checkpoints: int = 8,
    eval_events: int = 200,
    chunk_size: int = 10_000,
    seed: int = 0,
    executor="chunked",
    jobs: int | None = None,
    segment_events: int | None = None,
    resume_dir=None,
) -> dict:
    """Chart the NEW-ALARM UNIFORM/NONUNIFORM crossover on long streams.

    The default :func:`separation_experiment` sweep stops at m = 150k,
    where the message ratio is still climbing toward 1; the crossover
    itself needs m >~ 1M.  This preset builds one
    :class:`~repro.exec.task.RunTask` per (stream length, algorithm)
    pair and drives them through the chunked executor by default, so
    each long run advances checkpoint-by-checkpoint through snapshot
    bundles: a killed worker costs at most one segment of rework, and
    with a ``resume_dir`` an interrupted invocation continues from the
    last bundle instead of starting over.

    Returns a ``repro-bench-v1`` document whose ``results`` rows mirror
    the separation sweep (ratio + winner per length, plot-ready for the
    ``figures`` ratio view) and whose ``runs`` carry the full per-run
    records (checkpoints included, for the messages view).
    """
    events_values = sorted(
        {check_positive_int(m, "events") for m in events_values}
    )
    net = new_alarm(
        inflated_count=inflated_count,
        inflated_cardinality=inflated_cardinality,
    )
    # Serialized inline once so every executor (and every worker) trains
    # on the identical round-tripped model.
    network = {"inline": network_to_dict(net)}
    tasks = [
        RunTask(
            network=network,
            algorithm=algorithm,
            eps=eps,
            n_sites=n_sites,
            n_events=m,
            checkpoints=tuple(checkpoint_schedule(m, checkpoints)),
            seed=seed,
            eval_events=eval_events,
            chunk_size=chunk_size,
        )
        for m in events_values
        for algorithm in ("uniform", "nonuniform")
    ]
    outcome = make_executor(
        executor, jobs=jobs, segment_events=segment_events
    ).run(tasks, resume_dir=resume_dir)
    by_cell = {
        (task.n_events, task.algorithm): run
        for task, run in zip(tasks, outcome.results)
        if run is not None
    }
    results = []
    crossover = None
    for m in events_values:
        uniform = by_cell.get((m, "uniform"))
        nonuniform = by_cell.get((m, "nonuniform"))
        if uniform is None or nonuniform is None:
            continue
        row = {
            "n_events": int(m),
            "uniform_messages": int(uniform.total_messages),
            "nonuniform_messages": int(nonuniform.total_messages),
            "uniform_over_nonuniform": float(
                uniform.total_messages / max(nonuniform.total_messages, 1)
            ),
            "nonuniform_wins": bool(
                nonuniform.total_messages < uniform.total_messages
            ),
        }
        if crossover is None and row["nonuniform_wins"]:
            crossover = int(m)
        results.append(row)
    return {
        "benchmark": "long-crossover",
        "schema": SCHEMA,
        "params": {
            "network": net.name,
            "eps": float(eps),
            "n_sites": int(n_sites),
            "inflated_count": int(inflated_count),
            "inflated_cardinality": int(inflated_cardinality),
            "events_values": [int(m) for m in events_values],
            "checkpoints": int(checkpoints),
            "eval_events": int(eval_events),
            "chunk_size": int(chunk_size),
            "seed": int(seed),
        },
        "theory": separation_example(
            net.n_variables, int(inflated_cardinality)
        ),
        "crossover_events": crossover,
        "results": results,
        "runs": [run.to_dict() for run in outcome.completed],
    }
