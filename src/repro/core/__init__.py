"""The paper's core: streaming MLE approximation over distributed counters.

- :mod:`repro.core.allocation` — how BASELINE / UNIFORM / NONUNIFORM split
  the error budget across the per-CPD counters (Sec. IV-C/D/E, Sec. V).
- :mod:`repro.core.estimator` — the master algorithm (Algorithms 1-3).
- :mod:`repro.core.algorithms` — the algorithm names and the per-counter
  eps layout the counter banks consume.
- :mod:`repro.core.classification` — approximate Bayesian classification
  (Definition 4, Theorem 3).
- :mod:`repro.core.theory` — the analytical communication bounds.
"""

from repro.core.algorithms import ALGORITHMS
from repro.core.allocation import (
    Allocation,
    baseline_allocation,
    naive_bayes_allocation,
    nonuniform_allocation,
    uniform_allocation,
)
from repro.core.classification import BayesianClassifier
from repro.core.estimator import StreamingMLEEstimator
from repro.core.theory import (
    baseline_message_bound,
    exact_mle_messages,
    naive_bayes_message_bound,
    nonuniform_gamma,
    nonuniform_message_bound,
    tree_message_bound,
    uniform_message_bound,
)

__all__ = [
    "Allocation",
    "baseline_allocation",
    "uniform_allocation",
    "nonuniform_allocation",
    "naive_bayes_allocation",
    "StreamingMLEEstimator",
    "ALGORITHMS",
    "BayesianClassifier",
    "exact_mle_messages",
    "baseline_message_bound",
    "uniform_message_bound",
    "nonuniform_message_bound",
    "nonuniform_gamma",
    "tree_message_bound",
    "naive_bayes_message_bound",
]
