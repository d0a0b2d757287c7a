"""Directed-acyclic-graph substrate used by Bayesian networks."""

from repro.graph.dag import DAG
from repro.graph.generators import (
    naive_bayes_dag,
    random_dag,
)

__all__ = [
    "DAG",
    "random_dag",
    "naive_bayes_dag",
]
