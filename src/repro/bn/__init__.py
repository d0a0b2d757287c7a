"""Categorical Bayesian networks: model, sampling, repository."""

from repro.bn.cpd import TabularCPD, random_cpd
from repro.bn.network import BayesianNetwork
from repro.bn.repository import (
    alarm,
    hepar2_like,
    link_family,
    link_like,
    munin_like,
    naive_bayes_network,
    network_by_name,
    new_alarm,
)
from repro.bn.sampling import ForwardSampler
from repro.bn.variable import Variable

__all__ = [
    "Variable",
    "TabularCPD",
    "random_cpd",
    "BayesianNetwork",
    "ForwardSampler",
    "alarm",
    "new_alarm",
    "hepar2_like",
    "link_like",
    "link_family",
    "munin_like",
    "naive_bayes_network",
    "network_by_name",
]
