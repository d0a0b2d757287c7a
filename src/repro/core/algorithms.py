"""Algorithm naming and the per-counter eps layout.

The four algorithms of the paper's evaluation:

- ``exact`` (EXACTMLE) — exact counters, one message per counter update.
- ``baseline`` — approximate counters, ``eps/(3n)`` budget split.
- ``uniform`` — approximate counters, ``eps/(16 sqrt(n))`` split.
- ``nonuniform`` — approximate counters, Lagrange-optimal split.

plus ``naive-bayes`` (the Sec. V specialization).  They are wired to
counter backends through the registries in :mod:`repro.api.registry`;
the declarative entry point is :class:`repro.api.spec.EstimatorSpec`.
"""

from __future__ import annotations

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.core.allocation import Allocation
from repro.errors import AllocationError

#: Algorithm names in the order the paper's plots use.
ALGORITHMS = ("exact", "baseline", "uniform", "nonuniform")


def expand_allocation(
    network: BayesianNetwork, allocation: Allocation
) -> np.ndarray:
    """Per-counter eps array matching the estimator's bank layout.

    The layout places all joint-counter blocks first (variable by variable,
    ``J_i * K_i`` counters each), then all parent-counter blocks
    (``K_i`` each) — the same order :class:`StreamingMLEEstimator` uses.
    """
    if allocation.n_variables != network.n_variables:
        raise AllocationError(
            f"allocation covers {allocation.n_variables} variables, "
            f"network has {network.n_variables}"
        )
    joint_parts = []
    parent_parts = []
    for idx, node in enumerate(network.node_names):
        cpd = network.cpd(node)
        joint_parts.append(
            np.full(
                cpd.cardinality * cpd.parent_configurations,
                allocation.joint_eps[idx],
            )
        )
        parent_parts.append(
            np.full(cpd.parent_configurations, allocation.parent_eps[idx])
        )
    return np.concatenate(joint_parts + parent_parts)
