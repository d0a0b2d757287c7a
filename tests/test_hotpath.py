"""Regression pinning: every update strategy leaves banks byte-identical.

The argsort/dense grouping paths must reproduce the per-site-mask
reference ingest (``tests/ingest_oracle.py``) exactly — including the
randomized HYZ bank, whose RNG stream must be consumed in the same order
by every grouping strategy.  "Exactly" means the whole
``bank.state_dict()`` (every protocol array plus the bit-generator
state) and the whole ``message_log.state_dict()`` — for the HYZ bank the
sync epoch too, which the reference walk advances once per site record.
"""

import numpy as np
import pytest

from ingest_oracle import assert_states_equal, reference_ingest
from repro import EstimatorSpec, ForwardSampler, UniformPartitioner


def make_estimator(net, algorithm, **kwargs):
    return EstimatorSpec(net, algorithm, **kwargs).build()

STRATEGIES = ("argsort", "dense", "auto")


def _states_after(net, algorithm, strategy, *, eps=0.3, k=10, m=3_000, seed=7):
    estimator = make_estimator(net, algorithm, eps=eps, n_sites=k, seed=seed)
    data = ForwardSampler(net, seed=1).sample(m)
    sites = UniformPartitioner(k, seed=2).assign(m)
    # Two chunks so round transitions span update calls.
    for chunk in (slice(None, m // 2), slice(m // 2, None)):
        if strategy is None:
            reference_ingest(estimator, data[chunk], sites[chunk])
        else:
            estimator.update_batch(data[chunk], sites[chunk], strategy=strategy)
    return estimator.bank.state_dict(), estimator.bank.message_log.state_dict()


@pytest.mark.parametrize("algorithm", ["exact", "nonuniform", "baseline"])
def test_strategies_byte_identical(alarm_net, algorithm):
    bank_ref, log_ref = _states_after(alarm_net, algorithm, None)
    for strategy in STRATEGIES:
        bank, log = _states_after(alarm_net, algorithm, strategy)
        assert_states_equal(bank_ref, bank, strategy)
        if algorithm == "exact":
            # The exact bank records a whole call's reports at once (one
            # epoch per update call); the reference walk records per site.
            assert log["epoch"] == 2, strategy
            log = {**log, "epoch": log_ref["epoch"]}
        assert_states_equal(log_ref, log, strategy)


def test_deterministic_backend_strategies_identical(alarm_net):
    data = ForwardSampler(alarm_net, seed=3).sample(2_000)
    sites = UniformPartitioner(6, seed=4).assign(2_000)
    states = []
    for strategy in (None, *STRATEGIES):
        estimator = make_estimator(
            alarm_net, "uniform", eps=0.4, n_sites=6, seed=5,
            counter_backend="deterministic",
        )
        if strategy is None:
            reference_ingest(estimator, data, sites)
        else:
            estimator.update_batch(data, sites, strategy=strategy)
        states.append((estimator.bank._local.copy(), estimator.total_messages))
    for strategy, state in zip(STRATEGIES, states[1:]):
        assert np.array_equal(states[0][0], state[0]), strategy
        assert states[0][1] == state[1], strategy
