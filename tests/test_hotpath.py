"""Regression pinning: every update strategy leaves banks byte-identical.

The argsort/dense sharded paths must reproduce the legacy per-site-mask
path's counter states exactly — including the randomized HYZ bank, whose
RNG stream must be consumed in the same order by every grouping strategy.
"""

import numpy as np
import pytest

from repro import EstimatorSpec, ForwardSampler, UniformPartitioner


def make_estimator(net, algorithm, **kwargs):
    return EstimatorSpec(net, algorithm, **kwargs).build()

STRATEGIES = ("masked", "argsort", "dense", "auto")


def _states_after(net, algorithm, strategy, *, eps=0.3, k=10, m=3_000, seed=7):
    estimator = make_estimator(net, algorithm, eps=eps, n_sites=k, seed=seed)
    data = ForwardSampler(net, seed=1).sample(m)
    sites = UniformPartitioner(k, seed=2).assign(m)
    # Two chunks so round transitions span update calls.
    estimator.update_batch(data[: m // 2], sites[: m // 2], strategy=strategy)
    estimator.update_batch(data[m // 2 :], sites[m // 2 :], strategy=strategy)
    return (
        estimator.bank._local.copy(),
        estimator.bank.estimates(),
        estimator.total_messages,
        estimator.bank.message_log.snapshot(),
    )


@pytest.mark.parametrize("algorithm", ["exact", "nonuniform", "baseline"])
def test_strategies_byte_identical(alarm_net, algorithm):
    reference = _states_after(alarm_net, algorithm, "masked")
    for strategy in STRATEGIES[1:]:
        local, estimates, messages, snapshot = _states_after(
            alarm_net, algorithm, strategy
        )
        assert np.array_equal(reference[0], local), strategy
        assert np.array_equal(reference[1], estimates), strategy
        assert reference[2] == messages, strategy
        assert reference[3] == snapshot, strategy


def test_deterministic_backend_strategies_identical(alarm_net):
    ref = None
    for strategy in STRATEGIES:
        estimator = make_estimator(
            alarm_net, "uniform", eps=0.4, n_sites=6, seed=5,
            counter_backend="deterministic",
        )
        data = ForwardSampler(alarm_net, seed=3).sample(2_000)
        sites = UniformPartitioner(6, seed=4).assign(2_000)
        estimator.update_batch(data, sites, strategy=strategy)
        state = (estimator.bank._local.copy(), estimator.total_messages)
        if ref is None:
            ref = state
        else:
            assert np.array_equal(ref[0], state[0]), strategy
            assert ref[1] == state[1], strategy


def test_encode_halves_matches_reference_encoder(alarm_net):
    estimator = make_estimator(alarm_net, "exact", n_sites=4)
    data = ForwardSampler(alarm_net, seed=17).sample(1_000)
    ids = estimator._encode_batch(data)
    joint, parent = estimator._encode_halves(data)
    assert np.array_equal(ids, np.concatenate([joint, parent], axis=1))
    # Force the large-network fallback and check it agrees with the dgemm.
    estimator._stride_matrix = None
    joint2, parent2 = estimator._encode_halves(data)
    assert np.array_equal(joint, joint2)
    assert np.array_equal(parent, parent2)
