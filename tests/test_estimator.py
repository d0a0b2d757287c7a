"""End-to-end tests for the streaming MLE estimator (Algorithms 1-3)."""

import numpy as np
import pytest

from repro import (
    ALGORITHMS,
    EstimatorSpec,
    ForwardSampler,
    UniformPartitioner,
)
from repro.errors import AllocationError, CounterError, SpecError, StreamError


def build(network, algorithm, **kwargs):
    return EstimatorSpec(network, algorithm, **kwargs).build()


class TestExactEstimator:
    def test_message_count_is_2nm(self, alarm_net):
        # Lemma 5 / Table III: EXACTMLE costs exactly 2n messages per event.
        m, k = 1_500, 7
        estimator = build(alarm_net, "exact", n_sites=k)
        data = ForwardSampler(alarm_net, seed=11).sample(m)
        sites = UniformPartitioner(k, seed=12).assign(m)
        estimator.update_batch(data, sites)
        assert estimator.total_messages == 2 * alarm_net.n_variables * m
        assert estimator.events_seen == m

    def test_query_is_product_of_empirical_cpds(self, small_net):
        m, k = 4_000, 4
        estimator = build(small_net, "exact", n_sites=k)
        data = ForwardSampler(small_net, seed=21).sample(m)
        sites = UniformPartitioner(k, seed=22).assign(m)
        estimator.update_batch(data, sites)
        row = data[0]
        # With exact counters the estimate is exactly the empirical MLE.
        expected = 1.0
        for idx, name in enumerate(small_net.node_names):
            cpd = small_net.cpd(name)
            parents = [small_net.variable_index(p) for p in cpd.parent_names]
            joint_hits = np.sum(
                (data[:, idx] == row[idx])
                & np.all(data[:, parents] == row[parents], axis=1)
            )
            parent_hits = np.sum(np.all(data[:, parents] == row[parents], axis=1))
            expected *= joint_hits / parent_hits
        assert estimator.query(row) == pytest.approx(expected, rel=1e-9)

    def test_log_query_batch_matches_scalar(self, small_net):
        estimator = build(small_net, "exact", n_sites=3)
        data = ForwardSampler(small_net, seed=31).sample(500)
        sites = UniformPartitioner(3, seed=32).assign(500)
        estimator.update_batch(data, sites)
        batch = estimator.log_query_batch(data[:20])
        for row, value in zip(data[:20], batch):
            assert value == pytest.approx(estimator.log_query(row), abs=1e-12)


class TestNonuniformRecovery:
    def test_recovers_cpds_on_alarm(self, alarm_net):
        m, k = 20_000, 10
        estimator = build(
            alarm_net, "nonuniform", eps=0.1, n_sites=k, seed=3
        )
        data = ForwardSampler(alarm_net, seed=1).sample(m)
        sites = UniformPartitioner(k, seed=2).assign(m)
        estimator.update_batch(data, sites)
        errors = []
        for name in alarm_net.node_names:
            cpd = alarm_net.cpd(name)
            estimated = estimator.estimated_cpd_values(name)
            # Only score parent configurations the stream actually visited.
            layout = estimator._layouts[alarm_net.variable_index(name)]
            seen = (
                estimator.bank.estimates()[
                    layout.parent_offset : layout.parent_offset + layout.k_configs
                ]
                >= 50
            )
            if seen.any():
                errors.append(
                    np.abs(estimated[:, seen] - cpd.values[:, seen]).mean()
                )
        assert errors, "no parent configuration got 50+ observations"
        assert float(np.mean(errors)) < 0.05

    def test_learned_network_is_valid(self, small_net):
        estimator = build(small_net, "nonuniform", eps=0.2, n_sites=4,
                                   seed=9)
        data = ForwardSampler(small_net, seed=41).sample(3_000)
        sites = UniformPartitioner(4, seed=42).assign(3_000)
        estimator.update_batch(data, sites)
        learned = estimator.to_network()
        for name in learned.node_names:
            columns = learned.cpd(name).values.sum(axis=0)
            np.testing.assert_allclose(columns, 1.0, atol=1e-9)


class TestMessageOrdering:
    def test_algorithms_ordering_on_long_stream(self, alarm_net):
        # In the sampling regime (large eps, long stream) the paper's
        # hierarchy holds: exact >= baseline >= uniform >= nonuniform.
        net = alarm_net
        m, k, eps = 50_000, 5, 0.8
        data = ForwardSampler(net, seed=1).sample(m)
        sites = UniformPartitioner(k, seed=2).assign(m)
        messages = {}
        for algorithm in ALGORITHMS:
            estimator = build(net, algorithm, eps=eps, n_sites=k,
                                       seed=5)
            estimator.update_batch(data, sites)
            messages[algorithm] = estimator.total_messages
        assert (
            messages["exact"]
            >= messages["baseline"]
            >= messages["uniform"]
            >= messages["nonuniform"]
        ), messages
        # And approximation must be a substantial win over exact counting.
        assert messages["nonuniform"] < 0.5 * messages["exact"]


class TestValidation:
    def test_update_batch_input_errors(self, small_net):
        estimator = build(small_net, "exact", n_sites=4)
        good = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(StreamError):  # wrong width
            estimator.update_batch(np.zeros((3, 5), dtype=np.int64), [0, 1, 2])
        with pytest.raises(StreamError):  # site count mismatch
            estimator.update_batch(good, [0, 1])
        with pytest.raises(StreamError):  # site out of range
            estimator.update_batch(good, [0, 1, 4])
        with pytest.raises(StreamError):  # state out of range
            bad = good.copy()
            bad[0, 0] = 99
            estimator.update_batch(bad, [0, 1, 2])
        with pytest.raises(StreamError):  # unknown strategy
            estimator.update_batch(good, [0, 1, 2], strategy="quantum")

    def test_unknown_algorithm_and_backend(self, small_net):
        with pytest.raises(AllocationError):
            build(small_net, "no-such-algorithm")
        with pytest.raises(CounterError):
            build(small_net, "nonuniform", counter_backend="bogus")
        with pytest.raises(SpecError):
            build(small_net, "nonuniform", eps=1.5)

    def test_empty_batch_is_a_noop(self, small_net):
        estimator = build(small_net, "exact", n_sites=2)
        estimator.update_batch(np.zeros((0, 4), dtype=np.int64), [])
        assert estimator.events_seen == 0
        assert estimator.total_messages == 0
