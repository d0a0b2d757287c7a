"""Unit tests for the Bayesian-network layer (Table I, sampling, inference)."""

import itertools

import numpy as np
import pytest

from inference_oracle import VariableElimination
from repro import ForwardSampler, network_by_name
from repro.errors import ModelError, QueryError


class TestAlarmTable1:
    def test_node_edge_parameter_counts(self, alarm_net):
        # Table I of the paper: ALARM has 37 nodes, 46 edges, and 509 free
        # parameters under the sum_i (J_i - 1) K_i convention.
        assert alarm_net.n_variables == 37
        assert alarm_net.n_edges == 46
        assert alarm_net.parameter_count == 509

    def test_node_names_are_topological(self, alarm_net):
        seen = set()
        for name in alarm_net.node_names:
            for parent in alarm_net.dag.parents(name):
                assert parent in seen, f"{parent} after child {name}"
            seen.add(name)

    def test_registry_lookup_and_aliases(self, alarm_net):
        assert network_by_name("ALARM").n_variables == 37
        assert network_by_name("new-alarm").n_variables == 37
        with pytest.raises(ModelError):
            network_by_name("no-such-network")


class TestForwardSampler:
    def test_deterministic_under_fixed_seed(self, alarm_net):
        a = ForwardSampler(alarm_net, seed=123).sample(500)
        b = ForwardSampler(alarm_net, seed=123).sample(500)
        assert np.array_equal(a, b)
        c = ForwardSampler(alarm_net, seed=124).sample(500)
        assert not np.array_equal(a, c)

    def test_samples_in_range(self, alarm_net):
        data = ForwardSampler(alarm_net, seed=5).sample(200)
        cards = alarm_net.cardinalities()
        assert data.shape == (200, 37)
        assert data.min() >= 0
        assert np.all(data < cards[None, :])

    def test_root_marginal_matches_cpd(self, small_net):
        # The root's empirical distribution converges on its CPD column.
        data = ForwardSampler(small_net, seed=9).sample(40_000)
        idx = small_net.variable_index("A")
        freq = np.bincount(data[:, idx], minlength=2) / data.shape[0]
        expected = small_net.cpd("A").values[:, 0]
        assert np.abs(freq - expected).max() < 0.01


def _joint_enumeration(net):
    """Brute-force joint table over all full assignments."""
    cards = net.cardinalities()
    states = [range(int(c)) for c in cards]
    table = {}
    for assignment in itertools.product(*states):
        table[assignment] = net.probability(np.array(assignment))
    total = sum(table.values())
    assert abs(total - 1.0) < 1e-9
    return table


class TestVariableElimination:
    def test_marginal_matches_enumeration(self, small_net):
        joint = _joint_enumeration(small_net)
        engine = VariableElimination(small_net)
        for target in small_net.node_names:
            idx = small_net.variable_index(target)
            expected = np.zeros(small_net.cardinalities()[idx])
            for assignment, p in joint.items():
                expected[assignment[idx]] += p
            np.testing.assert_allclose(
                engine.marginal(target), expected, atol=1e-10
            )

    def test_posterior_matches_enumeration(self, small_net):
        joint = _joint_enumeration(small_net)
        engine = VariableElimination(small_net)
        d_idx = small_net.variable_index("D")
        b_idx = small_net.variable_index("B")
        evidence = {"D": 1}
        expected = np.zeros(3)
        for assignment, p in joint.items():
            if assignment[d_idx] == 1:
                expected[assignment[b_idx]] += p
        expected /= expected.sum()
        np.testing.assert_allclose(
            engine.marginal("B", evidence), expected, atol=1e-10
        )

    def test_evidence_probability_matches_enumeration(self, small_net):
        joint = _joint_enumeration(small_net)
        engine = VariableElimination(small_net)
        b_idx = small_net.variable_index("B")
        c_idx = small_net.variable_index("C")
        expected = sum(
            p for a, p in joint.items() if a[b_idx] == 2 and a[c_idx] == 0
        )
        got = engine.evidence_probability({"B": 2, "C": 0})
        assert got == pytest.approx(expected, abs=1e-12)

    def test_query_validation(self, small_net):
        engine = VariableElimination(small_net)
        with pytest.raises(QueryError):
            engine.query([], {})
        with pytest.raises(QueryError):
            engine.query(["A"], {"A": 0})
        with pytest.raises(QueryError):
            engine.query(["nope"])


class TestJointProbabilities:
    def test_batch_matches_scalar(self, small_net):
        data = ForwardSampler(small_net, seed=3).sample(50)
        batch = small_net.log_probability_batch(data)
        for row, value in zip(data, batch):
            assert value == pytest.approx(
                small_net.log_probability(row), abs=1e-12
            )

    def test_event_probability_of_full_assignment(self, small_net):
        data = ForwardSampler(small_net, seed=4).sample(5)
        for row in data:
            event = {
                name: int(row[i])
                for i, name in enumerate(small_net.node_names)
            }
            assert small_net.event_probability(event) == pytest.approx(
                small_net.probability(row), abs=1e-12
            )
