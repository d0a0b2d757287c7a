"""Tests for the declarative build layer: specs and registries."""

import numpy as np
import pytest

from repro import EstimatorSpec, ForwardSampler
from repro.api import (
    algorithm_names,
    counter_backend_names,
    get_algorithm,
    get_counter_backend,
    register_algorithm,
    register_counter_backend,
)
from repro.api.registry import _ALGORITHMS, _COUNTER_BACKENDS
from repro.core.allocation import Allocation, uniform_allocation
from repro.counters.deterministic import DeterministicCounterBank
from repro.counters.exact import ExactCounterBank
from repro.counters.hyz import HYZCounterBank
from repro.errors import AllocationError, CounterError, SpecError
from repro.exec import ShardedSampler
from repro.experiments import ExperimentRunner


@pytest.fixture
def clean_registries():
    """Snapshot/restore the registries around plugin tests."""
    algorithms = dict(_ALGORITHMS)
    backends = dict(_COUNTER_BACKENDS)
    yield
    _ALGORITHMS.clear()
    _ALGORITHMS.update(algorithms)
    _COUNTER_BACKENDS.clear()
    _COUNTER_BACKENDS.update(backends)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(algorithm_names()) >= {
            "exact", "baseline", "uniform", "nonuniform", "naive-bayes"
        }
        assert set(counter_backend_names()) >= {
            "exact", "hyz", "deterministic"
        }

    def test_exact_algorithm_forces_backend(self):
        entry = get_algorithm("exact")
        assert entry.allocator is None
        assert entry.counter_backend == "exact"

    def test_duplicate_registration_rejected(self, clean_registries):
        with pytest.raises(AllocationError):
            register_algorithm("uniform", uniform_allocation)
        with pytest.raises(CounterError):
            register_counter_backend("hyz", lambda *a, **k: None)

    def test_overwrite_allowed_when_explicit(self, clean_registries):
        entry = register_algorithm(
            "uniform", uniform_allocation, overwrite=True,
            description="replacement",
        )
        assert get_algorithm("uniform") is entry

    def test_custom_algorithm_builds(self, small_net, clean_registries):
        def halved(network, eps):
            base = uniform_allocation(network, eps)
            return Allocation(
                base.joint_eps / 2.0, base.parent_eps / 2.0, "halved"
            )

        register_algorithm("halved-uniform", halved)
        estimator = EstimatorSpec(
            small_net, "halved-uniform", eps=0.4, n_sites=3, seed=0
        ).build()
        assert isinstance(estimator.bank, HYZCounterBank)
        base = uniform_allocation(small_net, 0.4)
        assert estimator.bank.eps.max() == pytest.approx(
            base.joint_eps.max() / 2.0
        )

    def test_custom_counter_backend_builds(self, small_net, clean_registries):
        def factory(n_counters, n_sites, *, eps_per_counter, rng,
                    message_log):
            return DeterministicCounterBank(
                n_counters, n_sites, eps_per_counter, message_log=message_log
            )

        register_counter_backend("my-threshold", factory, randomized=False)
        estimator = EstimatorSpec(
            small_net, "uniform", eps=0.3, n_sites=2,
            counter_backend="my-threshold",
        ).build()
        assert isinstance(estimator.bank, DeterministicCounterBank)

    def test_unknown_lookups_raise(self):
        with pytest.raises(AllocationError):
            get_algorithm("nope")
        with pytest.raises(CounterError):
            get_counter_backend("nope")


class TestEstimatorSpec:
    def test_validation_errors(self, small_net):
        with pytest.raises(SpecError):
            EstimatorSpec(small_net, "uniform", eps=0.0)
        with pytest.raises(SpecError):
            EstimatorSpec(small_net, "uniform", n_sites=0)
        with pytest.raises(SpecError):
            EstimatorSpec(small_net, "uniform", seed=1.5)
        with pytest.raises(SpecError):
            EstimatorSpec(small_net, "uniform", partitioner="hash-ring")
        with pytest.raises(SpecError):
            EstimatorSpec(small_net, "uniform", zipf_exponent=-1)
        with pytest.raises(SpecError):
            EstimatorSpec(small_net, "uniform", joint_eps=(0.5, 2.0))
        with pytest.raises(SpecError):
            EstimatorSpec(small_net, "exact", joint_eps=(0.1,) * 4)
        with pytest.raises(SpecError):
            EstimatorSpec(42)

    def test_exact_ignores_eps_and_backend(self, small_net):
        spec = EstimatorSpec(small_net, "exact", eps=7.0, n_sites=3)
        estimator = spec.build()
        assert isinstance(estimator.bank, ExactCounterBank)
        assert spec.resolved_backend == "exact"

    def test_names_normalized(self, small_net):
        spec = EstimatorSpec(small_net, "  NonUniform ", partitioner="ROUND_ROBIN")
        assert spec.algorithm == "nonuniform"
        assert spec.partitioner == "round-robin"

    def test_network_by_name_resolution(self):
        spec = EstimatorSpec("alarm", "exact", n_sites=2)
        assert spec.resolve_network().n_variables == 37
        assert spec.network_name == "alarm"

    def test_allocation_overrides_apply(self, small_net):
        n = small_net.n_variables
        spec = EstimatorSpec(
            small_net, "uniform", eps=0.4, n_sites=3,
            joint_eps=(0.11,) * n, parent_eps=(0.07,) * n,
        )
        allocation = spec.allocation(small_net)
        assert np.all(allocation.joint_eps == 0.11)
        assert np.all(allocation.parent_eps == 0.07)
        assert allocation.name.endswith("-override")
        estimator = spec.build()
        assert set(np.unique(estimator.bank.eps)) == {0.11, 0.07}

    def test_allocation_override_wrong_length(self, small_net):
        spec = EstimatorSpec(small_net, "uniform", joint_eps=(0.1, 0.2))
        with pytest.raises(AllocationError):
            spec.allocation(small_net)

    def test_replace(self, small_net):
        spec = EstimatorSpec(small_net, "uniform", eps=0.2)
        other = spec.replace(algorithm="nonuniform")
        assert other.algorithm == "nonuniform"
        assert other.eps == 0.2

    def test_roundtrip_by_name(self):
        spec = EstimatorSpec(
            "alarm", "nonuniform", eps=0.25, n_sites=7, seed=11,
            partitioner="zipf", zipf_exponent=1.5,
        )
        clone = EstimatorSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_roundtrip_inline_network(self, small_net):
        n = small_net.n_variables
        spec = EstimatorSpec(
            small_net, "uniform", eps=0.3, n_sites=2,
            joint_eps=(0.05,) * n,
        )
        clone = EstimatorSpec.from_dict(spec.to_dict())
        assert clone.network.name == small_net.name
        assert clone.joint_eps == spec.joint_eps
        # The embedded network rebuilds the identical layout.
        assert clone.build().n_counters == spec.build().n_counters

    def test_generator_seed_serializes_as_none(self, small_net):
        spec = EstimatorSpec(
            small_net, "uniform", seed=np.random.default_rng(3)
        )
        assert spec.to_dict()["seed"] is None

    def test_build_matches_session_estimator_layout(self, small_net):
        spec = EstimatorSpec(small_net, "nonuniform", eps=0.3, n_sites=4, seed=2)
        assert spec.build().n_counters == spec.session().estimator.n_counters


@pytest.mark.parametrize("call", [
    lambda net: EstimatorSpec(net, "nonuniform", hyz_engine="vectorized"),
    lambda net: EstimatorSpec(net, "uniform", deterministic_engine="scalar"),
    lambda net: EstimatorSpec(net, "exact").build(encoder="sparse"),
    lambda net: HYZCounterBank(4, 2, 0.3, engine="vectorized"),
    lambda net: DeterministicCounterBank(4, 2, 0.3, engine="vectorized"),
    lambda net: ForwardSampler(net, engine="cdf"),
    lambda net: ShardedSampler(net, seed=0, engine="cdf"),
    lambda net: EstimatorSpec(net, "exact").session().sampler(engine="cdf"),
    lambda net: EstimatorSpec(net, "exact").session().ingest(
        np.zeros((1, net.n_variables), dtype=np.int64), strategy="dense"),
    lambda net: ExperimentRunner(update_strategy="auto"),
])
def test_removed_engine_options_are_type_errors(small_net, call):
    with pytest.raises(TypeError):
        call(small_net)
