"""Declarative estimator specifications.

:class:`EstimatorSpec` is the single value object describing *what* to
build: network, algorithm, error budget, site count, seed, counter
backend, and stream partitioning.  It validates eagerly, resolves its
``algorithm`` / ``counter_backend`` fields through the registries of
:mod:`repro.api.registry`, serializes to a JSON-ready dict (the session
snapshot format embeds it), and builds ready-to-run estimators —
:meth:`EstimatorSpec.build` for a bare
:class:`~repro.core.estimator.StreamingMLEEstimator`,
:meth:`EstimatorSpec.session` for a full
:class:`~repro.api.session.MonitoringSession`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.api.registry import (
    get_algorithm,
    get_counter_backend,
)
from repro.bn.io import network_from_dict, network_to_dict
from repro.bn.network import BayesianNetwork
from repro.bn.repository import network_by_name
from repro.core.allocation import Allocation
from repro.core.estimator import StreamingMLEEstimator
from repro.errors import AllocationError, SpecError
from repro.monitoring.channel import MessageLog
from repro.monitoring.stream import PARTITIONERS
from repro.utils.rng import as_generator

#: Version tag embedded in serialized specs.
SPEC_SCHEMA = "repro-estimator-spec-v1"

#: Engine fields older specs serialized, with the values that still load:
#: ``"vectorized"`` names the code that runs now, and the retired scalar
#: threshold loop was byte-identical to it.  The retired sequential HYZ
#: replay drew its coins in another order, so its snapshots cannot be
#: continued.
_RETIRED_ENGINE_FIELDS = {
    "hyz_engine": ("vectorized",),
    "deterministic_engine": ("vectorized", "scalar"),
}


def _eps_tuple(value, label: str) -> tuple[float, ...] | None:
    if value is None:
        return None
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if arr.ndim != 1 or arr.size == 0:
        raise SpecError(f"{label} override must be a non-empty 1-D sequence")
    if np.any(arr <= 0) or np.any(arr >= 1):
        raise SpecError(f"{label} override entries must lie in (0, 1)")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class EstimatorSpec:
    """Everything needed to (re)build one streaming estimator.

    Attributes
    ----------
    network:
        A repository name (``"alarm"``, ``"new-alarm"``, ...) or an
        explicit :class:`~repro.bn.network.BayesianNetwork`.  Names keep
        snapshots small and reproducible; explicit networks are embedded
        inline when serialized.
    algorithm:
        A registered algorithm name (see
        :func:`repro.api.registry.algorithm_names`).
    eps:
        Overall approximation budget of Definition 2 (ignored by exact
        algorithms).
    n_sites:
        Number of distributed sites ``k``.
    seed:
        ``int``/``None`` root seed, or an existing
        :class:`numpy.random.Generator` (not serializable — snapshots of
        generator-seeded sessions restore from captured RNG *state*, not
        from the seed).
    counter_backend:
        A registered backend name; ignored when the algorithm forces one
        (``"exact"`` does).
    partitioner:
        Site-assignment policy used by sessions when ``ingest`` is called
        without explicit site ids: ``"uniform"``, ``"round-robin"``, or
        ``"zipf"``.
    zipf_exponent:
        Skew of the ``"zipf"`` partitioner.
    joint_eps / parent_eps:
        Optional per-variable allocation overrides (tuples in topological
        variable order) replacing the registered allocator's output for
        the joint / parent counter families.
    """

    network: "str | BayesianNetwork"
    algorithm: str = "nonuniform"
    eps: float = 0.1
    n_sites: int = 10
    seed: "int | np.random.Generator | None" = None
    counter_backend: str = "hyz"
    partitioner: str = "uniform"
    zipf_exponent: float = 1.0
    joint_eps: tuple[float, ...] | None = None
    parent_eps: tuple[float, ...] | None = None

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not isinstance(self.network, (str, BayesianNetwork)):
            raise SpecError(
                "network must be a repository name or a BayesianNetwork, "
                f"got {type(self.network).__name__}"
            )
        object.__setattr__(self, "algorithm", str(self.algorithm).strip().lower())
        object.__setattr__(
            self, "counter_backend", str(self.counter_backend).strip().lower()
        )
        object.__setattr__(
            self, "partitioner",
            str(self.partitioner).strip().lower().replace("_", "-"),
        )
        algorithm = get_algorithm(self.algorithm)       # raises if unknown
        backend = get_counter_backend(
            algorithm.counter_backend or self.counter_backend
        )
        eps = float(self.eps)
        if backend.needs_eps and not 0.0 < eps < 1.0:
            raise SpecError(f"eps must lie in (0, 1), got {self.eps}")
        object.__setattr__(self, "eps", eps)
        n_sites = int(self.n_sites)
        if n_sites <= 0:
            raise SpecError(f"n_sites must be positive, got {self.n_sites}")
        object.__setattr__(self, "n_sites", n_sites)
        if self.seed is not None and not isinstance(
            self.seed, (int, np.integer, np.random.Generator)
        ):
            raise SpecError(
                f"seed must be int, None, or a Generator, got "
                f"{type(self.seed).__name__}"
            )
        if isinstance(self.seed, np.integer):
            object.__setattr__(self, "seed", int(self.seed))
        if self.partitioner not in PARTITIONERS:
            raise SpecError(
                f"unknown partitioner {self.partitioner!r}; expected one of "
                f"{tuple(sorted(PARTITIONERS))}"
            )
        zipf_exponent = float(self.zipf_exponent)
        if zipf_exponent < 0:
            raise SpecError(
                f"zipf_exponent must be >= 0, got {self.zipf_exponent}"
            )
        object.__setattr__(self, "zipf_exponent", zipf_exponent)
        object.__setattr__(
            self, "joint_eps", _eps_tuple(self.joint_eps, "joint_eps")
        )
        object.__setattr__(
            self, "parent_eps", _eps_tuple(self.parent_eps, "parent_eps")
        )
        if algorithm.allocator is None and (
            self.joint_eps is not None or self.parent_eps is not None
        ):
            raise SpecError(
                f"algorithm {self.algorithm!r} uses no error budget; "
                "allocation overrides do not apply"
            )

    # ------------------------------------------------------------------
    @property
    def network_name(self) -> str:
        """Display name of the target network."""
        if isinstance(self.network, BayesianNetwork):
            return self.network.name
        return self.network

    @property
    def resolved_backend(self) -> str:
        """The backend actually used (after any algorithm override)."""
        entry = get_algorithm(self.algorithm)
        return entry.counter_backend or self.counter_backend

    def resolve_network(self) -> BayesianNetwork:
        """The target network as an object (repository lookup for names)."""
        if isinstance(self.network, BayesianNetwork):
            return self.network
        return network_by_name(self.network)

    def replace(self, **changes) -> "EstimatorSpec":
        """A copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    def allocation(self, network: BayesianNetwork | None = None
                   ) -> Allocation | None:
        """The error-budget allocation (``None`` for exact algorithms).

        Applies the per-variable ``joint_eps`` / ``parent_eps`` overrides
        on top of the registered allocator's output.
        """
        entry = get_algorithm(self.algorithm)
        if entry.allocator is None:
            return None
        net = network if network is not None else self.resolve_network()
        allocation = entry.allocator(net, self.eps)
        if self.joint_eps is None and self.parent_eps is None:
            return allocation
        joint = (
            np.asarray(self.joint_eps, dtype=np.float64)
            if self.joint_eps is not None
            else allocation.joint_eps
        )
        parent = (
            np.asarray(self.parent_eps, dtype=np.float64)
            if self.parent_eps is not None
            else allocation.parent_eps
        )
        if joint.shape != allocation.joint_eps.shape or (
            parent.shape != allocation.parent_eps.shape
        ):
            raise AllocationError(
                f"allocation overrides must cover all {net.n_variables} "
                "variables"
            )
        return Allocation(joint, parent, f"{allocation.name}-override")

    def build(
        self,
        *,
        message_log: MessageLog | None = None,
        network: BayesianNetwork | None = None,
        rng: np.random.Generator | None = None,
    ) -> StreamingMLEEstimator:
        """Construct the estimator this spec describes.

        Parameters
        ----------
        message_log:
            Share an existing tally (sessions pass their own); a fresh
            one is created otherwise.
        network:
            Skip the repository lookup when the caller already resolved
            the network (must match the spec).
        rng:
            Override the counter bank's generator (sessions derive it
            from the spec seed together with the partitioner's).
        """
        from repro.core.algorithms import expand_allocation

        net = network if network is not None else self.resolve_network()
        log = message_log if message_log is not None else MessageLog(self.n_sites)
        entry = get_algorithm(self.algorithm)
        backend = get_counter_backend(entry.counter_backend or self.counter_backend)
        if backend.needs_eps:
            if entry.allocator is None:
                raise AllocationError(
                    f"backend {backend.name!r} needs an error budget but "
                    f"algorithm {entry.name!r} allocates none"
                )
            eps_per_counter = expand_allocation(net, self.allocation(net))
        else:
            eps_per_counter = None
        if rng is None and backend.randomized:
            rng = as_generator(self.seed)

        def bank_factory(n_counters: int):
            return backend.factory(
                n_counters,
                self.n_sites,
                eps_per_counter=eps_per_counter,
                rng=rng,
                message_log=log,
            )

        return StreamingMLEEstimator(net, bank_factory, name=entry.name)

    def session(self) -> "MonitoringSession":
        """Build a full :class:`~repro.api.session.MonitoringSession`."""
        from repro.api.session import MonitoringSession

        return MonitoringSession(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready representation (embedded in session snapshots).

        Generator seeds serialize as ``None`` — a restored session gets
        its RNG *state* from the snapshot, not from the seed.
        """
        network: "str | dict"
        if isinstance(self.network, BayesianNetwork):
            network = {"inline": network_to_dict(self.network)}
        else:
            network = self.network
        seed = self.seed if isinstance(self.seed, (int, type(None))) else None
        return {
            "schema": SPEC_SCHEMA,
            "network": network,
            "algorithm": self.algorithm,
            "eps": self.eps,
            "n_sites": self.n_sites,
            "seed": seed,
            "counter_backend": self.counter_backend,
            "partitioner": self.partitioner,
            "zipf_exponent": self.zipf_exponent,
            "joint_eps": list(self.joint_eps) if self.joint_eps else None,
            "parent_eps": list(self.parent_eps) if self.parent_eps else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EstimatorSpec":
        """Rebuild a spec serialized by :meth:`to_dict`.

        Payloads written while the counter banks had selectable engines
        carry ``hyz_engine`` / ``deterministic_engine``; the values that
        name the code that runs now are accepted and dropped, any other
        raises :class:`SpecError`.
        """
        schema = payload.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SpecError(f"unsupported spec schema {schema!r}")
        for key, accepted in _RETIRED_ENGINE_FIELDS.items():
            value = payload.get(key, accepted[0])
            if value not in accepted:
                raise SpecError(
                    f"{key}={value!r} names a removed engine; a spec "
                    f"written with it cannot be rebuilt (only {accepted} "
                    "load)"
                )
        network = payload["network"]
        if isinstance(network, dict):
            network = network_from_dict(network["inline"])
        return cls(
            network=network,
            algorithm=payload.get("algorithm", "nonuniform"),
            eps=payload.get("eps", 0.1),
            n_sites=payload.get("n_sites", 10),
            seed=payload.get("seed"),
            counter_backend=payload.get("counter_backend", "hyz"),
            partitioner=payload.get("partitioner", "uniform"),
            zipf_exponent=payload.get("zipf_exponent", 1.0),
            joint_eps=payload.get("joint_eps"),
            parent_eps=payload.get("parent_eps"),
        )
