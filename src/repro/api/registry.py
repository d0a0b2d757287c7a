"""Registries wiring algorithm names and counter backends to factories.

The public build layer (:class:`~repro.api.spec.EstimatorSpec`) resolves
its ``algorithm`` and ``counter_backend`` fields against two registries
instead of hard-coded if/elif chains, so downstream code can plug in new
allocation strategies or counter protocols without touching the core:

- an **algorithm** entry names an error-budget allocator (Sec. IV-C/D/E,
  Sec. V of the paper) — or, for ``"exact"``-style algorithms, no
  allocator at all plus a forced counter backend;
- a **counter backend** entry names a factory building a
  :class:`~repro.counters.base.CounterBank` from the expanded per-counter
  error budget.

The paper's four algorithms (EXACTMLE, BASELINE, UNIFORM, NONUNIFORM),
the Sec. V naive-Bayes specialization, and the exact / deterministic /
HYZ banks are pre-registered at import time; ``register_algorithm`` and
``register_counter_backend`` accept user entries under fresh names (pass
``overwrite=True`` to replace an existing one).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.allocation import (
    Allocation,
    baseline_allocation,
    naive_bayes_allocation,
    nonuniform_allocation,
    uniform_allocation,
)
from repro.counters.base import CounterBank
from repro.counters.deterministic import DeterministicCounterBank
from repro.counters.exact import ExactCounterBank
from repro.counters.hyz import HYZCounterBank
from repro.errors import AllocationError, CounterError


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered algorithm: how it splits the error budget.

    Attributes
    ----------
    name:
        Registry key (normalized lowercase).
    allocator:
        ``(network, eps) -> Allocation`` computing per-variable error
        parameters, or ``None`` for exact-counting algorithms that use no
        budget at all.
    counter_backend:
        When set, the backend this algorithm forces regardless of the
        spec's ``counter_backend`` field (``"exact"`` for EXACTMLE).
    description:
        One-line summary shown by :func:`algorithm_names` consumers.
    """

    name: str
    allocator: Callable[..., Allocation] | None = None
    counter_backend: str | None = None
    description: str = ""


@dataclass(frozen=True)
class CounterBackendEntry:
    """One registered counter backend: how counters talk to the coordinator.

    Attributes
    ----------
    name:
        Registry key (normalized lowercase).
    factory:
        ``(n_counters, n_sites, *, eps_per_counter, rng, message_log)
        -> CounterBank``.  ``eps_per_counter`` is the expanded
        per-counter budget (``None`` for exact algorithms) and ``rng`` a
        ready :class:`numpy.random.Generator`.
    randomized:
        Whether the backend consumes the ``rng`` (drives which snapshot
        state is expected).
    needs_eps:
        Whether the backend requires a per-counter error budget; building
        it from an exact (no-allocation) algorithm raises otherwise.
    description:
        One-line summary.
    """

    name: str
    factory: Callable[..., CounterBank]
    randomized: bool = True
    needs_eps: bool = True
    description: str = ""


_ALGORITHMS: dict[str, AlgorithmEntry] = {}
_COUNTER_BACKENDS: dict[str, CounterBackendEntry] = {}


def _normalize(name: str) -> str:
    return str(name).strip().lower()


def register_algorithm(
    name: str,
    allocator: Callable[..., Allocation] | None = None,
    *,
    counter_backend: str | None = None,
    description: str = "",
    overwrite: bool = False,
) -> AlgorithmEntry:
    """Register an algorithm under ``name`` and return its entry.

    ``allocator`` is ``(network, eps) -> Allocation``; pass ``None`` for
    exact-counting algorithms (then ``counter_backend`` should name a
    backend with ``needs_eps=False``).
    """
    key = _normalize(name)
    if not key:
        raise AllocationError("algorithm name must be non-empty")
    if key in _ALGORITHMS and not overwrite:
        raise AllocationError(
            f"algorithm {key!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    entry = AlgorithmEntry(
        name=key,
        allocator=allocator,
        counter_backend=(
            _normalize(counter_backend) if counter_backend else None
        ),
        description=description,
    )
    _ALGORITHMS[key] = entry
    return entry


def register_counter_backend(
    name: str,
    factory: Callable[..., CounterBank],
    *,
    randomized: bool = True,
    needs_eps: bool = True,
    description: str = "",
    overwrite: bool = False,
) -> CounterBackendEntry:
    """Register a counter backend under ``name`` and return its entry."""
    key = _normalize(name)
    if not key:
        raise CounterError("counter backend name must be non-empty")
    if key in _COUNTER_BACKENDS and not overwrite:
        raise CounterError(
            f"counter backend {key!r} is already registered; pass "
            "overwrite=True to replace it"
        )
    entry = CounterBackendEntry(
        name=key,
        factory=factory,
        randomized=randomized,
        needs_eps=needs_eps,
        description=description,
    )
    _COUNTER_BACKENDS[key] = entry
    return entry


def get_algorithm(name: str) -> AlgorithmEntry:
    """Look up a registered algorithm (raises :class:`AllocationError`)."""
    key = _normalize(name)
    if key not in _ALGORITHMS:
        raise AllocationError(
            f"unknown algorithm {name!r}; expected one of "
            f"{tuple(sorted(_ALGORITHMS))}"
        )
    return _ALGORITHMS[key]


def get_counter_backend(name: str) -> CounterBackendEntry:
    """Look up a registered backend (raises :class:`CounterError`)."""
    key = _normalize(name)
    if key not in _COUNTER_BACKENDS:
        raise CounterError(
            f"unknown counter backend {name!r}; expected one of "
            f"{tuple(sorted(_COUNTER_BACKENDS))}"
        )
    return _COUNTER_BACKENDS[key]


def algorithm_names() -> tuple[str, ...]:
    """All registered algorithm names, sorted."""
    return tuple(sorted(_ALGORITHMS))


def counter_backend_names() -> tuple[str, ...]:
    """All registered counter backend names, sorted."""
    return tuple(sorted(_COUNTER_BACKENDS))


# ---------------------------------------------------------------------------
# Built-in entries
# ---------------------------------------------------------------------------

def _exact_bank_factory(n_counters, n_sites, *, eps_per_counter, rng,
                        message_log) -> ExactCounterBank:
    return ExactCounterBank(n_counters, n_sites, message_log=message_log)


def _hyz_bank_factory(n_counters, n_sites, *, eps_per_counter, rng,
                      message_log) -> HYZCounterBank:
    return HYZCounterBank(
        n_counters, n_sites, eps_per_counter, seed=rng,
        message_log=message_log,
    )


def _deterministic_bank_factory(n_counters, n_sites, *, eps_per_counter, rng,
                                message_log) -> DeterministicCounterBank:
    return DeterministicCounterBank(
        n_counters, n_sites, eps_per_counter, message_log=message_log
    )


register_algorithm(
    "exact",
    None,
    counter_backend="exact",
    description="EXACTMLE: exact counters, one message per update (Lemma 5)",
)
register_algorithm(
    "baseline",
    baseline_allocation,
    description="eps/(3n) per-counter budget (Sec. IV-C)",
)
register_algorithm(
    "uniform",
    uniform_allocation,
    description="eps/(16 sqrt(n)) per-counter budget (Sec. IV-D)",
)
register_algorithm(
    "nonuniform",
    nonuniform_allocation,
    description="Lagrange-optimal budget split (Sec. IV-E, Eq. 7-8)",
)
register_algorithm(
    "naive-bayes",
    naive_bayes_allocation,
    description="NONUNIFORM specialized to two-layer trees (Sec. V, Eq. 9)",
)

register_counter_backend(
    "exact",
    _exact_bank_factory,
    randomized=False,
    needs_eps=False,
    description="coordinator holds exact counts; one message per increment",
)
register_counter_backend(
    "hyz",
    _hyz_bank_factory,
    randomized=True,
    needs_eps=True,
    description="Huang-Yi-Zhang randomized counters (Lemma 4)",
)
register_counter_backend(
    "deterministic",
    _deterministic_bank_factory,
    randomized=False,
    needs_eps=True,
    description="(1+eps)-threshold counters (Keralapura et al.), ablations",
)
