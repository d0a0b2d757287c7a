"""The Bayesian network model: structure + CPDs + joint factorization."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.bn.cpd import TabularCPD, random_cpd
from repro.bn.variable import Variable
from repro.errors import InconsistentNetworkError, QueryError
from repro.graph.dag import DAG
from repro.utils.rng import as_generator
from repro.utils.validation import integer_array


class BayesianNetwork:
    """A categorical Bayesian network ``G = (X, E)`` with tabular CPDs.

    The joint distribution factorizes as
    ``P[X] = prod_i P[X_i | par(X_i)]`` (Eq. 1 of the paper).

    Parameters
    ----------
    dag:
        Structure; node names must match variable names exactly.
    variables:
        The categorical variables.
    cpds:
        One :class:`TabularCPD` per variable, whose parents (names, order,
        and cardinalities) must agree with the DAG and variable set.

    Raises
    ------
    InconsistentNetworkError
        If structure, variables, and CPDs disagree in any way.
    """

    def __init__(
        self,
        dag: DAG,
        variables: Iterable[Variable],
        cpds: Iterable[TabularCPD],
        *,
        name: str = "network",
    ) -> None:
        self.name = str(name)
        self.dag = dag
        self._variables: dict[str, Variable] = {}
        for var in variables:
            if var.name in self._variables:
                raise InconsistentNetworkError(f"duplicate variable {var.name!r}")
            self._variables[var.name] = var
        if set(self._variables) != set(dag.nodes):
            missing = set(dag.nodes) - set(self._variables)
            extra = set(self._variables) - set(dag.nodes)
            raise InconsistentNetworkError(
                f"variables and DAG nodes differ (missing={sorted(missing)[:5]}, "
                f"extra={sorted(extra)[:5]})"
            )
        self._cpds: dict[str, TabularCPD] = {}
        for cpd in cpds:
            if cpd.variable in self._cpds:
                raise InconsistentNetworkError(f"duplicate CPD for {cpd.variable!r}")
            self._cpds[cpd.variable] = cpd
        if set(self._cpds) != set(self._variables):
            missing = set(self._variables) - set(self._cpds)
            raise InconsistentNetworkError(
                f"missing CPDs for variables {sorted(missing)[:5]}"
            )
        for name_, cpd in self._cpds.items():
            var = self._variables[name_]
            if cpd.cardinality != var.cardinality:
                raise InconsistentNetworkError(
                    f"CPD for {name_!r} has cardinality {cpd.cardinality}, "
                    f"variable has {var.cardinality}"
                )
            if cpd.parent_names != dag.parents(name_):
                raise InconsistentNetworkError(
                    f"CPD for {name_!r} lists parents {cpd.parent_names}, "
                    f"DAG says {dag.parents(name_)}"
                )
            expected_cards = tuple(
                self._variables[p].cardinality for p in cpd.parent_names
            )
            if cpd.parent_cards != expected_cards:
                raise InconsistentNetworkError(
                    f"CPD for {name_!r} parent cardinalities {cpd.parent_cards} "
                    f"!= variable cardinalities {expected_cards}"
                )
        # Cache index structures aligned to topological order.
        self._order = dag.topological_order()
        self._index = {n: i for i, n in enumerate(self._order)}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> tuple[str, ...]:
        """Variable names in topological order."""
        return self._order

    @property
    def n_variables(self) -> int:
        return len(self._order)

    @property
    def n_edges(self) -> int:
        return self.dag.edge_count

    def variable(self, name: str) -> Variable:
        try:
            return self._variables[name]
        except KeyError:
            raise InconsistentNetworkError(f"unknown variable {name!r}") from None

    def cpd(self, name: str) -> TabularCPD:
        try:
            return self._cpds[name]
        except KeyError:
            raise InconsistentNetworkError(f"unknown variable {name!r}") from None

    def variables(self) -> list[Variable]:
        """All variables, in topological order."""
        return [self._variables[n] for n in self._order]

    def cpds(self) -> list[TabularCPD]:
        """All CPDs, in topological order."""
        return [self._cpds[n] for n in self._order]

    def variable_index(self, name: str) -> int:
        """Position of a variable in topological order."""
        try:
            return self._index[name]
        except KeyError:
            raise InconsistentNetworkError(f"unknown variable {name!r}") from None

    def cardinalities(self) -> np.ndarray:
        """``J_i`` for each variable, topological order."""
        return np.array(
            [self._variables[n].cardinality for n in self._order], dtype=np.int64
        )

    def parent_configuration_counts(self) -> np.ndarray:
        """``K_i`` for each variable, topological order."""
        return np.array(
            [self._cpds[n].parent_configurations for n in self._order],
            dtype=np.int64,
        )

    def stride_rows(self) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
        """Per-variable ``(J_i, K_i, ((parent position, stride), ...))`` rows.

        One row per variable in topological order; ``parent position`` is
        the parent's topological index and ``stride`` its mixed-radix
        weight in the CPD's parent-configuration code.  All values are
        plain Python ints (no array-scalar boxing in per-row numpy calls).

        This is the *shared stride plan*: the estimator's sparse batch
        encoder (``core/estimator.py``'s ``_SparseEncodePlan``) and the
        forward sampler's packed inverse-CDF tables
        (:meth:`~repro.bn.cpd.TabularCPD.packed_cdf`) both derive their
        per-variable multiply-accumulate plans from these rows, so the
        two hot paths can never disagree about the configuration code.
        """
        rows = []
        for name in self._order:
            cpd = self._cpds[name]
            parents = tuple(
                (self._index[p], int(s))
                for p, s in zip(cpd.parent_names, cpd._strides)
            )
            rows.append(
                (int(cpd.cardinality), int(cpd.parent_configurations), parents)
            )
        return rows

    @property
    def parameter_count(self) -> int:
        """Total free parameters ``sum_i (J_i - 1) * K_i`` (Table I)."""
        return sum(c.parameter_count for c in self._cpds.values())

    @property
    def max_cardinality(self) -> int:
        """``J = max_i J_i``."""
        return max(v.cardinality for v in self._variables.values())

    @functools.cached_property
    def state_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype holding every state index.

        ``min_scalar_type(J - 1)``: uint8 on every Table I network.  The
        fused sampler fills its reused chunk in it, event batches cross
        the distributed wire in it, and the query server keys requests
        in it.
        """
        return np.min_scalar_type(self.max_cardinality - 1)

    @property
    def max_parents(self) -> int:
        """``d = max_i |par(X_i)|``."""
        return max(len(self.dag.parents(n)) for n in self._order)

    def min_cpd_probability(self) -> float:
        """The λ of Lemma 3: the smallest conditional probability."""
        return min(c.min_probability() for c in self._cpds.values())

    # ------------------------------------------------------------------
    # Probability computations
    # ------------------------------------------------------------------
    def _as_index_vector(self, assignment) -> np.ndarray:
        """Coerce a full assignment (mapping or sequence) to state indices."""
        if isinstance(assignment, Mapping):
            missing = set(self._order) - set(assignment)
            if missing:
                raise QueryError(
                    f"full assignment missing variables {sorted(missing)[:5]}"
                )
            vec = np.empty(len(self._order), dtype=np.int64)
            for name, idx in self._index.items():
                vec[idx] = self._variables[name].state_index(assignment[name])
            return vec
        arr = integer_array(assignment, "assignment", QueryError)
        if arr.shape != (len(self._order),):
            raise QueryError(
                f"assignment has shape {arr.shape}, expected ({len(self._order)},)"
            )
        cards = self.cardinalities()
        if np.any(arr < 0) or np.any(arr >= cards):
            raise QueryError("assignment contains out-of-range state indices")
        return arr

    def _as_index_rows(self, data) -> np.ndarray:
        """Coerce a batch of full assignments to ``(m, n)`` state indices.

        The batch form of :meth:`_as_index_vector`'s sequence rule: a
        non-integer dtype, a wrong shape, or any state outside
        ``[0, J_i)``, raises :class:`QueryError`.
        """
        data = integer_array(data, "data", QueryError)
        n = len(self._order)
        if data.ndim != 2 or data.shape[1] != n:
            raise QueryError(
                f"data must have shape (m, {n}), got {data.shape}"
            )
        # One unsigned comparison covers both ends: a negative state
        # wraps to >= 2**63 and fails it like a too-large one.
        out = data.view(np.uint64) >= self.cardinalities().astype(np.uint64)
        if out.any():
            row = int(np.flatnonzero(out.any(axis=1))[0])
            raise QueryError(
                f"row {row} contains out-of-range state indices"
            )
        return data

    def log_probability(self, assignment) -> float:
        """Natural log of the joint probability of a full assignment.

        ``assignment`` is either a mapping from variable name to state
        (label or index) or a sequence of state indices in topological order.
        """
        vec = self._as_index_vector(assignment)
        total = 0.0
        for name, idx in self._index.items():
            cpd = self._cpds[name]
            parent_states = [vec[self._index[p]] for p in cpd.parent_names]
            p = cpd.probability(int(vec[idx]), parent_states)
            if p <= 0.0:
                return -math.inf
            total += math.log(p)
        return total

    def probability(self, assignment) -> float:
        """Joint probability of a full assignment (Eq. 1)."""
        return math.exp(self.log_probability(assignment))

    def event_log_probability(self, event: Mapping[str, int]) -> float:
        """Log-probability of an *ancestrally closed* partial assignment.

        The event must assign a state to every parent of every assigned
        variable; then ``P[event] = prod_{i in event} P[x_i | xpar_i]``
        exactly, with no inference needed.

        Raises
        ------
        QueryError
            If the event is not ancestrally closed.
        """
        total = 0.0
        for name in event:
            if name not in self._index:
                raise QueryError(f"unknown variable {name!r} in event")
        for name, state in event.items():
            cpd = self._cpds[name]
            for parent in cpd.parent_names:
                if parent not in event:
                    raise QueryError(
                        f"event is not ancestrally closed: {name!r} assigned "
                        f"but its parent {parent!r} is not"
                    )
            parent_states = [
                self._variables[p].state_index(event[p]) for p in cpd.parent_names
            ]
            p = cpd.probability(
                self._variables[name].state_index(state), parent_states
            )
            if p <= 0.0:
                return -math.inf
            total += math.log(p)
        return total

    def event_probability(self, event: Mapping[str, int]) -> float:
        """Probability of an ancestrally closed partial assignment."""
        return math.exp(self.event_log_probability(event))

    def log_probability_batch(self, data: np.ndarray) -> np.ndarray:
        """Vectorized log joint probability for rows of state indices.

        ``data`` has shape ``(m, n)`` with columns in topological order;
        a non-integer dtype, a wrong shape or an out-of-range state
        raises :class:`QueryError` (see :meth:`_as_index_rows`).
        """
        data = self._as_index_rows(data)
        total = np.zeros(data.shape[0], dtype=np.float64)
        for name, idx in self._index.items():
            cpd = self._cpds[name]
            parent_cols = data[:, [self._index[p] for p in cpd.parent_names]]
            col_index = cpd.parent_index_array(parent_cols)
            probs = cpd.values[data[:, idx], col_index]
            with np.errstate(divide="ignore"):
                total += np.log(probs)
        return total

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_random_cpds(
        cls,
        dag: DAG,
        cardinalities: Mapping[str, int],
        *,
        seed=None,
        concentration: float = 1.0,
        min_probability: float = 0.02,
        name: str = "network",
    ) -> "BayesianNetwork":
        """Build a network on ``dag`` with seeded random CPDs.

        ``cardinalities`` maps each node name to its domain size.
        """
        rng = as_generator(seed)
        missing = set(dag.nodes) - set(cardinalities)
        if missing:
            raise InconsistentNetworkError(
                f"cardinalities missing for nodes {sorted(missing)[:5]}"
            )
        variables = [Variable(n, int(cardinalities[n])) for n in dag.nodes]
        cpds = []
        for node in dag.nodes:
            parents = dag.parents(node)
            cpds.append(
                random_cpd(
                    node,
                    int(cardinalities[node]),
                    parents,
                    [int(cardinalities[p]) for p in parents],
                    seed=rng,
                    concentration=concentration,
                    min_probability=min_probability,
                )
            )
        return cls(dag, variables, cpds, name=name)

    def with_replaced_cpds(
        self, replacements: Iterable[TabularCPD], *, name: str | None = None
    ) -> "BayesianNetwork":
        """A copy of this network with some CPDs swapped out."""
        new_cpds = dict(self._cpds)
        for cpd in replacements:
            if cpd.variable not in new_cpds:
                raise InconsistentNetworkError(
                    f"no variable {cpd.variable!r} to replace"
                )
            new_cpds[cpd.variable] = cpd
        return BayesianNetwork(
            self.dag,
            self.variables(),
            list(new_cpds.values()),
            name=name if name is not None else self.name,
        )

    def subnetwork(self, keep: Sequence[str], *, name: str | None = None
                   ) -> "BayesianNetwork":
        """Restrict to an ancestrally closed subset of variables.

        Because the subset is closed under parents, CPDs carry over
        unchanged and the sub-joint is the product of the kept CPDs.
        """
        keep_set = set(keep)
        for node in keep_set:
            for parent in self.dag.parents(node):
                if parent not in keep_set:
                    raise QueryError(
                        f"subset not ancestrally closed: {node!r} kept but "
                        f"parent {parent!r} dropped"
                    )
        sub_dag = self.dag.without_nodes(set(self._order) - keep_set)
        return BayesianNetwork(
            sub_dag,
            [self._variables[n] for n in sub_dag.nodes],
            [self._cpds[n] for n in sub_dag.nodes],
            name=name if name is not None else f"{self.name}-sub{len(keep_set)}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BayesianNetwork({self.name!r}, n={self.n_variables}, "
            f"edges={self.n_edges}, params={self.parameter_count})"
        )
