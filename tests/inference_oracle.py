"""Exact inference by variable elimination, an oracle for the query paths.

The library answers the paper's queries as products of CPD entries
(full joints and ancestrally closed events, Algorithm 3).  This module
computes the same quantities the slow, independent way: sum-product
variable elimination over tabular factors with a min-fill elimination
ordering.  :meth:`VariableElimination.evidence_probability` of a
session's estimated network is what ``query_event`` and the served
event queries must return (``tests/test_serve.py``).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.errors import QueryError


class Factor:
    """A nonnegative table over a tuple of named categorical variables."""

    __slots__ = ("names", "cards", "values")

    def __init__(self, names: Sequence[str], cards: Sequence[int], values) -> None:
        self.names = tuple(names)
        self.cards = tuple(int(c) for c in cards)
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.cards:
            raise QueryError(
                f"factor over {self.names} has shape {arr.shape}, "
                f"expected {self.cards}"
            )
        if np.any(arr < 0):
            raise QueryError(f"factor over {self.names} has negative entries")
        self.values = arr

    @classmethod
    def from_cpd(cls, cpd, variable_cards: Mapping[str, int]) -> "Factor":
        """Lift a CPD ``P[X | parents]`` into a factor over ``(X, *parents)``."""
        names = (cpd.variable, *cpd.parent_names)
        cards = (cpd.cardinality, *cpd.parent_cards)
        values = cpd.values.reshape(cards)
        return cls(names, cards, values)

    def reduce(self, evidence: Mapping[str, int]) -> "Factor":
        """Slice out evidence assignments that mention this factor's scope."""
        indexer: list = []
        kept_names: list[str] = []
        kept_cards: list[int] = []
        for name, card in zip(self.names, self.cards):
            if name in evidence:
                state = int(evidence[name])
                if not 0 <= state < card:
                    raise QueryError(
                        f"evidence {name}={state} out of range (card {card})"
                    )
                indexer.append(state)
            else:
                indexer.append(slice(None))
                kept_names.append(name)
                kept_cards.append(card)
        return Factor(kept_names, kept_cards, self.values[tuple(indexer)])

    def multiply(self, other: "Factor") -> "Factor":
        """Pointwise product over the union of scopes."""
        names = list(self.names)
        cards = list(self.cards)
        for name, card in zip(other.names, other.cards):
            if name not in names:
                names.append(name)
                cards.append(card)
        def broadcast(factor: "Factor") -> np.ndarray:
            shape = [1] * len(names)
            src_axes = [names.index(n) for n in factor.names]
            arr = factor.values
            # Move factor axes into the union layout.
            expanded = np.moveaxis(
                arr.reshape(factor.cards + (1,) * (len(names) - len(factor.names))),
                range(len(factor.names)),
                src_axes,
            )
            for axis, name in enumerate(names):
                shape[axis] = cards[axis] if name in factor.names else 1
            return expanded.reshape(shape)
        return Factor(names, cards, broadcast(self) * broadcast(other))

    def marginalize(self, name: str) -> "Factor":
        """Sum out one variable."""
        if name not in self.names:
            raise QueryError(f"cannot marginalize {name!r}: not in scope {self.names}")
        axis = self.names.index(name)
        names = self.names[:axis] + self.names[axis + 1 :]
        cards = self.cards[:axis] + self.cards[axis + 1 :]
        return Factor(names, cards, self.values.sum(axis=axis))

    def normalize(self) -> "Factor":
        total = float(self.values.sum())
        if total <= 0:
            raise QueryError(f"factor over {self.names} sums to {total}")
        return Factor(self.names, self.cards, self.values / total)

    def scalar(self) -> float:
        """Value of an empty-scope factor."""
        if self.names:
            raise QueryError(f"factor still has scope {self.names}")
        return float(self.values)


def _min_fill_order(
    scopes: list[set[str]], to_eliminate: set[str]
) -> list[str]:
    """Greedy min-fill elimination ordering."""
    adjacency: dict[str, set[str]] = {v: set() for v in to_eliminate}
    all_vars: set[str] = set()
    for scope in scopes:
        all_vars |= scope
    for v in all_vars:
        adjacency.setdefault(v, set())
    for scope in scopes:
        for a, b in itertools.combinations(scope, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
    order: list[str] = []
    remaining = set(to_eliminate)
    while remaining:
        best, best_fill = None, None
        for v in sorted(remaining):
            neighbors = adjacency[v] & (all_vars - {v})
            fill = sum(
                1
                for a, b in itertools.combinations(sorted(neighbors), 2)
                if b not in adjacency[a]
            )
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        order.append(best)
        remaining.discard(best)
        neighbors = adjacency[best]
        for a, b in itertools.combinations(sorted(neighbors), 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
        for other in adjacency:
            adjacency[other].discard(best)
        adjacency[best] = set()
    return order


class VariableElimination:
    """Exact posterior queries over a :class:`BayesianNetwork`.

    Examples
    --------
    >>> engine = VariableElimination(network)           # doctest: +SKIP
    >>> engine.query(["Disease"], {"Symptom": 1})       # doctest: +SKIP
    """

    def __init__(self, network: BayesianNetwork) -> None:
        self.network = network
        self._cards = {
            v.name: v.cardinality for v in network.variables()
        }

    def _validated_evidence(self, evidence: Mapping[str, int] | None
                            ) -> dict[str, int]:
        evidence = dict(evidence or {})
        for name, state in evidence.items():
            if name not in self._cards:
                raise QueryError(f"unknown evidence variable {name!r}")
            evidence[name] = self.network.variable(name).state_index(state)
        return evidence

    def query(
        self,
        targets: Sequence[str],
        evidence: Mapping[str, int] | None = None,
    ) -> Factor:
        """Posterior joint ``P[targets | evidence]`` as a normalized factor."""
        targets = [str(t) for t in targets]
        if not targets:
            raise QueryError("query requires at least one target variable")
        evidence = self._validated_evidence(evidence)
        for t in targets:
            if t not in self._cards:
                raise QueryError(f"unknown target variable {t!r}")
            if t in evidence:
                raise QueryError(f"target {t!r} also appears in evidence")

        factors = [
            Factor.from_cpd(self.network.cpd(n), self._cards).reduce(evidence)
            for n in self.network.node_names
        ]
        factors = [f for f in factors if f.names]
        eliminate = (
            set(self.network.node_names) - set(targets) - set(evidence)
        )
        order = _min_fill_order([set(f.names) for f in factors], eliminate)
        for var in order:
            bucket = [f for f in factors if var in f.names]
            factors = [f for f in factors if var not in f.names]
            if not bucket:
                continue
            product = bucket[0]
            for other in bucket[1:]:
                product = product.multiply(other)
            factors.append(product.marginalize(var))
        if factors:
            result = factors[0]
            for other in factors[1:]:
                result = result.multiply(other)
        else:
            result = Factor((), (), np.array(1.0).reshape(()))
        # Reorder axes to match the requested target order.
        result = result.normalize()
        perm = [result.names.index(t) for t in targets]
        values = np.transpose(result.values, perm) if result.names else result.values
        cards = tuple(self._cards[t] for t in targets)
        return Factor(targets, cards, values.reshape(cards))

    def marginal(self, target: str, evidence: Mapping[str, int] | None = None
                 ) -> np.ndarray:
        """Posterior marginal of a single variable as a 1-D array."""
        return self.query([target], evidence).values

    def evidence_probability(self, evidence: Mapping[str, int]) -> float:
        """Marginal probability ``P[evidence]`` of a partial assignment."""
        evidence = self._validated_evidence(evidence)
        if not evidence:
            return 1.0
        factors = [
            Factor.from_cpd(self.network.cpd(n), self._cards).reduce(evidence)
            for n in self.network.node_names
        ]
        scalar = 1.0
        live = []
        for f in factors:
            if f.names:
                live.append(f)
            else:
                scalar *= f.scalar()
        eliminate = set(self.network.node_names) - set(evidence)
        order = _min_fill_order([set(f.names) for f in live], eliminate)
        for var in order:
            bucket = [f for f in live if var in f.names]
            live = [f for f in live if var not in f.names]
            if not bucket:
                continue
            product = bucket[0]
            for other in bucket[1:]:
                product = product.multiply(other)
            reduced = product.marginalize(var)
            if reduced.names:
                live.append(reduced)
            else:
                scalar *= reduced.scalar()
        for f in live:
            remaining = f
            for name in f.names:
                remaining = remaining.marginalize(name)
            scalar *= remaining.scalar()
        return scalar
