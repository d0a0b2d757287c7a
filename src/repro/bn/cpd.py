"""Tabular conditional probability distributions (CPDs).

A CPD for variable ``X_i`` with parents ``par(X_i)`` is stored as a dense
array of shape ``(J_i, K_i)`` where ``J_i = |dom(X_i)|`` and
``K_i = |dom(par(X_i))|``.  Columns index parent configurations via a
mixed-radix code: for ordered parents ``(P_1, .., P_d)`` with cardinalities
``(c_1, .., c_d)``, configuration ``(x_1, .., x_d)`` maps to
``x_1 * (c_2*..*c_d) + x_2 * (c_3*..*c_d) + .. + x_d`` — i.e. the first
listed parent is the most significant digit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import InvalidCPDError
from repro.utils.rng import as_generator


def parent_strides(parent_cards: Sequence[int]) -> np.ndarray:
    """Mixed-radix strides for ordered parent cardinalities.

    >>> parent_strides([2, 3, 4]).tolist()
    [12, 4, 1]
    """
    cards = np.asarray(parent_cards, dtype=np.int64)
    if cards.size == 0:
        return np.zeros(0, dtype=np.int64)
    strides = np.ones(cards.size, dtype=np.int64)
    for i in range(cards.size - 2, -1, -1):
        strides[i] = strides[i + 1] * cards[i + 1]
    return strides


class TabularCPD:
    """The conditional probability table ``P[X | par(X)]``.

    Parameters
    ----------
    variable:
        Name of the child variable.
    cardinality:
        Number of child states, ``J``.
    parent_names:
        Ordered names of the parents (may be empty).
    parent_cards:
        Cardinalities of the parents, aligned with ``parent_names``.
    values:
        Array of shape ``(J, K)``; each column must be a probability vector.

    Raises
    ------
    InvalidCPDError
        On any shape/positivity/normalization violation.
    """

    __slots__ = ("variable", "cardinality", "parent_names", "parent_cards",
                 "values", "_strides")

    def __init__(
        self,
        variable: str,
        cardinality: int,
        parent_names: Sequence[str],
        parent_cards: Sequence[int],
        values,
    ) -> None:
        self.variable = str(variable)
        self.cardinality = int(cardinality)
        self.parent_names = tuple(str(p) for p in parent_names)
        self.parent_cards = tuple(int(c) for c in parent_cards)
        if len(self.parent_names) != len(self.parent_cards):
            raise InvalidCPDError(
                f"CPD {self.variable!r}: {len(self.parent_names)} parent names "
                f"but {len(self.parent_cards)} cardinalities"
            )
        if len(set(self.parent_names)) != len(self.parent_names):
            raise InvalidCPDError(f"CPD {self.variable!r}: duplicate parents")
        if self.cardinality < 1:
            raise InvalidCPDError(f"CPD {self.variable!r}: cardinality < 1")
        if any(c < 1 for c in self.parent_cards):
            raise InvalidCPDError(f"CPD {self.variable!r}: parent cardinality < 1")

        expected_k = self.parent_configurations
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape != (self.cardinality, expected_k):
            raise InvalidCPDError(
                f"CPD {self.variable!r}: values shape {arr.shape} != "
                f"expected ({self.cardinality}, {expected_k})"
            )
        if np.any(arr < 0) or np.any(~np.isfinite(arr)):
            raise InvalidCPDError(
                f"CPD {self.variable!r}: values must be finite and nonnegative"
            )
        sums = arr.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-6):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidCPDError(
                f"CPD {self.variable!r}: column {worst} sums to {sums[worst]:.6f}"
            )
        # Renormalize exactly to absorb tiny drift, then freeze.
        arr = arr / sums
        arr.setflags(write=False)
        self.values = arr
        self._strides = parent_strides(self.parent_cards)

    # ------------------------------------------------------------------
    @property
    def parent_configurations(self) -> int:
        """``K``, the number of parent configurations (1 when parentless)."""
        return int(math.prod(self.parent_cards)) if self.parent_cards else 1

    @property
    def parameter_count(self) -> int:
        """Free parameters ``(J - 1) * K`` — the convention behind Table I."""
        return (self.cardinality - 1) * self.parent_configurations

    def parent_index(self, parent_states: Sequence[int]) -> int:
        """Mixed-radix column index for one parent configuration."""
        states = np.asarray(parent_states, dtype=np.int64)
        if states.shape != (len(self.parent_cards),):
            raise InvalidCPDError(
                f"CPD {self.variable!r}: expected {len(self.parent_cards)} "
                f"parent states, got shape {states.shape}"
            )
        if np.any(states < 0) or np.any(states >= np.asarray(self.parent_cards)):
            raise InvalidCPDError(
                f"CPD {self.variable!r}: parent state out of range: {states}"
            )
        if states.size == 0:
            return 0
        return int(states @ self._strides)

    def parent_index_array(self, parent_columns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`parent_index` over rows.

        ``parent_columns`` has shape ``(m, d)`` with one column per parent in
        order; returns shape ``(m,)`` int64 column indices.
        """
        if len(self.parent_cards) == 0:
            return np.zeros(parent_columns.shape[0], dtype=np.int64)
        return parent_columns.astype(np.int64, copy=False) @ self._strides

    def probability(self, state: int, parent_states: Sequence[int] = ()) -> float:
        """``P[X = state | par(X) = parent_states]``."""
        if not 0 <= state < self.cardinality:
            raise InvalidCPDError(
                f"CPD {self.variable!r}: state {state} out of range"
            )
        return float(self.values[state, self.parent_index(parent_states)])

    def min_probability(self) -> float:
        """Smallest entry of the table (the λ of Lemma 3)."""
        return float(self.values.min())

    def cdf(self) -> np.ndarray:
        """Column-wise cumulative sums, used by the forward sampler."""
        return np.cumsum(self.values, axis=0)

    def packed_cdf(self) -> np.ndarray:
        """Flat inverse-CDF table over all parent configurations.

        Entry ``k * J + j`` holds ``k + cdf[j, k]`` with each column's
        cumulative sums clamped to 1 and the last entry pinned to exactly
        ``k + 1``, so the whole length-``K*J`` array is globally
        non-decreasing.  One ``searchsorted(packed, k + u, side="right")``
        then inverts the CDF of configuration ``k`` for a whole batch at
        once — for ``u`` in ``[0, 1)`` the hit lands strictly inside
        column ``k`` (entries of earlier columns are ``<= k`` and later
        columns start at ``>= k + 1``), and the returned index minus
        ``k * J`` is the sampled child state.  This is the forward
        sampler's per-variable table; see ``docs/performance.md``.
        """
        cdf = np.minimum(np.cumsum(self.values, axis=0), 1.0)
        cdf[-1, :] = 1.0
        offsets = np.arange(self.parent_configurations, dtype=np.float64)
        packed = np.ascontiguousarray((cdf.T + offsets[:, None]).ravel())
        packed.setflags(write=False)
        return packed

    def __eq__(self, other) -> bool:
        if not isinstance(other, TabularCPD):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.cardinality == other.cardinality
            and self.parent_names == other.parent_names
            and self.parent_cards == other.parent_cards
            and np.allclose(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TabularCPD({self.variable!r}, J={self.cardinality}, "
            f"parents={list(self.parent_names)}, K={self.parent_configurations})"
        )


def random_cpd(
    variable: str,
    cardinality: int,
    parent_names: Sequence[str],
    parent_cards: Sequence[int],
    *,
    seed=None,
    concentration: float = 1.0,
    min_probability: float = 0.02,
) -> TabularCPD:
    """Draw a random CPD with Dirichlet columns bounded away from zero.

    Each column is ``(1 - J*λ) * Dirichlet(α) + λ`` with ``λ``
    (``min_probability``) shrunk if necessary so that ``J*λ < 1``.  The floor
    keeps every conditional probability at least λ, matching the regularity
    assumption of Lemma 3 and making ground-truth test events with
    probability ≥ 0.01 reachable.
    """
    if min_probability < 0:
        raise InvalidCPDError(f"min_probability must be >= 0, got {min_probability}")
    rng = as_generator(seed)
    j = int(cardinality)
    k = int(math.prod(parent_cards)) if parent_cards else 1
    floor = min(min_probability, 0.5 / j)
    raw = rng.dirichlet(np.full(j, concentration), size=k).T  # (J, K)
    values = (1.0 - j * floor) * raw + floor
    return TabularCPD(variable, j, parent_names, parent_cards, values)
